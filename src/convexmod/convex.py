"""Finitely generated convex subsets of a free semimodule.

A ConvexSet stores a finite generator list of FinSupp values; the set
it denotes is the convex closure: all weighted sums sum_i w_i * g_i
with weights from the semiring adding up to 1.  The empty generator
list denotes the empty set, which is convex and is NOT the same value
as {epsilon}, the singleton of the zero function: the former is the
join-semilattice bottom, the latter the semimodule zero.

Membership runs the algorithm named by the semiring's ``hull_membership``:

* exact LP (qplus) - linear feasibility (one column per generator plus
  a homogenizing row of ones forcing the weights to sum to 1),
* join cover (bool) - hulls are the sets closed under binary joins, so
  phi is a member iff the generators below it join back to phi,
* lookup (nat) - every subset is already convex (two weights summing
  to 1 force one of them to be 0), so membership is literal lookup.

Canonicalization deletes every generator that lies in the hull of the
others, in one pass in sorted order: deleting a redundant generator
leaves the hull unchanged and only shrinks the hull of the others, so
a generator kept once is never redundant later and no second sweep is
needed.  Every route runs the same loop over generator indices; over
qplus the integer LP columns (sorted union support plus the row of
ones, scaled by the lcm of every denominator) are built once per call.
Each redundancy test first looks for a coordinate on which the tested
generator is strictly above, or strictly below, every other one: the
weights of a hull member sum to 1, so each of its coordinates lies
between the others' least and greatest value there, and such a
coordinate is a separating functional that answers "no" without an
LP.  Columns share one positive scale, so comparing the integers
compares the rationals.  Every other test, and so every "yes", hands
the subset of columns to ``feasible``.  Over
qplus and bool the surviving generators are exactly the extreme
points, and the canonical form is unique, which makes structural
equality of canonical sets coincide with set equality.

A ConvexSet hashes on first use, from its semiring id and its
generator tuple, whose FinSupp members contribute their cached
hashes, and keeps the result.  ``_skey`` only orders and compares, as
in ``freemod``.

``cs_scale`` by a nonzero scalar keeps the generator order and the
``canonical`` flag without re-sorting or re-canonicalizing.  Scaling
by a nonzero lambda is injective and strictly monotone on each
carrier's nonzero values and leaves the keys alone, so it keeps the
``_skey`` order and distinctness of the generators; and it is a
bijection of the semimodule that preserves weighted sums with weights
summing to 1, so it maps extreme points to extreme points.
"""

from __future__ import annotations

from math import lcm
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import ConvexmodError, SemiringMismatchError
from .exactlp import FeasibilitySystem, feasible
from .freemod import (
    FinSupp,
    fs_add,
    fs_from_json,
    fs_scale,
    fs_zero,
    sorted_unique,
)
from .semiring import (
    HULL_EXACT_LP,
    HULL_JOIN_COVER,
    Scalar,
    Semiring,
    get_semiring,
)


class ConvexSet:
    """Immutable finitely generated convex set.

    Build through ``convex_set`` (plain, possibly redundant generators)
    or ``hull_canonicalize`` (canonical form).  The ``canonical`` flag
    records which constructor produced the value.
    """

    __slots__ = ("semiring", "generators", "canonical", "_skey", "_hash")

    semiring: Semiring
    generators: tuple[FinSupp, ...]
    canonical: bool

    def __init__(self, semiring: Semiring, generators: tuple[FinSupp, ...],
                 canonical: bool, _trusted: bool = False):
        if not _trusted:
            raise ConvexmodError(
                "construct ConvexSet via convex_set()/hull_canonicalize()")
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "_skey", (
            3, semiring.id, tuple(g._skey for g in generators)))

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("ConvexSet is immutable")

    def is_empty(self) -> bool:
        return not self.generators

    def support(self) -> tuple:
        """Sorted union of the generators' supports."""
        return _union_support(self.generators)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ConvexSet) and self._skey == other._skey

    def __lt__(self, other: "ConvexSet") -> bool:
        return self._skey < other._skey

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.semiring.id, self.generators))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        inner = ", ".join(repr(g) for g in self.generators)
        tag = "hull" if self.canonical else "gens"
        return f"{tag}[{self.semiring.id}]{{{inner}}}"

    def to_json_dict(self) -> dict:
        return {
            "semiring": self.semiring.id,
            "generators": [g.to_json_dict() for g in self.generators],
        }


def _union_support(gens: Iterable[FinSupp]) -> tuple:
    return tuple(sorted_unique(k for g in gens for k, _ in g.entries))


def _sorted_generators(sr: Semiring, generators: Iterable[FinSupp]
                       ) -> tuple[FinSupp, ...]:
    """The distinct generators in sorted order, all checked to lie
    over ``sr``."""
    gens = tuple(sorted_unique(generators))
    for g in gens:
        if g.semiring.id != sr.id:
            raise SemiringMismatchError(
                f"generator over {g.semiring.id} in a {sr.id} set")
    return gens


def convex_set(sr: Semiring, generators: Iterable[FinSupp],
               canonical: bool = False) -> ConvexSet:
    """Sorted, duplicate-free ConvexSet; no redundancy removal."""
    return ConvexSet(sr, _sorted_generators(sr, generators), canonical,
                     _trusted=True)


def cs_from_json(data: Mapping[str, Any]) -> ConvexSet:
    if not isinstance(data, Mapping):
        raise ConvexmodError("ConvexSet JSON must be an object")
    sr = get_semiring(str(data.get("semiring")))
    gens = data.get("generators")
    if not isinstance(gens, list):
        raise ConvexmodError("ConvexSet JSON needs a 'generators' array")
    return hull_canonicalize([fs_from_json(sr, g) for g in gens], sr)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def member(A: ConvexSet, phi: FinSupp) -> bool:
    """Exact test phi in hull(A.generators)."""
    sr = A.semiring
    if phi.semiring.id != sr.id:
        raise SemiringMismatchError(
            f"membership of a {phi.semiring.id} value in a {sr.id} set")
    if not A.generators:
        return False
    k = len(A.generators)
    return _hull_test(sr, A.generators + (phi,))(range(k), k)


def _hull_test(sr: Semiring, gens: Sequence[FinSupp]
               ) -> Callable[[Sequence[int], int], bool]:
    """The semiring's membership test over one generator list:
    ``test(rest, i)`` decides gens[i] in hull(gens[j] for j in rest),
    for a nonempty index list ``rest``."""
    if sr.hull_membership == HULL_EXACT_LP:
        return _member_exact_lp(gens)
    if sr.hull_membership == HULL_JOIN_COVER:
        return _member_join_cover(gens)
    # HULL_LOOKUP: every subset is convex, the hull adds nothing.
    return lambda rest, i: any(gens[j] == gens[i] for j in rest)


def _member_exact_lp(gens: Sequence[FinSupp]
                     ) -> Callable[[Sequence[int], int], bool]:
    columns = _homogenized_columns(gens)

    def test(rest: Sequence[int], i: int) -> bool:
        target = columns[i]
        others = tuple(columns[j] for j in rest)
        # Hull members lie between the generators' least and greatest
        # value on every coordinate: a target strictly outside that
        # range on one row is not a member, with no LP.
        for t, row in zip(target, zip(*others)):
            if t > max(row) or t < min(row):
                return False
        return feasible(FeasibilitySystem(others, target)) is not None

    return test


def _homogenized_columns(gens: Sequence[FinSupp]) -> list[tuple[int, ...]]:
    """One integer LP column per generator: its values on the sorted
    union support, then 1 for the homogenizing row (weights sum to 1),
    all times the lcm of every denominator.  Scaling every column and
    the target by one positive factor keeps the solutions."""
    keys = _union_support(gens)
    values = [[g.value(k) for k in keys] for g in gens]
    scale = lcm(*(v.denominator for col in values for v in col))
    return [tuple([v.numerator * (scale // v.denominator) for v in col]
                  + [scale])
            for col in values]


def _member_join_cover(gens: Sequence[FinSupp]
                       ) -> Callable[[Sequence[int], int], bool]:
    supports = [frozenset(g.support()) for g in gens]

    def test(rest: Sequence[int], i: int) -> bool:
        # Convex closure over bool is closure under binary joins, so
        # phi is in the hull iff the generators dominated by phi cover
        # it exactly.
        phi = supports[i]
        below = [supports[j] for j in rest if supports[j] <= phi]
        return bool(below) and frozenset().union(*below) == phi

    return test


# ---------------------------------------------------------------------------
# canonicalization and equality
# ---------------------------------------------------------------------------

def hull_canonicalize(generators: Iterable[FinSupp],
                      sr: Semiring | None = None) -> ConvexSet:
    """Canonical ConvexSet: deduplicate, then one pass in sorted order
    that deletes each generator lying in the hull of the others still
    present.

    One pass reaches the fixpoint.  Deleting a redundant generator
    leaves the hull unchanged and only shrinks the hull of the others,
    so a generator kept once is still outside that hull at the end.

    ``sr`` is only needed for an empty generator list, where the
    semiring cannot be inferred.
    """
    gens = list(generators)
    if not gens:
        if sr is None:
            raise ConvexmodError(
                "empty generator list needs an explicit semiring")
        return ConvexSet(sr, (), True, _trusted=True)
    if sr is None:
        sr = gens[0].semiring
    base = _sorted_generators(sr, gens)
    if sr.every_subset_convex or len(base) == 1:
        # Property A or a single point: the canonical form is the
        # sorted dedup.
        return ConvexSet(sr, base, True, _trusted=True)

    test = _hull_test(sr, base)
    kept = list(range(len(base)))
    for i in range(len(base)):
        rest = [j for j in kept if j != i]
        if rest and test(rest, i):
            kept.remove(i)
    return ConvexSet(sr, tuple(base[j] for j in kept), True, _trusted=True)


def canonicalize(A: ConvexSet) -> ConvexSet:
    if A.canonical:
        return A
    return hull_canonicalize(A.generators, A.semiring)


def cs_compare(A: ConvexSet, B: ConvexSet
               ) -> tuple[str, FinSupp] | None:
    """None when the hulls are equal, else ``(side, witness)``: the
    first generator of A outside B's hull ("left"), else the first of
    B outside A's hull ("right").  Against an empty set, the other
    side's first generator is always the witness."""
    if A.semiring.id != B.semiring.id:
        raise SemiringMismatchError(
            f"comparing sets over {A.semiring.id} and {B.semiring.id}")
    for side, X, Y in (("left", A, B), ("right", B, A)):
        for g in X.generators:
            if not member(Y, g):
                return side, g
    return None


def cs_equal(A: ConvexSet, B: ConvexSet) -> bool:
    """Set equality of hulls: canonical forms are unique, so two
    canonical sets compare structurally, otherwise ``cs_compare``
    decides by mutual generator membership."""
    if A.canonical and B.canonical and A.semiring.id == B.semiring.id:
        return A.generators == B.generators
    return cs_compare(A, B) is None


def extreme_points(A: ConvexSet) -> tuple[FinSupp, ...]:
    """The canonical generators: elements not properly inside any
    segment of the set.  Requires a canonical input."""
    if not A.canonical:
        raise ConvexmodError("extreme_points needs a canonical ConvexSet")
    return A.generators


# ---------------------------------------------------------------------------
# semimodule + join structure on convex sets
# ---------------------------------------------------------------------------

def cs_zero(sr: Semiring) -> ConvexSet:
    """The singleton {epsilon}: the additive unit, distinct from empty."""
    return ConvexSet(sr, (fs_zero(sr),), True, _trusted=True)


def cs_empty(sr: Semiring) -> ConvexSet:
    """The empty set: the join-semilattice bottom."""
    return ConvexSet(sr, (), True, _trusted=True)


def cs_scale(lam: Scalar, A: ConvexSet) -> ConvexSet:
    """lambda * A elementwise for lambda != 0, in A's generator order
    and with A's ``canonical`` flag (see the module docstring);
    {epsilon} for lambda = 0, including 0 * empty = {epsilon}."""
    sr = A.semiring
    lam = sr.validate(lam)
    if sr.is_zero(lam):
        return cs_zero(sr)
    return ConvexSet(sr, tuple([fs_scale(lam, g) for g in A.generators]),
                     A.canonical, _trusted=True)


def cs_add(A: ConvexSet, B: ConvexSet) -> ConvexSet:
    """Minkowski sum on generators; empty absorbs (x + bottom = bottom)."""
    if A.semiring.id != B.semiring.id:
        raise SemiringMismatchError("cs_add over mixed semirings")
    sr = A.semiring
    if A.is_empty() or B.is_empty():
        return cs_empty(sr)
    sums = [fs_add(a, b) for a in A.generators for b in B.generators]
    return hull_canonicalize(sums, sr)


def cs_join(A: ConvexSet, B: ConvexSet) -> ConvexSet:
    """Hull of the union: the binary join of the semilattice."""
    if A.semiring.id != B.semiring.id:
        raise SemiringMismatchError("cs_join over mixed semirings")
    return hull_canonicalize(
        list(A.generators) + list(B.generators), A.semiring)


def cs_join_all(sets: Sequence[ConvexSet], sr: Semiring) -> ConvexSet:
    gens: list[FinSupp] = []
    for s in sets:
        if s.semiring.id != sr.id:
            raise SemiringMismatchError("cs_join_all over mixed semirings")
        gens.extend(s.generators)
    return hull_canonicalize(gens, sr)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def cs_to_csv(A: ConvexSet, variables: Sequence[str] | None = None) -> str:
    """One generator per row; columns are the sorted variable set."""
    if variables is None:
        variables = [k for k in A.support()]
        if not all(isinstance(v, str) for v in variables):
            raise ConvexmodError("CSV needs symbol-keyed generators")
    header = ",".join(str(v) for v in variables)
    lines = [header]
    for g in A.generators:
        lines.append(",".join(
            A.semiring.format_scalar(g.value(v)) for v in variables))
    return "\n".join(lines) + "\n"
