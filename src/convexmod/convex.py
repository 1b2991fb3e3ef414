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

Canonicalization keeps exactly the extreme points, in sorted order.
It sorts the generators on their cached ``_skey`` and drops each one
equal to its predecessor, so no generator is hashed; a Minkowski sum
that is then dropped costs no hash of its scalars.  At most two
distinct generators are all extreme: the hull of one point is that
point.  Over bool distinct generators have distinct supports, so the
generators below a generator are those whose supports lie strictly
inside its own, and it is extreme iff they do not join back to it:
the same join-cover test as membership, against all the others.

Over qplus canonicalization is output-sensitive (Clarkson, "More
output-sensitive geometric algorithms", FOCS 1994).  The generators
become integer LP columns, built once per call from their entries:
values on the sorted union support plus the row of ones, all scaled by
the lcm of every denominator, so comparing the integers compares the
rationals.  This is the one place a rational system becomes integers;
``exactlp`` takes integer systems only.

When there are at most as many columns as rows (n <= d + 1 for d
coordinates), fraction-free (Bareiss) elimination first decides
whether the columns are linearly independent.  The row of ones makes
that the affine independence of the points, and affinely independent
points are the vertices of their simplex: all n are extreme and are
kept with no test and no LP.  Dependent columns go on to Clarkson's
loop unchanged.

A list E of extreme points found so far starts with the
lexicographically greatest column, and every other generator is tested
against hull(E) only.  Inside hull(E), which lies in the hull of the
input, it is not extreme and is dropped.  Outside, it comes with a
functional y separating it from hull(E): a signed unit coordinate when
it is strictly above, or strictly below, every column of E on one row
(the weights of a hull member sum to 1, so its coordinates lie between
the least and greatest value there), else the LP's checked Farkas
certificate.  The input columns that maximize y span a face of the
input's hull, and the lexicographically greatest of them is extreme in
that face, hence in the hull: a convex combination of points that are
lexicographically at most p, one of them strictly less, is strictly
less than p.  Its value under y exceeds every value on E, so it is
new; it joins E and the same generator is tested again.  Each test
drops a generator or finds an extreme point, so n generators with h
extreme points take at most n + h tests with at most h columns each,
where testing every generator against all the others takes n tests
with up to n - 1.  With the certificate the bound is 0 tests for
affinely independent input, and n + h after one elimination of
O(n^2 d) integer operations otherwise.

A "yes" needs more than the coordinates.  The loop keeps the basis of
its most recent LP "yes" that held no artificial column: m = d + 1
columns of E, by their positions in E, and D * B^-1 (see ``exactlp``).
E only grows, so those columns stay where they were and the basis stays
valid.  Before the next LP a test tries lambda = (D * B^-1) t, one m x m
integer product: when lambda >= 0 and sum_j lambda_j c_j = D t, the
target is the convex combination lambda / D of E and is dropped with no
LP.  This is the witness re-substitution an LP "yes" passes, so a
reused "yes" is checked as one from the LP is.  Any other test runs the
LP as before, so every "no", and every Farkas certificate, is the one
the LP alone gives, and E grows in the same order.  Only the tests the
coordinates and the basis do not settle go to ``feasible``.

Every ConvexSet is canonical: ``hull_canonicalize`` builds it, or an
operation that keeps the canonical form (``cs_zero``, ``cs_empty``,
``cs_scale``).  The canonical form is unique, so ``==``, ``hash`` and
dict keys on ConvexSet values are set equality.

A ConvexSet hashes on first use, from its semiring id and its
generator tuple, whose FinSupp members contribute their cached
hashes, and keeps the result.  ``_skey`` only orders and compares, as
in ``freemod``.

``cs_scale`` by a nonzero scalar keeps the generator order without
re-sorting or re-canonicalizing.  Scaling by a nonzero lambda is
injective and strictly monotone on each carrier's nonzero values and
leaves the keys alone, so it keeps the ``_skey`` order and
distinctness of the generators; and it is a bijection of the
semimodule that preserves weighted sums with weights summing to 1, so
it maps extreme points to extreme points.
"""

from __future__ import annotations

from itertools import groupby
from math import lcm
from operator import attrgetter, mul
from typing import Any, Iterable, Mapping, Sequence

from .errors import ConvexmodError
from .exactlp import FeasibilitySystem, basis_solves, feasible
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
    HULL_LOOKUP,
    Scalar,
    Semiring,
    get_semiring,
)


class ConvexSet:
    """Immutable finitely generated convex set, in canonical form: its
    extreme points in sorted order.  Build through
    ``hull_canonicalize``.
    """

    __slots__ = ("semiring", "generators", "_skey", "_hash")

    semiring: Semiring
    generators: tuple[FinSupp, ...]

    def __init__(self, semiring: Semiring, generators: tuple[FinSupp, ...],
                 _trusted: bool = False):
        if not _trusted:
            raise ConvexmodError("construct ConvexSet via hull_canonicalize()")
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "generators", generators)
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
        return f"hull[{self.semiring.id}]{{{inner}}}"

    def to_json_dict(self) -> dict:
        return {
            "semiring": self.semiring.id,
            "generators": [g.to_json_dict() for g in self.generators],
        }


def _union_support(gens: Iterable[FinSupp]) -> tuple:
    return tuple(sorted_unique(k for g in gens for k, _ in g.entries))


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
    """Exact test phi in hull(A.generators), by the semiring's
    ``hull_membership`` algorithm."""
    sr = A.semiring
    sr.refuse_foreign("value", phi)
    if not A.generators:
        return False
    if sr.hull_membership == HULL_EXACT_LP:
        *others, target = _homogenized_columns(A.generators + (phi,))
        return _separation(others, target) is None
    if sr.hull_membership == HULL_JOIN_COVER:
        support = frozenset(phi.support())
        supports = (frozenset(g.support()) for g in A.generators)
        return _join_covered(support, [s for s in supports if s <= support])
    # HULL_LOOKUP: every subset is convex, the hull adds nothing.
    return phi in A.generators


def _homogenized_columns(gens: Sequence[FinSupp]) -> list[tuple[int, ...]]:
    """One integer LP column per generator, read from its entries: its
    values on the sorted union support, then 1 for the homogenizing
    row (weights sum to 1), all times the lcm of every denominator.
    Scaling every column and the target by one positive factor keeps
    the solutions."""
    keys = _union_support(gens)
    row = {k: r for r, k in enumerate(keys)}
    scale = lcm(*(v.denominator for g in gens for _, v in g.entries))
    columns = []
    for g in gens:
        col = [0] * len(keys) + [scale]
        for k, v in g.entries:
            col[row[k]] = v.numerator * (scale // v.denominator)
        columns.append(tuple(col))
    return columns


def _separation(others: Sequence[tuple[int, ...]], target: tuple[int, ...],
                basis: list | None = None) -> list[int] | None:
    """None when ``target`` lies in the hull of the nonempty column
    list ``others``, else a functional y with y.target > y.c for every
    c in ``others``.

    Hull members lie between the columns' least and greatest value on
    every coordinate, so a target strictly above (below) that range on
    one row is separated by the unit (negated unit) functional of that
    row, with no LP.  Then a ``basis`` list holding the basis of an
    earlier LP "yes" over a prefix of ``others`` may show the target
    inside with no LP (``exactlp.basis_solves``).  Otherwise the LP
    decides, a "yes" refreshes ``basis``, and a "no" carries its
    checked Farkas certificate: y.c <= 0 < y.target."""
    for r, (t, row) in enumerate(zip(target, zip(*others))):
        above = t > max(row)
        if above or t < min(row):
            y = [0] * len(target)
            y[r] = 1 if above else -1
            return y
    if basis and basis_solves(others, target, basis):
        return None
    y: list[int] = []
    if feasible(FeasibilitySystem(tuple(others), target),
                certificate=y, basis=basis) is None:
        return y
    return None


def _independent(columns: Sequence[tuple[int, ...]]) -> bool:
    """Whether the integer vectors are linearly independent, by
    fraction-free (Bareiss) elimination: one pivot per vector, a row
    swap when the pivot position holds 0, a coordinate skipped when no
    remaining vector is nonzero there.  Each entry after step k is, up
    to sign, a (k+1)-minor of the input, so the division by the
    previous pivot is exact (Bareiss, Math. Comp. 22, 1968)."""
    rows = [list(c) for c in columns]
    n, width = len(rows), len(rows[0])
    prev, k = 1, 0
    for c in range(width):
        if n - k > width - c:
            return False
        p = next((i for i in range(k, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        pivot = top[c]
        for row in rows[k + 1:]:
            a = row[c]
            for j in range(c + 1, width):
                row[j] = (row[j] * pivot - a * top[j]) // prev
        prev, k = pivot, k + 1
        if k == n:
            return True
    return False


def _extreme_indices(columns: Sequence[tuple[int, ...]]) -> list[int]:
    """The indices, ascending, of the extreme points among at least two
    distinct homogenized columns (Clarkson's output-sensitive
    redundancy removal, after the independence certificate; see the
    module docstring)."""
    n = len(columns)
    if n <= len(columns[0]) and _independent(columns):
        return list(range(n))
    extreme = [max(range(n), key=columns.__getitem__)]
    found = set(extreme)
    # The last LP "yes" basis: positions in ``extreme``, which only grows.
    basis: list = []
    for i in range(n):
        if i in found:
            continue
        target = columns[i]
        while True:
            y = _separation([columns[j] for j in extreme], target, basis)
            if y is None:
                break
            # Columns dropped so far lie in hull(extreme), below
            # y.target like the extreme ones, so the maximizer is
            # undecided: among i..n-1.
            best = max((j for j in range(i, n) if j not in found),
                       key=lambda j: (sum(map(mul, y, columns[j])),
                                      columns[j]))
            extreme.append(best)
            found.add(best)
            if best == i:
                break
    return sorted(extreme)


def _join_covered(support: frozenset, below: Sequence[frozenset]) -> bool:
    """Convex closure over bool is closure under binary joins, so a
    value with this support is in the hull iff the supports ``below``
    it, those of the generators it dominates, cover it exactly."""
    return bool(below) and frozenset().union(*below) == support


# ---------------------------------------------------------------------------
# canonicalization and equality
# ---------------------------------------------------------------------------

_SKEY = attrgetter("_skey")


def hull_canonicalize(generators: Iterable[FinSupp],
                      sr: Semiring | None = None) -> ConvexSet:
    """Canonical ConvexSet: the distinct generators that are extreme
    points, in sorted order (see the module docstring for the qplus
    and bool routes).

    ``sr`` is only needed for an empty generator list, where the
    semiring cannot be inferred.
    """
    gens = list(generators)
    if not gens:
        if sr is None:
            raise ConvexmodError(
                "empty generator list needs an explicit semiring")
        return ConvexSet(sr, (), _trusted=True)
    if sr is None:
        sr = gens[0].semiring
    # Sorting and comparing the cached sort keys dedups without hashing
    # a generator; groupby keeps the first of equal ones, as a set does.
    gens.sort(key=_SKEY)
    base = tuple([next(run) for _, run in groupby(gens, _SKEY)])
    for g in base:
        if g.semiring is not sr:
            sr.refuse_foreign("generator", g)
    if sr.hull_membership == HULL_LOOKUP or len(base) <= 2:
        # Every subset convex, or at most two distinct points, each
        # outside the hull of the other (that point itself): the
        # canonical form is the sorted dedup.
        return ConvexSet(sr, base, _trusted=True)
    if sr.hull_membership == HULL_EXACT_LP:
        kept = _extreme_indices(_homogenized_columns(base))
    else:
        supports = [frozenset(g.support()) for g in base]
        kept = [i for i, s in enumerate(supports)
                if not _join_covered(s, [t for t in supports if t < s])]
    return ConvexSet(sr, tuple(base[j] for j in kept), _trusted=True)


def cs_compare(A: ConvexSet, B: ConvexSet
               ) -> tuple[str, FinSupp] | None:
    """None when the hulls are equal, else ``(side, witness)``: the
    first generator of A outside B's hull ("left"), else the first of
    B outside A's hull ("right").  Against an empty set, the other
    side's first generator is always the witness."""
    A.semiring.refuse_foreign("compared set", B)
    for side, X, Y in (("left", A, B), ("right", B, A)):
        for g in X.generators:
            if not member(Y, g):
                return side, g
    return None


def cs_equal(A: ConvexSet, B: ConvexSet) -> bool:
    """Set equality of hulls over one semiring: canonical forms are
    unique, so the generators compare structurally."""
    A.semiring.refuse_foreign("compared set", B)
    return A.generators == B.generators


def extreme_points(A: ConvexSet) -> tuple[FinSupp, ...]:
    """The canonical generators: elements not properly inside any
    segment of the set."""
    return A.generators


# ---------------------------------------------------------------------------
# semimodule + join structure on convex sets
# ---------------------------------------------------------------------------

def cs_zero(sr: Semiring) -> ConvexSet:
    """The singleton {epsilon}: the additive unit, distinct from empty."""
    return ConvexSet(sr, (fs_zero(sr),), _trusted=True)


def cs_empty(sr: Semiring) -> ConvexSet:
    """The empty set: the join-semilattice bottom."""
    return ConvexSet(sr, (), _trusted=True)


def cs_scale(lam: Scalar, A: ConvexSet) -> ConvexSet:
    """lambda * A elementwise for lambda != 0, in A's generator order
    (see the module docstring); {epsilon} for lambda = 0, including
    0 * empty = {epsilon}."""
    sr = A.semiring
    lam = sr.validate(lam)
    if sr.is_zero(lam):
        return cs_zero(sr)
    return ConvexSet(sr, tuple([fs_scale(lam, g) for g in A.generators]),
                     _trusted=True)


def cs_add(A: ConvexSet, B: ConvexSet) -> ConvexSet:
    """Minkowski sum on generators; empty absorbs (x + bottom = bottom)."""
    sr = A.semiring
    if B.semiring is not sr:
        sr.refuse_foreign("summand", B)
    if A.is_empty() or B.is_empty():
        return cs_empty(sr)
    sums = [fs_add(a, b) for a in A.generators for b in B.generators]
    return hull_canonicalize(sums, sr)


def cs_join_all(sets: Sequence[ConvexSet], sr: Semiring) -> ConvexSet:
    gens: list[FinSupp] = []
    for s in sets:
        if s.semiring is not sr:
            sr.refuse_foreign("joined set", s)
        gens.extend(s.generators)
    return hull_canonicalize(gens, sr)

