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

Fraction-free (Bareiss) elimination of the n columns first gives
their rank r and the r rows where it pivots.  With more columns than
rows it first eliminates the first d + 1: rank d + 1 there is rank
d + 1 for all, and only lower rank needs all n.  The row of ones makes
r = n the affine independence of the points, and affinely independent
points are the vertices of their simplex: all n are extreme and are
kept with no test and no LP.  Otherwise, when r is below the row
count d + 1 (the points span fewer dimensions than they have
coordinates), every column keeps only the pivot rows.  Each dropped
row is one linear combination of the kept ones, the same in every
column, and every target below is one of the columns, so a system
holds on the kept rows iff it holds on all of them: every answer
stands.  Restricting is a linear bijection of the points' span, so it
keeps which points are extreme, and the loop below takes the
lexicographic order of the restricted columns.  The system then has
full row rank r.

A list E of extreme points found so far starts with the seeds: the
lexicographically greatest column and, on every row of the (restricted)
columns, the lexicographically greatest of the columns that maximize
that row and of those that minimize it.  Each is extreme by the face
argument below, with the unit functional of its row, or its negation,
as y; so none needs an LP.  Every other generator is tested against
hull(E) only.  Inside hull(E), which lies in the hull of the
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
with up to n - 1.  After the elimination, of O(n d r) integer
operations at most, the bound is 0 tests for affinely independent
input and n + h otherwise.

A "yes" needs more than the coordinates.  On full row rank every LP
"yes" ends on a basis of m = r real columns (``exactlp`` drives a
leftover artificial out of it), and ``feasible`` hands that basis back:
the columns of E, by their positions in E, and D * B^-1.  The loop
keeps every basis handed back during the call.  E only grows, so their columns stay where they were and each
basis stays valid.  Before the next LP a test tries each, newest
first: lambda = (D * B^-1) t, one m x m integer product; when
lambda >= 0 and sum_j lambda_j c_j = D t, the target is the convex
combination lambda / D of E and is dropped with no LP.  This is the
witness re-substitution an LP "yes" passes, so a reused "yes" is
checked as one from the LP is.  Any other test runs the LP as before,
so every "no", and every Farkas certificate, is the one the LP alone
gives.  Only the tests the seeds, the coordinates and the bases do
not settle go to ``feasible``.

Every ConvexSet is canonical: ``hull_canonicalize`` builds it, or an
operation that keeps the canonical form (``cs_zero``, ``cs_empty``,
``cs_scale``, ``cs_add`` over qplus of a single point or of summands
on disjoint supports, and ``distlaw.delta_hull`` over qplus).  The
canonical form is unique, so ``==``, ``hash`` and dict keys on
ConvexSet values are set equality.

A ConvexSet hashes on first use, from its semiring id and its
generator tuple, whose FinSupp members contribute their cached
hashes, and keeps the result.  ``_skey`` only orders and compares, as
in ``freemod``: it is ``(3, semiring id, generator keys)``, the tuple
of the generators' flat ``_skey`` tuples, so two sets compare
generator by generator, whatever the lengths of those keys.

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
    if not isinstance(data.get("semiring"), str):
        raise ConvexmodError("ConvexSet JSON needs a 'semiring' string")
    sr = get_semiring(data["semiring"])
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
                bases: list | None = None) -> list[int] | None:
    """None when ``target`` lies in the hull of the nonempty column
    list ``others``, else a functional y with y.target > y.c for every
    c in ``others``.

    Hull members lie between the columns' least and greatest value on
    every coordinate, so a target strictly above (below) that range on
    one row is separated by the unit (negated unit) functional of that
    row, with no LP.  Then each basis in a ``bases`` list, every one
    handed back by an earlier LP "yes" over a prefix of ``others``, is
    tried newest first and may show the target inside with no LP
    (``exactlp.basis_solves``).  Otherwise the LP decides, a "yes"
    that hands back a basis adds it to ``bases``, and a "no" carries
    its checked Farkas certificate: y.c <= 0 < y.target."""
    for r, (t, row) in enumerate(zip(target, zip(*others))):
        above = t > max(row)
        if above or t < min(row):
            y = [0] * len(target)
            y[r] = 1 if above else -1
            return y
    for basis in reversed(bases or ()):
        if basis_solves(others, target, basis):
            return None
    y: list[int] = []
    basis: list = []
    if feasible(FeasibilitySystem(tuple(others), target),
                certificate=y, basis=basis) is None:
        return y
    if basis and bases is not None:
        bases.append(basis)
    return None


def _pivot_rows(columns: Sequence[tuple[int, ...]]) -> list[int]:
    """The coordinates, ascending, where fraction-free (Bareiss)
    elimination of the integer vectors pivots: a row swap when the
    pivot position holds 0, a coordinate skipped when no remaining
    vector is nonzero there.  Their number is the rank of the vectors,
    and every other coordinate is one linear combination of them, the
    same in every vector.  Each entry after step k is, up to sign, a
    (k+1)-minor of the input, so the division by the previous pivot is
    exact (Bareiss, Math. Comp. 22, 1968)."""
    rows = [list(c) for c in columns]
    n, width = len(rows), len(rows[0])
    prev, k, pivots = 1, 0, []
    for c in range(width):
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
        pivots.append(c)
        if k == n:
            break
    return pivots


def _seeds(columns: Sequence[tuple[int, ...]]) -> list[int]:
    """Indices of extreme points found with no LP, without repeats: the
    lexicographically greatest column, then on each row the
    lexicographically greatest column of those that maximize it and of
    those that minimize it (see the module docstring)."""
    index = range(len(columns))
    seeds = [max(index, key=columns.__getitem__)]
    for row in zip(*columns):
        for value in (max(row), min(row)):
            best = max((j for j in index if row[j] == value),
                       key=columns.__getitem__)
            if best not in seeds:
                seeds.append(best)
    return seeds


def _extreme_indices(columns: Sequence[tuple[int, ...]]) -> list[int]:
    """The indices, ascending, of the extreme points among at least two
    distinct homogenized columns (the rank certificate, then Clarkson's
    output-sensitive redundancy removal on the pivot rows; see the
    module docstring)."""
    n, width = len(columns), len(columns[0])
    # Rank ``width`` on the first ``width`` columns is rank ``width`` on
    # all of them, with no elimination of the rest.
    rows = _pivot_rows(columns[:width])
    if n > width and len(rows) < width:
        rows = _pivot_rows(columns)
    if len(rows) == n:
        return list(range(n))
    if len(rows) < width:
        columns = [tuple([c[r] for r in rows]) for c in columns]
    extreme = _seeds(columns)
    found = set(extreme)
    # Every LP "yes" basis: positions in ``extreme``, which only grows.
    bases: list = []
    for i in range(n):
        if i in found:
            continue
        target = columns[i]
        while True:
            y = _separation([columns[j] for j in extreme], target, bases)
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
    side's first generator is always the witness.  Canonical forms
    are unique, so equal ones answer None with no membership test."""
    A.semiring.refuse_foreign("compared set", B)
    if A.generators == B.generators:
        return None
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
    """Minkowski sum on generators; empty absorbs (x + bottom = bottom).

    Over qplus two cases need no canonicalization: one side a single
    point, where the sum is a translate, or disjoint supports, where
    the sum is affinely A x B, whose vertices are the pairs of
    vertices.  Either way all |A| * |B| sums are distinct and extreme,
    and they are only sorted.  Over bool the disjoint case fails:
    hull{{x}, {x, y}} + hull{{z}, {z, w}} drops {x, y, z, w}, the join
    of {x, y, z} and {x, z, w}."""
    sr = A.semiring
    if B.semiring is not sr:
        sr.refuse_foreign("summand", B)
    if A.is_empty() or B.is_empty():
        return cs_empty(sr)
    sums = [fs_add(a, b) for a in A.generators for b in B.generators]
    if sr.hull_membership == HULL_EXACT_LP and (
            len(A.generators) == 1 or len(B.generators) == 1
            or {k for a in A.generators for k, _ in a.entries}.isdisjoint(
                k for b in B.generators for k, _ in b.entries)):
        sums.sort(key=_SKEY)
        return ConvexSet(sr, tuple(sums), _trusted=True)
    return hull_canonicalize(sums, sr)


def cs_join_all(sets: Sequence[ConvexSet], sr: Semiring) -> ConvexSet:
    gens: list[FinSupp] = []
    for s in sets:
        if s.semiring is not sr:
            sr.refuse_foreign("joined set", s)
        gens.extend(s.generators)
    return hull_canonicalize(gens, sr)

