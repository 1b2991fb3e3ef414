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
Over bool and nat, and over qplus up to ``_SORT_FIRST_MAX``
generators, it sorts the generators on their cached ``_skey`` and
drops each one equal to its predecessor, so no generator is hashed.
At most two distinct generators are all extreme: the hull of one point
is that point.  Larger qplus inputs are deduped in a dict on the
integer columns the loop below needs, and only the extreme points are
sorted.  Over bool distinct generators have distinct supports, so the
generators below a generator are those whose supports lie strictly
inside its own, and it is extreme iff they do not join back to it:
the same join-cover test as membership, against all the others.

Over qplus canonicalization needs no LP for points on a segment or in
a polygon, and is output-sensitive otherwise (Clarkson, "More
output-sensitive geometric algorithms", FOCS 1994).  The generators
become integer LP columns, built once per call from their entries:
values on the sorted union support plus the row of ones, all scaled by
the lcm of every denominator, so comparing the integers compares the
rationals.  This is the one place a rational system becomes integers;
``exactlp`` takes integer systems only.

Fraction-free (Bareiss) elimination of the n columns first gives
their rank r and the r rows where it pivots.  The row of ones makes
r = n the affine independence of the points, and affinely independent
points are the vertices of their simplex: all n are extreme and are
kept with no test and no LP.  Otherwise, when r is below the row
count d + 1 (the points span fewer dimensions than they have
coordinates), every column keeps only the pivot rows.  Each dropped
row is one linear combination of the kept ones, the same in every
column, and every target below is one of the columns, so a system
holds on the kept rows iff it holds on all of them: every answer
stands.  Restricting is a linear bijection of the points' span, so it
keeps which points are extreme, and the routes below take the
lexicographic order of the restricted columns.  The system then has
full row rank r.

Two or three pivot rows need no LP.  Every column has the same entry
s > 0 on the row of ones, so the restricted points lie on an affine
line (r = 2) or plane (r = 3) of Q^r that misses 0; W is its
direction space.  On a line p + t u every difference is a multiple of
u, so the lexicographic order is the order of t or its reverse: the
least and the greatest column are the segment's ends, its two extreme
points.  In a plane the lexicographic order compares points by the
first coordinate that varies over the plane, and points equal on that
one, which lie on a line, by the first coordinate that varies along
it: the order "by x, then by y" for two independent affine coordinates
x and y of the plane, the sweep order of Andrew's monotone chain (Inf.
Proc. Letters 9(5), 1979).  Its turns are signs of 3 x 3
determinants.  For columns a, b, c, write a = w + s m with w in W and
m a fixed vector off W that the row of ones maps to 1; then det(a, b,
c) = det(a, b - a, c - a) = s det(m, b - a, c - a), and det(m, ., .)
is one orientation of the plane, the same for every triple.  The
other orientation only swaps the chain built in lexicographic order
with the one built in reverse.  Each chain drops its last point while
the next point turns the other way or goes straight on (determinant
<= 0), so a point inside an edge is dropped, and the two chains, less
their last points, are the polygon's vertices.  Both routes take
O(n log n) comparisons of integer tuples and O(n) determinants.

From four pivot rows on, a list E of extreme points found so far
starts with the seeds: the lexicographically greatest column and, on
every row of the (restricted) columns, the lexicographically greatest
of the columns that maximize that row and of those that minimize it.
Each is extreme by the face argument below, with the unit functional
of its row, or its negation, as y; so none needs an LP. Every other
generator is tested against hull(E) only. Inside hull(E), which lies
in the hull of the input, it is not extreme and is dropped. Outside,
it comes with a functional y separating it from hull(E), the LP's
checked Farkas certificate. No coordinate test can separate it: the
seeds hold every row's maximizer and minimizer, so E's range on each
row is the input's (``member`` alone tests the range,
``_range_separation``). The input columns that maximize y span a face
of the input's hull, and the lexicographically greatest of them is
extreme in that face, hence in the hull: a convex combination of
points that are lexicographically at most p, one of them strictly
less, is strictly less than p. Its value under y exceeds every value
on E, so it is new; it joins E and the same generator is tested again.
Each test drops a generator or finds an extreme point, so n generators
with h extreme points take at most n + h tests with at most h columns
each, where testing every generator against all the others takes n
tests with up to n - 1. The extreme points are unique, so the order
the loop visits the generators in does not change its result. After
the elimination, of O(n d r) integer operations at most, the bound is
0 tests for affinely independent input, for points on a segment and
for points in a polygon, and n + h otherwise.

A "yes" can come without an LP.  On full row rank every LP "yes" ends
on a basis of m = r real columns (``exactlp`` drives a leftover
artificial out of it), and ``feasible`` hands that basis back: the
columns of E, by their positions in E, and D * B^-1.  The loop keeps
every basis handed back during the call: keeping only the newest would
leave more tests to the LP.  E only grows, so their columns stay where
they were and each basis stays valid.  Before the next LP a test tries
each, newest first: lambda = (D * B^-1) t, one m x m integer product;
when lambda >= 0 and sum_j lambda_j c_j = D t, the target is the
convex combination lambda / D of E and is dropped with no LP.  This is
the witness re-substitution an LP "yes" passes, so a reused "yes" is
checked as one from the LP is.  Any other test runs the LP as before,
so every "no", and every Farkas certificate, is the one the LP alone
gives.  Only the tests the seeds and the bases do not settle go to
``feasible``.

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
        return (_range_separation(others, target) is None
                and _separation(others, target) is None)
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


def _range_separation(others: Sequence[tuple[int, ...]],
                      target: tuple[int, ...]) -> list[int] | None:
    """A signed unit functional separating ``target`` from the columns
    ``others`` when it is strictly above, or below, all of them on one
    row (a hull member lies within their range there); else None."""
    for r, (t, row) in enumerate(zip(target, zip(*others))):
        above = t > max(row)
        if above or t < min(row):
            y = [0] * len(target)
            y[r] = 1 if above else -1
            return y
    return None


def _separation(others: Sequence[tuple[int, ...]], target: tuple[int, ...],
                bases: list | None = None) -> list[int] | None:
    """None when ``target`` lies in the hull of the nonempty column
    list ``others``, else a functional y with y.target > y.c for every
    c in ``others``.

    Each basis in a ``bases`` list, every one handed back by an earlier
    LP "yes" over a prefix of ``others``, is tried newest first and may
    show the target inside with no LP (``exactlp.basis_solves``).
    Otherwise the LP decides, a "yes" that hands back a basis adds it
    to ``bases``, and a "no" carries its checked Farkas certificate:
    y.c <= 0 < y.target."""
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
    """The indices, ascending, of the extreme points among distinct
    homogenized columns: the rank certificate, then on the pivot rows
    the ends of a segment (rank 2), the monotone chain of a polygon
    (rank 3) or Clarkson's output-sensitive loop (see the module
    docstring)."""
    n = len(columns)
    rows = _pivot_rows(columns)
    if len(rows) == n:
        return list(range(n))
    if len(rows) < len(columns[0]):
        columns = [tuple([c[r] for r in rows]) for c in columns]
    if len(rows) == 2:
        index = range(n)
        return sorted([min(index, key=columns.__getitem__),
                       max(index, key=columns.__getitem__)])
    if len(rows) == 3:
        return _monotone_chain(columns)
    return _clarkson(columns)


def _det3(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    """The determinant of the 3 x 3 integer matrix with columns a, b, c."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _monotone_chain(columns: Sequence[tuple[int, ...]]) -> list[int]:
    """The indices, ascending, of the vertices of the polygon spanned by
    distinct coplanar columns of rank 3 (Andrew's monotone chain, Inf.
    Proc. Letters 9(5), 1979): one chain in lexicographic order, one in
    reverse, each dropping its last point when the next one turns the
    other way or continues straight (see the module docstring)."""
    order = sorted(range(len(columns)), key=columns.__getitem__)
    vertices: list[int] = []
    for sweep in (order, order[::-1]):
        chain: list[int] = []
        for j in sweep:
            while len(chain) >= 2 and _det3(columns[chain[-2]],
                                            columns[chain[-1]],
                                            columns[j]) <= 0:
                chain.pop()
            chain.append(j)
        vertices += chain[:-1]
    return sorted(vertices)


def _clarkson(columns: Sequence[tuple[int, ...]]) -> list[int]:
    """The indices, ascending, of the extreme points among distinct
    homogenized columns of full row rank, by Clarkson's output-sensitive
    loop from the seeds, with every LP basis kept (see the module
    docstring)."""
    n = len(columns)
    extreme = _seeds(columns)
    found = set(extreme)
    # E's columns, in E's order; like ``extreme``, the list only grows.
    hull = [columns[j] for j in extreme]
    # Every LP "yes" basis: positions in ``hull``.
    bases: list = []
    for i in range(n):
        if i in found:
            continue
        target = columns[i]
        while True:
            y = _separation(hull, target, bases)
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
            hull.append(columns[best])
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
# Qplus inputs up to this size are deduped by sorting, larger ones on
# their columns.  Timed by input size on the inputs the benchmark's
# qplus prefixes canonicalize, in two runs of 41 interleaved
# repetitions: the sort wins at 3 generators (a quarter collapse to two
# points, which need no column; 36 and 35 of 41, about 9-11%), the
# columns at 4 (35 and 38 of 41, about 4-5%; 25 of 41 before the planar
# route) and from 5.
_SORT_FIRST_MAX = 3


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
    if len(gens) > _SORT_FIRST_MAX and sr.hull_membership == HULL_EXACT_LP:
        if any(g.semiring is not sr for g in gens):
            sr.refuse_foreign("generator", *sorted(gens, key=_SKEY))
        # Equal generators have equal columns, and integer tuples hash
        # alike under every PYTHONHASHSEED; the first of equal ones stays.
        first: dict = {}
        for i, column in enumerate(_homogenized_columns(gens)):
            first.setdefault(column, i)
        index = list(first.values())
        kept = [gens[index[j]] for j in _extreme_indices(list(first))]
        kept.sort(key=_SKEY)
        return ConvexSet(sr, tuple(kept), _trusted=True)
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

