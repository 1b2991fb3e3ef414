import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexmod import convex, exactlp
from convexmod.cli import _generators_csv
from convexmod.convex import (
    cs_add,
    cs_compare,
    cs_empty,
    cs_equal,
    cs_from_json,
    cs_join_all,
    cs_scale,
    cs_zero,
    extreme_points,
    hull_canonicalize,
    member,
)
from convexmod.errors import ConvexmodError, SemiringMismatchError
from convexmod.exactlp import basis_solves, feasible
from convexmod.freemod import (
    finsupp,
    fs_add,
    fs_map,
    fs_scale,
    fs_unit,
    fs_zero,
)
from convexmod.semiring import BOOL, NAT, QPLUS

from oracles import (
    bool_member_by_subsets,
    bool_member_by_supports,
    canonical_by_fixpoint,
    cs_scale_by_convex_set,
    feasible_by_fraction_simplex,
    fs_scale_by_finsupp,
    qplus_member_by_elimination,
    qplus_member_by_fraction_simplex,
    solve_exact,
)

F = Fraction
SYMS = ["u", "v", "x", "y", "z"]
qscalars = st.fractions(min_value=0, max_value=4, max_denominator=4)
qentries = st.lists(st.tuples(st.sampled_from(SYMS), qscalars), max_size=3)


def qsupp(items):
    return finsupp(QPLUS, items)


def bsupp(symbols):
    return finsupp(BOOL, [(s, 1) for s in symbols])


finsupp_q = qentries.map(qsupp)
small_qset = st.lists(finsupp_q, max_size=3).map(
    lambda gens: hull_canonicalize(gens, QPLUS))
finsupp_b = st.lists(st.sampled_from(SYMS), max_size=3).map(bsupp)
small_bset = st.lists(finsupp_b, max_size=3).map(
    lambda gens: hull_canonicalize(gens, BOOL))
# Few symbols and few values, so generators often tie on a coordinate.
tied_q = st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                            st.sampled_from([F(0), F(1, 2), F(1), F(2)])),
                  max_size=3).map(qsupp)
finsupp_n = st.lists(st.tuples(st.sampled_from(SYMS), st.integers(0, 3)),
                     max_size=3).map(lambda items: finsupp(NAT, items))
FINSUPP = {"qplus": finsupp_q, "bool": finsupp_b, "nat": finsupp_n}
# Membership in the hull of a raw generator list, nat's by lookup.
ORACLE_MEMBER = {"qplus": qplus_member_by_elimination,
                 "bool": bool_member_by_supports,
                 "nat": lambda gens, phi: phi in gens}


@st.composite
def padded_generators(draw, sr, base=None):
    """Random generators (drawn from ``base``, by default the
    semiring's) plus convex combinations of them, shuffled: every
    combination is redundant, and so may be some generators."""
    if base is None:
        base = finsupp_q if sr is QPLUS else finsupp_b
    gens = draw(st.lists(base, min_size=1, max_size=5))
    padded = list(gens)
    for _ in range(draw(st.integers(0, 3))):
        picks = draw(st.lists(st.sampled_from(gens), min_size=1,
                              max_size=3))
        if sr is QPLUS:
            weights = [draw(st.fractions(min_value=F(1, 4), max_value=2,
                                         max_denominator=4))
                       for _ in picks]
            total = sum(weights)
            combo = fs_zero(QPLUS)
            for w, g in zip(weights, picks):
                combo = fs_add(combo, fs_scale(w / total, g))
        else:
            # Over bool a convex combination is a join.
            combo = picks[0]
            for g in picks[1:]:
                combo = fs_add(combo, g)
        padded.append(combo)
    return draw(st.permutations(padded))


class TestMembership:
    def test_combination_of_two_generators(self):
        phi1 = qsupp([("x", 1), ("y", 2)])
        phi2 = qsupp([("x", 1), ("z", 2)])
        A = hull_canonicalize([phi1, phi2], QPLUS)
        assert member(A, qsupp([("x", 1), ("y", 1), ("z", 1)]))

    def test_generators_are_members(self):
        phi1 = qsupp([("x", 1), ("y", 2)])
        phi2 = qsupp([("y", 1), ("z", 2)])
        A = hull_canonicalize([phi1, phi2], QPLUS)
        assert member(A, phi1)
        assert member(A, phi2)

    def test_nonmember(self):
        phi1 = qsupp([("x", 1), ("y", 2)])
        phi2 = qsupp([("y", 1), ("z", 2)])
        A = hull_canonicalize([phi1, phi2], QPLUS)
        assert not member(A, qsupp([("x", 1), ("y", 1)]))

    def test_bool_join_of_singletons(self):
        A = hull_canonicalize([bsupp(["p"]), bsupp(["q"])], BOOL)
        assert member(A, bsupp(["p", "q"]))
        assert not member(A, bsupp(["p", "r"]))

    def test_empty_set_has_no_members(self):
        assert not member(cs_empty(QPLUS), fs_zero(QPLUS))

    def test_nat_membership_is_literal(self):
        g = finsupp(NAT, [("x", 1)])
        h = finsupp(NAT, [("x", 2)])
        A = hull_canonicalize([g, h], NAT)
        assert member(A, g)
        assert not member(A, finsupp(NAT, [("x", 1), ("y", 1)]))

    def test_semiring_mismatch_rejected(self):
        with pytest.raises(SemiringMismatchError):
            member(cs_zero(QPLUS), bsupp(["x"]))

    @given(st.lists(finsupp_b, min_size=1, max_size=4), finsupp_b)
    def test_bool_agrees_with_subset_oracle(self, gens, phi):
        A = hull_canonicalize(gens, BOOL)
        expected = bool_member_by_subsets(
            [frozenset(g.support()) for g in gens],
            frozenset(phi.support()))
        assert member(A, phi) == expected

    @given(small_qset, finsupp_q, finsupp_q,
           st.fractions(min_value=0, max_value=1, max_denominator=4))
    def test_hulls_closed_under_combination(self, A, p, q, w):
        if not (member(A, p) and member(A, q)):
            return
        mix = finsupp(QPLUS, list(fs_scale(w, p).items())
                      + list(fs_scale(1 - w, q).items()))
        assert member(A, mix)


class TestCanonicalization:
    def test_midpoint_removed(self):
        g1 = qsupp([("x", 1)])
        g2 = qsupp([("y", 1)])
        mid = qsupp([("x", F(1, 2)), ("y", F(1, 2))])
        A = hull_canonicalize([g1, g2, mid])
        assert A.generators == (g1, g2)

    def test_nat_only_deduplicates(self):
        g = finsupp(NAT, [("x", 1)])
        h = finsupp(NAT, [("x", 1), ("y", 1)])
        A = hull_canonicalize([g, h, g])
        assert A.generators == (g, h)

    def test_bool_join_removed(self):
        A = hull_canonicalize([bsupp(["p"]), bsupp(["q"]),
                               bsupp(["p", "q"])])
        assert A.generators == (bsupp(["p"]), bsupp(["q"]))

    def test_idempotent(self):
        gens = [qsupp([("x", 1)]), qsupp([("x", 3)]), qsupp([("x", 2)])]
        A = hull_canonicalize(gens)
        B = hull_canonicalize(list(A.generators))
        assert A == B

    @given(st.lists(finsupp_q, min_size=1, max_size=4), st.integers(0, 5))
    def test_order_independence(self, gens, seed):
        shuffled = list(gens)
        random.Random(seed).shuffle(shuffled)
        assert hull_canonicalize(gens) == hull_canonicalize(shuffled)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_qplus_form_ignores_order_and_repeats(self, data):
        # Up to 8 generators, and up to 16 with the repeats: inputs on
        # both sides of the size that picks the dedup route.
        gens = data.draw(padded_generators(QPLUS, tied_q))
        shuffled = data.draw(st.permutations(gens))
        extra = data.draw(st.lists(st.sampled_from(gens), min_size=1,
                                   max_size=8))
        repeated = data.draw(st.permutations(gens + extra))
        form = hull_canonicalize(gens, QPLUS).generators
        assert hull_canonicalize(shuffled, QPLUS).generators == form
        assert hull_canonicalize(repeated, QPLUS).generators == form
        assert form == canonical_by_fixpoint(gens,
                                             qplus_member_by_elimination)

    @given(small_qset)
    def test_idempotence_random(self, A):
        assert hull_canonicalize(list(A.generators), QPLUS) == A

    @pytest.mark.parametrize("sr", [QPLUS, BOOL], ids=["qplus", "bool"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_pass_matches_fixpoint(self, sr, data):
        gens = data.draw(padded_generators(sr))
        reference = canonical_by_fixpoint(gens, ORACLE_MEMBER[sr.id])
        assert hull_canonicalize(gens, sr).generators == reference

    @pytest.mark.parametrize("sr", [QPLUS, BOOL, NAT],
                             ids=["qplus", "bool", "nat"])
    @given(data=st.data())
    def test_no_canonical_generator_redundant(self, sr, data):
        """Each canonical generator lies outside the hull of the
        others, by the membership oracles on the raw generators, and
        each dropped generator lies inside the canonical hull."""
        gens = data.draw(st.lists(FINSUPP[sr.id], max_size=4))
        A = hull_canonicalize(gens, sr)
        oracle = ORACLE_MEMBER[sr.id]
        for i, g in enumerate(A.generators):
            rest = A.generators[:i] + A.generators[i + 1:]
            if rest:
                assert not oracle(rest, g)
        for g in gens:
            if g not in A.generators:
                assert member(A, g)


def _counting_feasible(calls):
    def counted(system, certificate=None, basis=None):
        calls.append(system)
        return feasible(system, certificate, basis)
    return counted


def _fraction_system(gens, rest, i):
    """gens[i] in hull(gens[j] for j in rest) as a ``(columns, target)``
    pair over the generators' own Fraction values, unscaled."""
    keys = sorted({k for g in gens for k in g.support()})

    def column(g):
        return tuple(g.value(k) for k in keys) + (F(1),)
    return [column(gens[j]) for j in rest], column(gens[i])


class TestCoordinateSeparation:
    """Over qplus ``member`` answers "no" without an LP when one
    coordinate of the tested value is strictly above, or strictly
    below, that of every generator."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_lp_free_answer_is_infeasible(self, data):
        gens = list(data.draw(padded_generators(QPLUS, tied_q)))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convex, "feasible", _counting_feasible(calls))
            columns = convex._homogenized_columns(gens)
            for i in range(len(gens)):
                others = [j for j in range(len(gens)) if j != i]
                if not others:
                    continue
                rest = data.draw(st.lists(st.sampled_from(others),
                                          min_size=1, unique=True))
                y = convex._range_separation([columns[j] for j in rest],
                                             columns[i])
                assert calls == []
                if y is not None:
                    value = sum(map(mul, y, columns[i]))
                    assert all(sum(map(mul, y, columns[j])) < value
                               for j in rest)
                    assert feasible_by_fraction_simplex(
                        *_fraction_system(gens, rest, i)) is None
            reference = canonical_by_fixpoint(gens,
                                              qplus_member_by_elimination)
            assert hull_canonicalize(gens, QPLUS).generators == reference

    def test_separated_generators_need_no_lp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(convex, "feasible", _counting_feasible(calls))
        # The simplex is affinely independent.  With the rank
        # certificate off (every row reads as a pivot row, more rows than
        # the 5 points), the seeds settle it: each point is the greatest
        # on its own coordinate.
        simplex = [qsupp([(s, 1)]) for s in SYMS]
        two = [qsupp([("x", 1), ("y", 2)]), qsupp([("x", 3)])]
        with monkeypatch.context() as mp:
            mp.setattr(convex, "_pivot_rows",
                       lambda columns: list(range(len(columns[0]))))
            assert (hull_canonicalize(simplex).generators
                    == tuple(sorted(simplex)))
            assert hull_canonicalize(two).generators == tuple(sorted(two))
        # Above every generator on x: outside, by the coordinate test.
        assert not member(hull_canonicalize(simplex), qsupp([("x", 2)]))
        assert calls == []
        # A midpoint of a segment: the ends of the segment, no LP.
        mid = qsupp([("x", F(1, 2)), ("y", F(1, 2))])
        segment = hull_canonicalize([simplex[2], simplex[3], mid])
        assert segment.generators == (simplex[2], simplex[3])
        assert calls == []
        # The centroid of four corners spanning three coordinates ties
        # nowhere strictly, so only the LP removes it.
        centroid = qsupp([(s, F(1, 4)) for s in SYMS[:4]])
        tetrahedron = hull_canonicalize(simplex[:4] + [centroid])
        assert tetrahedron.generators == tuple(sorted(simplex[:4]))
        assert calls


def _lexmax_seed(columns):
    """E seeded with the lexicographic maximum alone, so the loop finds
    every other extreme point itself."""
    return [max(range(len(columns)), key=columns.__getitem__)]


def _xyz(points):
    return [qsupp(list(zip("xyz", p))) for p in points]


class TestBasisReuse:
    """The Clarkson loop keeps the basis of its last LP "yes" and tries
    it on each later target before an LP: a target it solves, by the
    witness re-substitution, is dropped with no LP."""

    # Four affinely independent corners and six points inside: n = 10
    # > d + 1 = 4, so the independence certificate does not settle it.
    TETRAHEDRON = [(0, 0, 0), (2, 2, 2), (1, 0, 2), (2, 1, 0)]
    PADDING = [(1, 1, 1), (F(5, 4), F(3, 4), 1), (1, F(1, 2), F(1, 2)),
               (F(3, 2), F(3, 2), F(3, 2)), (F(3, 4), F(1, 2), F(3, 4)),
               (F(3, 2), 1, F(1, 2))]

    def test_padded_tetrahedron_needs_four_lps(self, monkeypatch):
        gens = _xyz(self.TETRAHEDRON + self.PADDING)
        calls = []
        monkeypatch.setattr(convex, "feasible", _counting_feasible(calls))
        monkeypatch.setattr(convex, "_seeds", _lexmax_seed)
        A = hull_canonicalize(gens, QPLUS)
        assert A.generators == tuple(sorted(_xyz(self.TETRAHEDRON)))
        # The loop takes the corners first, in the order given: three LP
        # "no"s find the three corners besides the seed, and the one LP
        # "yes" hands back a basis of all four, which then settles the
        # other five inside points.
        assert [len(system.columns) for system in calls] == [1, 2, 3, 4]
        calls.clear()
        monkeypatch.setattr(convex, "basis_solves", lambda *args: False)
        assert hull_canonicalize(gens, QPLUS) == A
        assert ([len(system.columns) for system in calls]
                == [1, 2, 3] + [4] * 6)

    def test_seeded_tetrahedron_needs_one_lp(self, monkeypatch):
        # Each corner maximizes or minimizes a coordinate, so E starts
        # with all four; one LP "yes" hands back their basis, which
        # settles the other five inside points.
        gens = _xyz(self.TETRAHEDRON + self.PADDING)
        calls = []
        monkeypatch.setattr(convex, "feasible", _counting_feasible(calls))
        A = hull_canonicalize(gens, QPLUS)
        assert A.generators == tuple(sorted(_xyz(self.TETRAHEDRON)))
        assert [len(system.columns) for system in calls] == [4]
        calls.clear()
        monkeypatch.setattr(convex, "basis_solves", lambda *args: False)
        assert hull_canonicalize(gens, QPLUS) == A
        assert [len(system.columns) for system in calls] == [4] * 6

    def test_a_tie_seeds_its_lexicographic_maximum(self, monkeypatch):
        # The first three points minimize z.  The midpoint (1, 1, 0)
        # sorts first of them as a value, but only the lexicographically
        # greatest, (2, 0, 0), is a seed: the midpoint is no vertex.  The
        # other corners are seeds too, and the one LP, a "yes", drops it.
        gens = _xyz([(0, 2, 0), (1, 1, 0), (2, 0, 0), (0, 0, 3), (2, 2, 1)])
        assert gens[1] == min(gens[:3])
        calls = []
        monkeypatch.setattr(convex, "feasible", _counting_feasible(calls))
        A = hull_canonicalize(gens, QPLUS)
        assert A.generators == tuple(sorted(gens[:1] + gens[2:]))
        assert len(calls) == 1

    def test_tampered_inverse_is_refused(self, monkeypatch):
        # Raising the ones-row entry of the first row of each handed-back
        # D * B^-1 makes that weight positive for every target; here the
        # other weights then pass for an extreme point too, so only the
        # re-substitution keeps it from being dropped.
        gens = _xyz([(0, 2, 1), (0, 3, 1), (2, 1, 1), (2, 1, 3), (2, 3, 1),
                     (3, 2, 0), (3, 3, 1)])
        tampered = []

        def tampering(system, certificate=None, basis=None):
            witness = feasible(system, certificate, basis)
            if basis:
                basis[1][0][-1] += 10 ** 6
                tampered.append(system)
            return witness
        monkeypatch.setattr(convex, "feasible", tampering)
        assert hull_canonicalize(gens, QPLUS).generators == (
            canonical_by_fixpoint(gens, qplus_member_by_elimination))
        assert tampered


@st.composite
def flat_padded_generators(draw):
    """Collinear or coplanar points in 3-5 coordinates, padded with
    convex combinations of them and shuffled: their homogenized columns
    have rank 2 or 3, below the row count.  Points lie at p + s u + t v
    for a base point p far enough from 0 that every coordinate stays
    nonnegative."""
    dim = draw(st.integers(3, 5))
    flat = draw(st.integers(1, 2))
    base = draw(st.lists(st.integers(4, 6), min_size=dim, max_size=dim))
    directions = draw(st.lists(
        st.lists(st.integers(-1, 1), min_size=dim, max_size=dim),
        min_size=flat, max_size=flat))
    steps = st.fractions(min_value=0, max_value=2, max_denominator=3)
    points = []
    for _ in range(draw(st.integers(2, 7))):
        ts = draw(st.lists(steps, min_size=flat, max_size=flat))
        points.append([b + sum(t * d[i] for t, d in zip(ts, directions))
                       for i, b in enumerate(base)])
    gens = [qsupp(list(zip(SYMS, p))) for p in points]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    padded = list(gens)
    for _ in range(draw(st.integers(0, 8))):
        picks = rng.choices(gens, k=rng.randint(2, 3))
        weights = [F(rng.randint(1, 4)) for _ in picks]
        combo = fs_zero(QPLUS)
        for w, g in zip(weights, picks):
            combo = fs_add(combo, fs_scale(w / sum(weights), g))
        padded.append(combo)
    rng.shuffle(padded)
    return padded


def _padded_combinations(corners, count):
    """``count`` points strictly inside the simplex of ``corners``,
    each a convex combination with positive weights."""
    points = []
    for k in range(count):
        weights = [F(k % 3 + 1), F(k % 5 + 1), F(k % 4 + 1)][:len(corners)]
        total = sum(weights)
        points.append(tuple(sum(w * c[i] for w, c in zip(weights, corners))
                            / total for i in range(len(corners[0]))))
    return points


class TestPivotRows:
    """Over qplus the extreme points are found on the pivot rows of the
    homogenized columns: the other rows are the same linear combination
    of those in every column, so every answer stands.  Two or three
    pivot rows make a segment or a polygon, settled with no LP; on more
    the Clarkson loop's system has full row rank, so an LP "yes" can
    hand back a basis of real columns.  Each basis handed back during a
    call is kept."""

    def test_padded_segment_needs_no_lp(self, monkeypatch):
        # Two ends and 20 points on the segment between them, in 3
        # coordinates: rank 2 of 4 rows.
        ends = [(0, 1, 2), (3, 1, F(1, 2))]
        inside = [tuple(a + F(k, 21) * (b - a) for a, b in zip(*ends))
                  for k in range(1, 21)]
        calls = []
        monkeypatch.setattr(convex, "feasible", _counting_feasible(calls))
        A = hull_canonicalize(_xyz(inside[:10] + ends + inside[10:]), QPLUS)
        assert A.generators == tuple(sorted(_xyz(ends)))
        assert calls == []

    def test_padded_triangle_needs_no_lp(self, monkeypatch):
        # Three corners and 15 points inside, in the plane x + y + z = 2:
        # rank 3 of 4 rows.
        corners = [(0, 0, 2), (2, 0, 0), (0, 2, 0)]
        inside = _padded_combinations(corners, 15)
        calls = []
        monkeypatch.setattr(convex, "feasible", _counting_feasible(calls))
        A = hull_canonicalize(_xyz(inside + corners), QPLUS)
        assert A.generators == tuple(sorted(_xyz(corners)))
        assert calls == []

    def test_an_older_basis_settles_a_later_target(self, monkeypatch):
        # The cube's corners and three points inside: two LP "yes"
        # answers hand back two tetrahedra of corners, and the older one
        # holds a later point the newer one does not.
        cube = list(itertools.product([0, 4], repeat=3))
        inside = [(1, 3, 3), (F(1, 3), F(7, 3), 3), (F(11, 3), 3, F(10, 3))]
        handed = []

        def recording(system, certificate=None, basis=None):
            witness = feasible(system, certificate, basis)
            if basis:
                handed.append(basis)
            return witness
        settled_by = []

        def counting_basis_solves(columns, target, basis):
            solved = basis_solves(columns, target, basis)
            if solved:
                settled_by.append(handed.index(basis))
            return solved
        monkeypatch.setattr(convex, "feasible", recording)
        monkeypatch.setattr(convex, "basis_solves", counting_basis_solves)
        corners = _xyz(cube)
        # The loop tests the points in the order given: here the sorted
        # one, where the two LPs come before the point only the older
        # basis holds.
        gens = sorted(corners + _xyz(inside))
        A = hull_canonicalize(gens, QPLUS)
        assert A.generators == tuple(sorted(corners))
        assert len(handed) == 2
        assert 0 in settled_by

    @settings(max_examples=100, deadline=None)
    @given(flat_padded_generators())
    def test_flat_inputs_match_fixpoint(self, gens):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convex, "feasible", _counting_feasible(calls))
            A = hull_canonicalize(gens, QPLUS)
        assert A.generators == canonical_by_fixpoint(
            gens, qplus_member_by_elimination)
        # Points on a line or in a plane are settled with no LP.
        assert calls == []


@st.composite
def planar_points(draw):
    """At least three distinct integer points on a line or in a plane in
    2-6 coordinates, shuffled: p + s u + t v for steps s, t in 0..3, so
    several lie on one line, and with directions drawn from -1, 0 and 1,
    so points often tie on their first coordinates.  The base point
    keeps every coordinate nonnegative."""
    dim = draw(st.integers(2, 6))
    flat = draw(st.integers(1, 2))
    base = draw(st.lists(st.integers(6, 8), min_size=dim, max_size=dim))
    directions = draw(st.lists(
        st.lists(st.integers(-1, 1), min_size=dim, max_size=dim),
        min_size=flat, max_size=flat))
    steps = draw(st.lists(st.lists(st.integers(0, 3), min_size=flat,
                                   max_size=flat), min_size=3, max_size=12))
    points = {tuple(b + sum(t * d[i] for t, d in zip(ts, directions))
                    for i, b in enumerate(base)): None for ts in steps}
    assume(len(points) >= 3)
    return draw(st.permutations(list(points)))


class TestPlanarRoute:
    """Columns of rank 2 or 3 lie on a segment or in a polygon: the
    segment's lexicographic ends, or the monotone chain's vertices,
    are the extreme points the Clarkson loop finds, with no LP."""

    @settings(max_examples=150, deadline=None)
    @given(planar_points(), st.sampled_from([1, 2, 6]))
    def test_matches_the_loop_and_fixpoint(self, points, scale):
        columns = [tuple(scale * v for v in p) + (scale,) for p in points]
        rows = convex._pivot_rows(columns)
        assume(len(rows) < len(columns))
        assert len(rows) in (2, 3)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convex, "feasible", _counting_feasible(calls))
            extreme = convex._extreme_indices(columns)
        assert calls == []
        assert extreme == convex._clarkson(
            [tuple([c[r] for r in rows]) for c in columns])
        gens = [qsupp([(k, F(v, scale)) for k, v in zip("abcdef", p)])
                for p in points]
        assert hull_canonicalize(gens, QPLUS).generators == (
            canonical_by_fixpoint(gens, qplus_member_by_elimination))


@st.composite
def wide_padded_generators(draw):
    """Up to 8 points in 1-4 coordinates, padded with up to 52 convex
    combinations of them (some on edges and faces, most inside), and
    shuffled."""
    syms = SYMS[:draw(st.integers(1, 4))]
    # Few values, so points tie on coordinates and lie on faces.
    coord = st.one_of(st.sampled_from([F(0), F(1, 2), F(1), F(2)]),
                      st.fractions(min_value=0, max_value=3,
                                   max_denominator=3))
    points = draw(st.lists(st.lists(coord, min_size=len(syms),
                                    max_size=len(syms)),
                           min_size=1, max_size=8))
    gens = [qsupp(list(zip(syms, p))) for p in points]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    padded = list(gens)
    for _ in range(draw(st.integers(0, 52))):
        picks = rng.choices(gens, k=rng.randint(1, 3))
        weights = [F(rng.randint(1, 4)) for _ in picks]
        combo = fs_zero(QPLUS)
        for w, g in zip(weights, picks):
            combo = fs_add(combo, fs_scale(w / sum(weights), g))
        padded.append(combo)
    rng.shuffle(padded)
    return padded


def _assert_output_sensitive(gens, calls, extreme):
    """At most n + h LP solves, each with at most h columns, for n
    distinct generators with h extreme points."""
    n, h = len(set(gens)), len(extreme)
    assert len(calls) <= n + h
    assert all(len(system.columns) <= h for system in calls)


class TestOutputSensitive:
    """Over qplus each generator is tested against the extreme points
    found so far, never against all the others."""

    @settings(max_examples=50, deadline=None)
    @given(wide_padded_generators())
    def test_matches_fixpoint_on_wide_inputs(self, gens):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convex, "feasible", _counting_feasible(calls))
            A = hull_canonicalize(gens, QPLUS)
        assert A.generators == canonical_by_fixpoint(
            gens, qplus_member_by_fraction_simplex)
        _assert_output_sensitive(gens, calls, A.generators)

    def test_tie_goes_to_the_lexicographic_maximum(self):
        # The functional v is maximal on the whole top edge, whose
        # first generator in sorted order, (1/2, 1/2), is not extreme.
        trapezoid = [qsupp([("u", 2)]), qsupp([]), qsupp([("v", F(1, 2))]),
                     qsupp([("u", 1), ("v", F(1, 2))])]
        edge = qsupp([("u", F(1, 2)), ("v", F(1, 2))])
        assert (hull_canonicalize(trapezoid + [edge]).generators
                == tuple(sorted(trapezoid)))
        # The points lie in a plane, where the monotone chain answers;
        # the loop, on the same columns of full row rank, agrees.
        gens = sorted(trapezoid + [edge])
        columns = convex._homogenized_columns(gens)
        assert ([gens[j] for j in convex._clarkson(columns)]
                == sorted(trapezoid))

    def test_cube_with_interior_points(self, monkeypatch):
        corners = [qsupp(list(zip("xyz", c)))
                   for c in itertools.product([0, 2], repeat=3)]
        inside = [qsupp(list(zip("xyz", (F(k % 5 + 1, 3), F(k % 4 + 1, 3),
                                         F(k % 3 + 1, 3)))))
                  for k in range(30)]
        gens = inside[:15] + corners + inside[15:]
        calls = []
        monkeypatch.setattr(convex, "feasible", _counting_feasible(calls))
        solved = []

        def counting_basis_solves(columns, target, basis):
            solved.append(basis_solves(columns, target, basis))
            return solved[-1]
        monkeypatch.setattr(convex, "basis_solves", counting_basis_solves)
        A = hull_canonicalize(gens, QPLUS)
        assert A.generators == tuple(sorted(corners))
        # Every interior point needs a checked "yes" to be dropped: an
        # LP witness, or the last LP basis re-substituted.
        assert len(calls) + sum(solved) >= len(set(inside))
        assert any(solved)
        _assert_output_sensitive(gens, calls, A.generators)


# Keys for the certificate tests: symbols, or inner weightings nested
# one level down (the zero weighting among them).
INNER_KEYS = [qsupp([("x", 1)]), qsupp([("x", 1), ("y", F(1, 2))]),
              qsupp([]), qsupp([("z", 3)])]
few_values = st.sampled_from([F(0), F(1, 2), F(1), F(2), F(3)])


@st.composite
def few_points(draw):
    """At most d + 1 distinct qplus points spanning d coordinates:
    random points (often affinely independent), a collinear triple, or
    a coplanar quadruple, maybe with the zero weighting, keyed by
    symbols or by nested weightings.  Collinear and coplanar points get
    one coordinate shared by all of them, which keeps them in a line or
    plane and makes d + 1 reach their count."""
    keys = draw(st.sampled_from([SYMS, INNER_KEYS]))
    shape = draw(st.sampled_from(["random", "collinear", "coplanar"]))
    if shape == "random":
        dim = draw(st.integers(1, 4))
        points = draw(st.lists(st.lists(few_values, min_size=dim,
                                        max_size=dim),
                               min_size=2, max_size=dim + 1))
    elif shape == "collinear":
        p, q = draw(st.lists(st.tuples(few_values, few_values), min_size=2,
                             max_size=2, unique=True))
        t = draw(st.sampled_from([F(1, 3), F(1, 2), F(3, 4)]))
        points = [p, q, tuple(a + t * (b - a) for a, b in zip(p, q))]
    else:
        points = draw(st.lists(st.tuples(few_values, few_values),
                               min_size=4, max_size=4))
    if shape != "random":
        shared = draw(st.sampled_from([F(1), F(5, 2)]))
        points = [tuple(pt) + (shared,) for pt in points]
    gens = [qsupp(list(zip(keys, pt))) for pt in points]
    if draw(st.booleans()):
        gens.append(fs_zero(QPLUS))
    support = {k for g in gens for k in g.support()}
    return draw(st.permutations(sorted(set(gens))[:len(support) + 1]))


def _independent_by_fractions(vectors):
    """The vectors are independent iff the homogeneous system with
    them as columns has only the zero solution."""
    rows = [list(map(F, row)) for row in zip(*vectors)]
    return solve_exact(rows, [F(0)] * len(rows)) != "many"


def _pivot_rows_by_fractions(vectors):
    """The pivot coordinates of Gauss-Jordan elimination over
    Fractions, with the vectors as rows: a coordinate is one exactly
    when its column is independent of the columns before it."""
    rows = [list(map(F, v)) for v in vectors]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        for i, row in enumerate(rows):
            if i != k and row[c]:
                f = row[c] / rows[k][c]
                rows[i] = [a - f * b for a, b in zip(row, rows[k])]
        pivots.append(c)
    return pivots


class TestIndependenceCertificate:
    """Over qplus, n <= d + 1 points whose homogenized columns are
    linearly independent are affinely independent, so all extreme:
    ``hull_canonicalize`` keeps them all with no separation test and no
    LP.  Dependent inputs go on to the Clarkson loop."""

    @settings(max_examples=200, deadline=None)
    @given(few_points())
    def test_matches_fixpoint(self, gens):
        assert hull_canonicalize(gens, QPLUS).generators == (
            canonical_by_fixpoint(gens, qplus_member_by_elimination))

    def test_simplices_need_no_lp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(convex, "feasible", _counting_feasible(calls))
        # Each has a point inside the others' coordinate ranges, which
        # only an LP would separate.
        triangle = [qsupp(list(zip("xy", c)))
                    for c in [(0, 0), (2, 2), (1, 0)]]
        tetrahedron = [qsupp(list(zip("xyz", c)))
                       for c in [(0, 0, 0), (2, 2, 2), (1, 0, 2), (2, 1, 0)]]
        for simplex in (triangle, tetrahedron):
            assert (hull_canonicalize(simplex, QPLUS).generators
                    == tuple(sorted(simplex)))
        assert calls == []
        # Dependent points on a segment are settled with no LP too; in
        # all three coordinates only the LP drops the inside point.
        collinear = triangle[:2] + [qsupp([("x", 1), ("y", 1)])]
        assert (hull_canonicalize(collinear, QPLUS).generators
                == tuple(sorted(triangle[:2])))
        assert calls == []
        inside = qsupp([("x", 1), ("y", 1), ("z", 1)])
        assert (hull_canonicalize(tetrahedron + [inside], QPLUS).generators
                == tuple(sorted(tetrahedron)))
        assert calls

    @pytest.mark.parametrize("vectors, independent", [
        # no vector is nonzero at the first coordinate: skipped
        ([(0, 1, 0), (0, 0, 1)], True),
        ([(0, 1, 2), (0, 2, 4)], False),
        # the first pivot position holds 0 until a row swap, after which
        # the third row eliminates to zero (it is the sum of the others)
        ([(0, 1, 1), (1, 0, 1), (1, 1, 2)], False),
        ([(0, 1, 1), (1, 0, 1), (1, 1, 3)], True),
        # more vectors than coordinates left for pivots
        ([(1, 0), (0, 1), (1, 1)], False),
        ([(2, 4, 6, 2), (3, 6, 9, 3)], False),
    ], ids=["zero_column", "zero_column_dependent", "swap_dependent",
            "swap_independent", "too_many", "proportional"])
    def test_elimination_cases(self, vectors, independent):
        pivots = convex._pivot_rows(vectors)
        assert (len(pivots) == len(vectors)) is independent
        assert _independent_by_fractions(vectors) is independent
        assert pivots == _pivot_rows_by_fractions(vectors)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda width: st.lists(
        st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 12]), min_size=width,
                 max_size=width), min_size=1, max_size=width)))
    def test_elimination_matches_fractions(self, vectors):
        """The floor divisions of the fraction-free elimination are
        exact, so it agrees with elimination over Fractions: the same
        pivot rows, as many as the vectors exactly when they are
        independent."""
        pivots = convex._pivot_rows(vectors)
        assert pivots == _pivot_rows_by_fractions(vectors)
        assert ((len(pivots) == len(vectors))
                == _independent_by_fractions(vectors))


class TestHashContract:
    """Every ConvexSet is canonical, so ``==`` and ``hash`` are set
    equality; the hash reads the generators' cached hashes, ``_skey``
    decides equality."""

    @pytest.mark.parametrize("sr", [QPLUS, BOOL, NAT],
                             ids=["qplus", "bool", "nat"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_equality_is_set_equality(self, sr, data):
        gens = FINSUPP[sr.id]
        g1 = data.draw(st.lists(gens, max_size=4) if sr is NAT
                       else padded_generators(sr, gens))
        oracle = ORACLE_MEMBER[sr.id]
        if data.draw(st.booleans()):
            # the same hull from its extreme points, by the oracle,
            # shuffled, and maybe one more of the generators
            g2 = data.draw(st.permutations(
                list(canonical_by_fixpoint(g1, oracle)) + g1[:1]))
        else:
            g2 = data.draw(st.lists(gens, max_size=4))
        A, B = hull_canonicalize(g1, sr), hull_canonicalize(g2, sr)
        mutual = (all(oracle(g2, g) for g in g1)
                  and all(oracle(g1, g) for g in g2))
        assert (A == B) == (cs_compare(A, B) is None) == mutual
        if A == B:
            assert hash(A) == hash(B) and len({A, B}) == 1

    def test_equal_generators_dedup_to_the_first(self):
        """Equal values built twice, and from an int and a Fraction
        scalar, dedup to one generator: the first given, as a set
        would keep."""
        first = qsupp([("x", 1), ("y", F(1, 2))])
        again = qsupp([("y", F(1, 2)), ("x", F(2, 2))])
        assert again is not first and again == first
        A = hull_canonicalize([first, qsupp([("z", 1)]), again], QPLUS)
        assert A.generators[0] is first and len(A.generators) == 2
        # Five generators and more are deduped on their columns.
        others = [qsupp([("z", 1)]), qsupp([("y", 3)]), qsupp([("z", 3)])]
        A = hull_canonicalize([first, *others, again], QPLUS)
        assert A.generators[0] is first and len(A.generators) == 4

    @pytest.mark.parametrize("gens, sr, message", [
        ([qsupp([("x", 1)]), bsupp(["x"])], None,
         "generator over bool in a qplus set"),
        ([qsupp([("x", k)]) for k in range(5)]
         + [finsupp(NAT, [("x", 2)]), bsupp(["x"])], None,
         "generator over bool in a qplus set"),
        ([bsupp(["x"]), qsupp([("x", 1)]), bsupp(["y"])], None,
         "generator over qplus in a bool set"),
        ([finsupp(NAT, [("x", 2)]), qsupp([])], BOOL,
         "generator over nat in a bool set"),
    ], ids=["qplus_first", "qplus_columns", "bool_first",
            "explicit_semiring"])
    def test_mixed_semirings_refused(self, gens, sr, message):
        with pytest.raises(SemiringMismatchError) as exc:
            hull_canonicalize(gens, sr)
        assert str(exc.value) == message

    def test_dropped_minkowski_sums_never_hash(self, monkeypatch):
        sums = []

        def recorded(a, b):
            sums.append(fs_add(a, b))
            return sums[-1]
        monkeypatch.setattr(convex, "fs_add", recorded)
        square = hull_canonicalize(
            [qsupp(list(zip("xy", c)))
             for c in [(0, 0), (1, 0), (0, 1), (1, 1)]], QPLUS)
        total = cs_add(square, square)
        dropped = [g for g in sums
                   if not any(g is h for h in total.generators)]
        # 16 sums, 9 distinct, 4 extreme
        assert len(sums) == 16 and len(dropped) == 12
        assert not any(hasattr(g, "_hash") for g in sums)

    def test_redundant_keys_merge(self):
        x, y = qsupp([("x", 1)]), qsupp([("y", 1)])
        mid = qsupp([("x", F(1, 2)), ("y", F(1, 2))])
        raw = hull_canonicalize([x, y, mid], QPLUS)
        lean = hull_canonicalize([x, y], QPLUS)
        fam = finsupp(QPLUS, [(raw, 1), (lean, 1)])
        assert fam.entries == ((lean, 2),)

    @given(st.lists(st.tuples(st.sampled_from(SYMS), st.integers(0, 3)),
                    min_size=1, max_size=3))
    def test_int_and_fraction_generators(self, items):
        a = hull_canonicalize([qsupp(items)], QPLUS)
        b = hull_canonicalize(
            [qsupp([(k, F(2 * v, 2)) for k, v in items])], QPLUS)
        assert a == b and hash(a) == hash(b)

    @settings(deadline=None)
    @given(data=st.data())
    def test_convex_set_keys_nested(self, data):
        gens = data.draw(padded_generators(QPLUS))
        A = hull_canonicalize(gens, QPLUS)
        B = hull_canonicalize(reversed(A.generators), QPLUS)
        w = data.draw(st.fractions(min_value=F(1, 4), max_value=3,
                                   max_denominator=4))
        fa = finsupp(QPLUS, [(A, w), ((A, "x"), 1)])
        fb = finsupp(QPLUS, [((B, "x"), F(1, 2)), (B, w), ((B, "x"), F(1, 2))])
        assert fa == fb and hash(fa) == hash(fb)
        # a set of weightings over sets, one level further up
        outer_a = hull_canonicalize([fa, fa], QPLUS)
        outer_b = hull_canonicalize([fb], QPLUS)
        assert outer_a == outer_b and hash(outer_a) == hash(outer_b)
        assert len({A, B}) == 1 and len({outer_a, outer_b}) == 1


# Scalars per semiring, zero included; bool also takes Python bools.
SCALARS = {
    "bool": st.sampled_from([0, 1, False, True]),
    "qplus": st.one_of(st.integers(0, 3),
                       st.fractions(min_value=0, max_value=4,
                                    max_denominator=4)),
    "nat": st.integers(0, 4),
}


@st.composite
def nested_values(draw, sr, depth=1):
    """A FinSupp over ``sr`` keyed by symbols and, above depth 0, by
    FinSupp and ConvexSet values and tuples holding them."""
    keys = st.sampled_from(SYMS)
    if depth > 0:
        inner = nested_values(sr, depth - 1)
        keys = st.one_of(keys, inner, nested_sets(sr, depth - 1),
                         st.tuples(inner, st.sampled_from(SYMS)))
    return finsupp(sr, draw(st.lists(st.tuples(keys, SCALARS[sr.id]),
                                     max_size=3)))


@st.composite
def nested_sets(draw, sr, depth=1):
    """A ConvexSet, maybe empty, of ``nested_values`` generators."""
    gens = draw(st.lists(nested_values(sr, depth), max_size=3))
    return hull_canonicalize(gens, sr)


def assert_same_set(got, want):
    assert got.generators == want.generators
    assert [g.entries for g in got.generators] == \
        [g.entries for g in want.generators]
    assert hash(got) == hash(want) == hash((want.semiring.id,
                                            want.generators))


class TestScaleAgainstOracle:
    """``fs_scale`` and ``cs_scale`` map entries and generators in
    order, with no re-validation and no re-sort; rebuilding through
    ``finsupp`` and a dedup and sort gives the identical values and
    hashes."""

    @pytest.mark.parametrize("sr", [BOOL, QPLUS, NAT],
                             ids=["bool", "qplus", "nat"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_fs_scale(self, sr, data):
        lam = data.draw(SCALARS[sr.id])
        phi = data.draw(nested_values(sr))
        got, want = fs_scale(lam, phi), fs_scale_by_finsupp(lam, phi)
        assert got.entries == want.entries and got == want
        assert hash(got) == hash(want) == hash((sr.id, want.entries))

    @pytest.mark.parametrize("sr", [BOOL, QPLUS, NAT],
                             ids=["bool", "qplus", "nat"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_cs_scale(self, sr, data):
        lam = data.draw(SCALARS[sr.id])
        A = data.draw(nested_sets(sr))
        assert_same_set(cs_scale(lam, A), cs_scale_by_convex_set(lam, A))

    @pytest.mark.parametrize("sr, lams", [
        (BOOL, [0, 1, True]),
        (QPLUS, [0, F(0), 1, F(3, 2)]),
        (NAT, [0, 1, 3])], ids=["bool", "qplus", "nat"])
    def test_zero_empty_redundant_and_nested(self, sr, lams):
        one = sr.one
        x, y = finsupp(sr, [("x", one)]), finsupp(sr, [("y", one)])
        xy = fs_add(x, y)
        inner = hull_canonicalize([xy, x, y, xy], sr)
        nested = finsupp(sr, [(inner, one), ((x, "u"), one), (xy, one)])
        sets = [cs_empty(sr), cs_zero(sr), hull_canonicalize([x, y], sr),
                hull_canonicalize([nested, x], sr),
                hull_canonicalize([nested, fs_unit(sr, inner)], sr)]
        for lam in lams:
            for A in sets:
                assert_same_set(cs_scale(lam, A),
                                cs_scale_by_convex_set(lam, A))
            got = fs_scale(lam, nested)
            want = fs_scale_by_finsupp(lam, nested)
            assert got.entries == want.entries
            assert hash(got) == hash(want)

    def test_values_hash_on_first_use(self):
        phi = qsupp([("x", F(1, 2))])
        assert not hasattr(phi, "_hash")
        assert hash(phi) == hash(("qplus", (("x", F(1, 2)),)))
        assert phi._hash == hash(phi)
        # hull_canonicalize compares the generators' sort keys to
        # dedup them and hashes neither them nor the set.
        A = hull_canonicalize([phi], QPLUS)
        assert not hasattr(A, "_hash")
        assert hash(A) == hash(("qplus", (phi,)))
        assert A._hash == hash(A)


class TestEquality:
    def test_permutation_invariance(self):
        g1, g2 = qsupp([("x", 1)]), qsupp([("y", 2)])
        assert cs_equal(hull_canonicalize([g1, g2]),
                        hull_canonicalize([g2, g1]))

    def test_redundant_generator_ignored(self):
        g1 = qsupp([("x", 1)])
        g2 = qsupp([("y", 1)])
        mid = qsupp([("x", F(1, 2)), ("y", F(1, 2))])
        assert cs_equal(hull_canonicalize([g1, g2], QPLUS),
                        hull_canonicalize([g1, g2, mid], QPLUS))

    def test_distinct_singletons_differ(self):
        assert not cs_equal(hull_canonicalize([qsupp([("x", 1)])], QPLUS),
                            hull_canonicalize([qsupp([("y", 1)])], QPLUS))

    def test_empty_vs_zero_differ(self):
        assert not cs_equal(cs_empty(QPLUS), cs_zero(QPLUS))

    def test_compare_names_the_side_and_witness(self):
        x, x2 = qsupp([("x", 1)]), qsupp([("x", 2)])
        seg = hull_canonicalize([x, x2], QPLUS)
        point = hull_canonicalize([x], QPLUS)
        assert cs_compare(seg, point) == ("left", x2)
        assert cs_compare(point, seg) == ("right", x2)
        assert cs_compare(seg, hull_canonicalize([x2, x])) is None

    def test_compare_against_empty_names_the_other_side(self):
        x = qsupp([("x", 1)])
        A, empty = hull_canonicalize([x], QPLUS), cs_empty(QPLUS)
        assert cs_compare(A, empty) == ("left", x)
        assert cs_compare(empty, A) == ("right", x)
        assert cs_compare(empty, cs_empty(QPLUS)) is None

    def test_compare_mixed_semirings_rejected(self):
        with pytest.raises(SemiringMismatchError):
            cs_compare(cs_empty(QPLUS), cs_empty(BOOL))
        with pytest.raises(SemiringMismatchError):
            cs_equal(cs_empty(QPLUS), cs_empty(BOOL))

    def test_compare_of_equal_forms_tests_no_membership(self, monkeypatch):
        x, x2 = qsupp([("x", 1)]), qsupp([("x", 2)])
        A = hull_canonicalize([x, x2], QPLUS)
        monkeypatch.setattr(convex, "member", None)  # a call would raise
        assert cs_compare(A, hull_canonicalize([x2, x], QPLUS)) is None

    @given(st.lists(finsupp_q, max_size=3), st.lists(finsupp_q, max_size=3))
    def test_compare_witness_lies_on_one_side_only(self, g1, g2):
        A, B = hull_canonicalize(g1, QPLUS), hull_canonicalize(g2, QPLUS)
        found = cs_compare(A, B)
        assert (found is None) == cs_equal(hull_canonicalize(g1, QPLUS),
                                           hull_canonicalize(g2, QPLUS))
        if found is not None:
            side, witness = found
            inside, outside = (A, B) if side == "left" else (B, A)
            assert witness in inside.generators
            assert not member(outside, witness)

    @given(st.lists(finsupp_q, max_size=3), st.lists(finsupp_q, max_size=3))
    def test_mutual_membership_matches_canonical_equality(self, g1, g2):
        A, B = hull_canonicalize(g1, QPLUS), hull_canonicalize(g2, QPLUS)
        assert (cs_compare(A, B) is None) == (A == B) == cs_equal(A, B)


class TestSemimoduleAndJoin:
    def test_scale_zero_of_empty_is_zero_singleton(self):
        assert cs_scale(0, cs_empty(QPLUS)) == cs_zero(QPLUS)

    def test_scale_zero_of_anything_is_zero_singleton(self):
        A = hull_canonicalize([qsupp([("x", 5)])], QPLUS)
        assert cs_scale(0, A) == cs_zero(QPLUS)

    def test_add_empty_absorbs(self):
        B = hull_canonicalize([qsupp([("x", 1)])], QPLUS)
        assert cs_add(cs_empty(QPLUS), B).is_empty()

    def test_scale_nonzero_keeps_empty(self):
        assert cs_scale(F(2), cs_empty(QPLUS)).is_empty()

    def test_join_of_points_is_segment(self):
        A = hull_canonicalize([qsupp([("x", 1)])])
        B = hull_canonicalize([qsupp([("x", 5)])])
        J = cs_join_all([A, B], QPLUS)
        assert member(J, qsupp([("x", 3)]))
        assert not member(J, qsupp([("x", 6)]))
        assert J.generators == (qsupp([("x", 1)]), qsupp([("x", 5)]))

    @given(small_qset, small_qset, small_qset)
    def test_addition_axioms(self, A, B, C):
        assert cs_equal(cs_add(A, B), cs_add(B, A))
        assert cs_equal(cs_add(cs_add(A, B), C), cs_add(A, cs_add(B, C)))
        assert cs_equal(cs_add(A, cs_zero(QPLUS)), A)

    @given(qscalars, qscalars, small_qset)
    def test_scaling_axioms(self, lam, mu, A):
        assert cs_equal(cs_scale(lam, cs_scale(mu, A)),
                        cs_scale(lam * mu, A))
        assert cs_equal(cs_scale(F(1), A), A)
        assert cs_equal(cs_scale(lam + mu, A),
                        cs_add(cs_scale(lam, A), cs_scale(mu, A)))

    @given(qscalars, small_qset, small_qset)
    def test_scale_distributes_over_add(self, lam, A, B):
        assert cs_equal(cs_scale(lam, cs_add(A, B)),
                        cs_add(cs_scale(lam, A), cs_scale(lam, B)))

    @given(qscalars.filter(lambda v: v != 0), small_qset, small_qset)
    def test_scale_distributes_over_join(self, lam, A, B):
        assert cs_equal(cs_scale(lam, cs_join_all([A, B], QPLUS)),
                        cs_join_all([cs_scale(lam, A), cs_scale(lam, B)],
                                    QPLUS))

    @given(small_qset, small_qset, small_qset)
    def test_add_distributes_over_join(self, A, B, C):
        assert cs_equal(cs_add(A, cs_join_all([B, C], QPLUS)),
                        cs_join_all([cs_add(A, B), cs_add(A, C)], QPLUS))

    @given(qscalars.filter(lambda v: v != 0))
    def test_scale_keeps_bottom(self, lam):
        assert cs_scale(lam, cs_empty(QPLUS)).is_empty()

    @given(small_bset, small_bset, small_bset)
    def test_bool_add_distributes_over_join(self, A, B, C):
        assert cs_equal(cs_add(A, cs_join_all([B, C], BOOL)),
                        cs_join_all([cs_add(A, B), cs_add(A, C)], BOOL))

    @given(small_qset, small_qset, finsupp_q)
    def test_membership_monotone_under_join(self, A, B, phi):
        if member(A, phi):
            assert member(cs_join_all([A, B], QPLUS), phi)


def _refused(*args, **kwargs):
    raise AssertionError("the sum ran an LP")


def _qset_on(symbols):
    """Canonical qplus sets of 1-6 generators on ``symbols``."""
    entries = st.lists(st.tuples(st.sampled_from(symbols), qscalars),
                       max_size=3).map(qsupp)
    return st.lists(entries, min_size=1, max_size=6).map(
        lambda gens: hull_canonicalize(gens, QPLUS))


class TestLpFreeSums:
    """Over qplus a sum of summands on disjoint supports, or with one
    side a single point, keeps every pairwise sum, sorted, with no
    canonicalization and no LP."""

    @settings(max_examples=100)
    @given(_qset_on(["u", "v", "x"]), _qset_on(["y", "z"]), st.booleans())
    def test_disjoint_supports(self, A, B, swap):
        self._check(*((B, A) if swap else (A, B)))

    @settings(max_examples=100)
    @given(small_qset.filter(lambda A: not A.is_empty()), finsupp_q,
           st.booleans())
    def test_single_point(self, A, point, swap):
        P = hull_canonicalize([point], QPLUS)
        self._check(*((P, A) if swap else (A, P)))

    @staticmethod
    def _check(A, B):
        sums = [fs_add(a, b) for a in A.generators for b in B.generators]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convex, "feasible", _refused)
            mp.setattr(exactlp, "feasible", _refused)
            mp.setattr(convex, "hull_canonicalize", _refused)
            total = cs_add(A, B)
        assert total.generators == hull_canonicalize(sums, QPLUS).generators
        assert len(total.generators) == len(sums)

    def test_disjoint_cube_corners(self):
        # (a0|a1) + ... + (a10|a11): the 2^6 corners of a cube.
        total = cs_zero(QPLUS)
        for k in range(6):
            segment = hull_canonicalize(
                [qsupp([(f"a{2 * k}", 1)]), qsupp([(f"a{2 * k + 1}", 1)])])
            total = cs_add(total, segment)
        assert len(total.generators) == 2 ** 6
        assert list(total.generators) == sorted(total.generators)

    def test_bool_keeps_canonicalizing(self):
        # Disjoint supports over bool: {x, y, z, w} is the join of
        # {x, y, z} and {x, z, w}, so it is no generator of the sum.
        A = hull_canonicalize([bsupp("x"), bsupp("xy")], BOOL)
        B = hull_canonicalize([bsupp("z"), bsupp("zw")], BOOL)
        assert cs_add(A, B).generators == tuple(sorted(
            [bsupp("xz"), bsupp("xyz"), bsupp("xzw")]))


def half(a, b):
    return finsupp(QPLUS, [(a, F(1, 2)), (b, F(1, 2))])


class TestExtremePoints:
    def test_midpoint_not_extreme(self):
        g1, g2 = qsupp([("x", 1)]), qsupp([("y", 1)])
        A = hull_canonicalize([g1, g2, half("x", "y")])
        assert extreme_points(A) == (g1, g2)

    def test_triangle_with_interior_face_point(self):
        # Three generators, none inside the hull of the others; the
        # image under a merging map collapses the triangle to a segment
        # whose midpoint generator becomes redundant.
        A = hull_canonicalize([
            half("x", "y"), half("x", "z"), fs_unit(QPLUS, "z")])
        assert extreme_points(A) == (
            half("x", "y"), half("x", "z"), fs_unit(QPLUS, "z"))

        f = {"x": "u", "y": "u", "z": "v"}
        images = [fs_map(f, g) for g in A.generators]
        assert images == [
            fs_unit(QPLUS, "u"), half("u", "v"), fs_unit(QPLUS, "v")]

        fA = hull_canonicalize(images)
        assert extreme_points(fA) == (
            fs_unit(QPLUS, "u"), fs_unit(QPLUS, "v"))

    def test_extreme_point_image_differs_from_image_extremes(self):
        A = hull_canonicalize([
            half("x", "y"), half("x", "z"), fs_unit(QPLUS, "z")])
        f = {"x": "u", "y": "u", "z": "v"}
        image_of_ext = sorted(fs_map(f, g) for g in extreme_points(A))
        ext_of_image = sorted(
            extreme_points(hull_canonicalize(
                [fs_map(f, g) for g in A.generators])))
        assert image_of_ext != ext_of_image


class TestSerialization:
    def test_json_roundtrip(self):
        A = hull_canonicalize([qsupp([("x", F(1, 2))]), qsupp([("y", 2)])])
        data = A.to_json_dict()
        assert data["semiring"] == "qplus"
        assert cs_from_json(data) == A

    def test_csv_vertices(self):
        A = hull_canonicalize([qsupp([("x", 1), ("y", 2)]),
                               qsupp([("x", 3)])])
        text = _generators_csv(A.generators, A.semiring, A.support())
        lines = text.strip().split("\n")
        assert lines[0] == "x,y"
        assert set(lines[1:]) == {"1,2", "3,0"}

    @pytest.mark.parametrize("data", [
        {"generators": []}, {"semiring": None, "generators": []},
        {"semiring": 1, "generators": []}])
    def test_semiring_field_must_be_a_string(self, data):
        with pytest.raises(ConvexmodError,
                           match="ConvexSet JSON needs a 'semiring' string"):
            cs_from_json(data)

    def test_canonicalize_helper(self):
        """Reading a set from JSON canonicalizes it."""
        data = {"semiring": "qplus", "generators": [
            {"x": "1"}, {"x": "1"}, {"x": "3"}, {"x": "2"}]}
        assert cs_from_json(data) == hull_canonicalize(
            [qsupp([("x", 1)]), qsupp([("x", 3)])], QPLUS)
