from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexmod.errors import DimensionMismatchError, InternalError
from convexmod.exactlp import (
    FeasibilitySystem,
    _assert_witness,
    _check_certificate,
    _phase1,
    basis_solves,
    feasible,
)

from oracles import feasible_by_elimination, feasible_by_fraction_simplex

F = Fraction
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
smallpos = st.fractions(min_value=0, max_value=3, max_denominator=4)


def ones_row(vectors):
    return [tuple(v) + (F(1),) for v in vectors]


def integral(columns, target):
    """The kernel's input for a rational system: every entry times the
    lcm of all denominators, the integer twin ``convex`` hands over.
    A positive scaling keeps the solutions and the Farkas
    certificates."""
    scale = lcm(*(F(v).denominator for v in target),
                *(F(v).denominator for col in columns for v in col))
    return FeasibilitySystem(
        tuple(tuple(int(v * scale) for v in col) for col in columns),
        tuple(int(v * scale) for v in target))


def farkas_certificate(columns, target):
    """The dual the kernel reads off the infeasible tableau of the
    integer twin, after the kernel's own check; then re-checked here
    over Fractions against the rational system."""
    sys_ = integral(columns, target)
    solution, y = _phase1(sys_.columns, sys_.target)
    assert solution is None
    _check_certificate(sys_.columns, sys_.target, y)
    for col in columns:
        assert sum(yk * v for yk, v in zip(y, col)) <= 0
    assert sum(yk * v for yk, v in zip(y, target)) > 0
    return y


class TestExamples:
    def test_target_is_a_generator(self):
        sys_ = integral([(1, 0, 1)], (1, 0, 1))
        assert feasible(sys_) == [F(1)]

    def test_midpoint_of_two_generators(self):
        g1, g2 = (F(0), F(0)), (F(2), F(4))
        cols = ones_row([g1, g2])
        target = (F(1), F(2), F(1))
        witness = feasible(integral(cols, target))
        assert witness == [F(1, 2), F(1, 2)]

    def test_point_beyond_segment_is_infeasible(self):
        g1, g2 = (F(0), F(0)), (F(2), F(4))
        cols = ones_row([g1, g2])
        target = (F(3), F(6), F(1))
        assert feasible(integral(cols, target)) is None
        farkas_certificate(cols, target)

    def test_no_columns_cannot_meet_ones_row(self):
        assert feasible(integral([], (F(1),))) is None
        assert farkas_certificate([], (F(1),)) == [1]

    def test_zero_dimensional_system(self):
        sys_ = integral([], ())
        assert feasible(sys_) == []

    def test_zero_target_takes_zero_witness(self):
        sys_ = integral([(1, 2), (3, 4)], (0, 0))
        assert feasible(sys_) == [F(0), F(0)]

    def test_negative_entries_accepted(self):
        sys_ = integral([(-1, 1), (1, 1)], (0, 1))
        witness = feasible(sys_)
        assert witness is not None
        assert -witness[0] + witness[1] == 0
        assert witness[0] + witness[1] == 1


class TestContracts:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            FeasibilitySystem(((1, 2),), (1,))

    def test_witness_resubstitutes_exactly(self):
        cols = [(F(1), F(3), F(1)), (F(2), F(1), F(1)), (F(5), F(5), F(1))]
        target = (F(2), F(2), F(1))
        witness = feasible(integral(cols, target))
        assert witness is not None
        for i in range(3):
            assert sum(w * cols[j][i]
                       for j, w in enumerate(witness)) == target[i]
        assert all(w >= 0 for w in witness)

    def test_tampered_certificate_raises(self):
        cols, target = ones_row([(F(0),), (F(2),)]), (F(3), F(1))
        sys_ = integral(cols, target)
        y = farkas_certificate(cols, target)
        with pytest.raises(InternalError, match="column"):
            _check_certificate(sys_.columns, sys_.target, [-v for v in y])
        with pytest.raises(InternalError, match="separate"):
            _check_certificate(sys_.columns, sys_.target, [0] * len(y))

    def test_tampered_lift_raises(self):
        # Row 0 forces column 0 to weight 0; row 1 is then infeasible on
        # its own.  A certificate with 1 on row 1 must put at most -5 on
        # row 0 to cover column 0's entry 5 there.
        cols, target = [(1, 5, 1), (0, 0, 1)], (0, 3, 1)
        sys_ = integral(cols, target)
        farkas_certificate(cols, target)
        for forcing_entry in (0, -4):
            with pytest.raises(InternalError, match="column 0"):
                _check_certificate(sys_.columns, sys_.target,
                                   [forcing_entry, 1, 0])

    def test_forced_column_gets_zero_weight(self):
        sys_ = integral([(2, 1, 1), (0, 1, 1), (0, 3, 1)], (0, 2, 1))
        assert feasible(sys_) == [F(0), F(1, 2), F(1, 2)]

    def test_tampered_witness_raises(self):
        sys_ = integral([(1, 1), (3, 1)], (2, 1))
        witness = feasible(sys_)
        assert witness == [F(1, 2), F(1, 2)]
        # The witnesses [1/3, 2/3] and [2, -1/3], as values over D = 3.
        with pytest.raises(InternalError, match="re-substitution"):
            _assert_witness(sys_, [1, 2], 3)
        with pytest.raises(InternalError, match="negative"):
            _assert_witness(sys_, [6, -1], 3)
        with pytest.raises(InternalError, match="denominator"):
            _assert_witness(sys_, [-1, -1], -2)

    @pytest.mark.parametrize("entry", [0.1, 1.0, True, "1/2", F(1, 2)])
    def test_inexact_entries_rejected(self, entry):
        # The kernel takes integer systems only; any other entry is a
        # bug in the package, never bad input.
        with pytest.raises(InternalError, match="must be int"):
            FeasibilitySystem(((entry, 1),), (1, 1))
        with pytest.raises(InternalError, match="must be int"):
            FeasibilitySystem(((1, 1),), (entry, 1))

    def test_determinism(self):
        cols = [(1, 0, 1), (0, 1, 1), (2, 2, 1), (1, 1, 1)]
        target = (F(3, 4), F(3, 4), F(1))
        first = feasible(integral(cols, target))
        second = feasible(integral(cols, target))
        assert first == second


vectors3 = st.tuples(small, small, small)


class TestOracleAgreement:
    @given(st.lists(vectors3, min_size=1, max_size=3), vectors3)
    def test_matches_elimination_oracle(self, cols, target):
        verdict = feasible(integral(cols, target))
        oracle = feasible_by_elimination(cols, target)
        assert (verdict is None) == (oracle is None)
        if verdict is None:
            farkas_certificate(cols, target)
        else:
            for i in range(3):
                assert sum(w * cols[j][i]
                           for j, w in enumerate(verdict)) == target[i]

    @given(st.lists(st.tuples(smallpos, smallpos), min_size=1, max_size=3),
           st.lists(smallpos, min_size=3, max_size=3))
    def test_constructed_combinations_always_feasible(self, gens, raw):
        # Build the target as an actual convex combination, so the
        # solver must find some witness (not necessarily the same one).
        weights = raw[:len(gens)]
        total = sum(weights)
        if total == 0:
            weights = [F(1)] + [F(0)] * (len(gens) - 1)
            total = F(1)
        weights = [w / total for w in weights]
        target = tuple(
            sum(w * g[i] for w, g in zip(weights, gens)) for i in range(2)
        ) + (F(1),)
        cols = ones_row(gens)
        assert feasible(integral(cols, target)) is not None


entries = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def systems(draw):
    """1-5 rows, 0-7 columns, entries negative, zero and fractional;
    half the time with a homogenizing row of ones, as hull membership
    builds them, so feasible systems are common too.  A rational
    ``(columns, target)`` pair; the kernel gets its ``integral`` twin,
    the oracles the pair itself."""
    rows = draw(st.integers(1, 5))
    width = draw(st.integers(0, 7))
    hull = draw(st.booleans())
    free = rows - 1 if hull else rows
    vec = st.lists(entries, min_size=free, max_size=free)
    cols = [draw(vec) + ([F(1)] if hull else []) for _ in range(width)]
    target = draw(vec) + ([F(1)] if hull else [])
    return cols, target


class TestFractionSimplexAgreement:
    @settings(max_examples=150)
    @given(systems())
    def test_identical_witness_or_none(self, system):
        sys_ = integral(*system)
        y, basis = [], []
        verdict = feasible(sys_, certificate=y, basis=basis)
        reference = feasible_by_fraction_simplex(*system)
        assert verdict == reference
        if verdict is None:
            # The caller receives the certificate the kernel checked;
            # negated, it fails the check.
            assert y == farkas_certificate(*system)
            with pytest.raises(InternalError):
                _check_certificate(sys_.columns, sys_.target,
                                   [-v for v in y])
            assert basis == []
        elif basis:
            # An artificial-free basis: m real columns whose matrix B
            # the handed-back D * B^-1 inverts, and whose weights
            # (D * B^-1) b / D are the witness's.
            indices, inverse, denominator = basis
            m = len(sys_.target)
            assert y == [] and len(set(indices)) == len(indices) == m
            for c, j in enumerate(indices):
                assert [sum(map(mul, row, sys_.columns[j]))
                        for row in inverse] == [
                            denominator * (i == c) for i in range(m)]
            weights = [F(sum(map(mul, row, sys_.target)), denominator)
                       for row in inverse]
            assert weights == [verdict[j] for j in indices]
            assert all(not w for j, w in enumerate(verdict)
                       if j not in indices)
            assert basis_solves(sys_.columns, sys_.target, basis)
        else:
            # An artificial stays basic: at most m - 1 columns weigh.
            assert y == []
            assert sum(w != 0 for w in verdict) < len(sys_.target)


nonneg = st.one_of(st.just(F(0)),
                   st.fractions(min_value=0, max_value=4, max_denominator=6))
positive = st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6)


@st.composite
def planted_row_systems(draw):
    """Like ``systems``, but each row is left free, planted as a
    forcing row (target 0, every entry >= 0, zeros common: a column
    with a positive entry there must take weight 0) or, more rarely,
    planted as infeasible on its own (nonzero target, no entry of its
    sign)."""
    rows = draw(st.integers(1, 5))
    width = draw(st.integers(0, 7))
    hull = draw(st.booleans())
    free = rows - 1 if hull else rows
    cols = [[draw(entries) for _ in range(free)] for _ in range(width)]
    target = [draw(entries) for _ in range(free)]
    for i in range(free):
        kind = draw(st.sampled_from(
            ["free", "free", "forcing", "forcing", "infeasible"]))
        if kind == "forcing":
            target[i] = F(0)
            for col in cols:
                col[i] = draw(nonneg)
        elif kind == "infeasible":
            sign = draw(st.sampled_from([1, -1]))
            target[i] = sign * draw(positive)
            for col in cols:
                col[i] = -sign * draw(nonneg)
    if hull:
        cols = [col + [F(1)] for col in cols]
        target.append(F(1))
    return cols, target


class TestPresolveAgreement:
    """Systems with planted forcing rows and rows infeasible on their
    own, against the fraction-simplex oracle."""

    def test_forced_column_entering_first(self):
        # Row 2 forces column 1, yet column 1 is Bland's first entering
        # choice; the path ends at another vertex than the system
        # without row 2 and column 1 would give, [0, 0, 1/11, 3/11].
        cols = [(3, 3, 0), (-3, 1, 2), (-2, 3, 0), (-3, -1, 0)]
        target = (-1, 0, 0)
        witness = [F(1, 6), F(0), F(0), F(1, 2)]
        assert (feasible(integral(cols, target))
                == feasible_by_fraction_simplex(cols, target) == witness)

    @settings(max_examples=150)
    @given(planted_row_systems())
    def test_identical_witness_or_none(self, system):
        verdict = feasible(integral(*system))
        reference = feasible_by_fraction_simplex(*system)
        assert verdict == reference
        if verdict is None:
            farkas_certificate(*system)


class TestReturnedCertificate:
    """A caller's ``certificate`` list receives, on a "no", the vector
    ``feasible`` has already checked (``TestFractionSimplexAgreement``
    covers random systems)."""

    def test_beyond_segment(self):
        cols, target = ones_row([(F(0),), (F(2),)]), (F(3), F(1))
        sys_ = integral(cols, target)
        y = []
        assert feasible(sys_, certificate=y) is None
        assert y == farkas_certificate(cols, target) == [1, -2]
        # y is 0 on the column (2, 1); raising its first entry makes
        # that column positive.
        with pytest.raises(InternalError, match="column 1"):
            _check_certificate(sys_.columns, sys_.target,
                               [y[0] + 1, y[1]])


def _rank(vectors):
    """Rank of rational vectors, by elimination over Fractions."""
    rows = [list(map(F, v)) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][c] / rows[rank][c]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def full_rank_feasible_systems(draw):
    """m rows and at least m columns of full row rank, with a target
    that is a nonnegative combination of a few of them, zero weights
    common: the phase-1 optimum is often degenerate, an artificial
    basic at level 0."""
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(rows, 7))
    cols = [[draw(entries) for _ in range(rows)] for _ in range(width)]
    assume(_rank(cols) == rows)
    weights = [draw(nonneg) for _ in range(width)]
    target = [sum(w * col[i] for w, col in zip(weights, cols))
              for i in range(rows)]
    return cols, target


class TestBasisHandback:
    """On a system of full row rank every "yes" hands back a basis of
    real columns: an artificial still basic at the end is pivoted out,
    degenerately, and the witness stays the textbook one."""

    @settings(max_examples=200)
    @given(full_rank_feasible_systems())
    def test_every_yes_hands_back_a_solving_basis(self, system):
        sys_ = integral(*system)
        basis = []
        verdict = feasible(sys_, basis=basis)
        assert verdict == feasible_by_fraction_simplex(*system)
        assert basis, "a full-row-rank yes handed back no basis"
        assert basis[2] > 0
        assert basis_solves(sys_.columns, sys_.target, basis)

    def test_degenerate_artificial_is_pivoted_out(self):
        # Phase 1 ends with column 2 basic and the first row's
        # artificial basic at level 0; the first real entry of that row
        # is -1, so the pivot that drives it out is negative and the
        # tableau is negated to keep D > 0.
        cols, target = [(-1, -1), (-1, 0), (0, 1)], (0, 1)
        sys_ = integral(cols, target)
        basis = []
        assert feasible(sys_, basis=basis) == [F(0), F(0), F(1)]
        indices, inverse, denominator = basis
        assert sorted(indices) == [0, 2] and denominator > 0
        # (-1, 0) = (-1, -1) + (0, 1): the basis settles it with no LP.
        assert basis_solves(sys_.columns, (-1, 0), basis)
