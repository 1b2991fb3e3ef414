"""Tests for the weak law: both computation routes, the witness
checker, the diagram suites, pentagon coherence, and the relation
extensions."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexmod.convex import (cs_empty, cs_equal, cs_join_all, cs_scale,
                              hull_canonicalize, member)
from convexmod import convex, distlaw, exactlp
from convexmod.distlaw import (
    Relation,
    _interval,
    barr_extend,
    check_appendix_a,
    check_naturality,
    check_pentagon_law,
    check_weak_law,
    choice_set,
    composition_count,
    delta_bruteforce,
    delta_hull,
    delta_witness_check,
    membership_weighting,
    pentagon_check,
    run_laws,
    set_key,
    set_weighting,
    trivialE_extend,
    trivial_law,
    trivial_lifting_fixed_points,
    weak_law_instance_count,
)
from convexmod.errors import ConvexmodError, InternalError, NotSemifieldError
from convexmod.freemod import finsupp, fs_map, fs_unit, fs_zero
from convexmod.report import FAIL, PASS, LawReport, law_report
from convexmod.semiring import BOOL, NAT, QPLUS
from convexmod.terms import render_interval
from oracles import (delta_hull_by_choices, iv_join, iv_weighted_sum,
                     nat_law_by_slice_products)


def w(sr, *pairs):
    return finsupp(sr, list(pairs))


THREE_SETS = [(("x", "y"), 5), (("y", "z"), 9), (("a", "b"), 13)]


class TestConstructors:
    def test_set_key_sorts_and_dedupes(self):
        assert set_key(["y", "x", "y"]) == ("x", "y")

    def test_set_weighting_merges_equal_sets(self):
        Phi = set_weighting(QPLUS, [(("y", "x"), 2), (("x", "y"), 3)])
        assert Phi.value(("x", "y")) == 5

    def test_membership_weighting_requires_containment(self):
        with pytest.raises(ConvexmodError):
            membership_weighting(QPLUS, [((("x", "y"), "z"), 1)])


class TestChoiceSet:
    def test_two_sets_give_exactly_four_weightings(self):
        Phi = set_weighting(QPLUS, [(("x", "y"), 1), (("y", "z"), 2)])
        got = choice_set(Phi)
        expected = [
            w(QPLUS, ("x", 1), ("y", 2)),
            w(QPLUS, ("x", 1), ("z", 2)),
            w(QPLUS, ("y", 1), ("z", 2)),
            w(QPLUS, ("y", 3)),
        ]
        assert got == expected

    def test_shared_choice_adds_weights(self):
        Phi = set_weighting(QPLUS, [(("x", "y"), 2), (("x", "z"), 3)])
        got = choice_set(Phi)
        assert w(QPLUS, ("x", 5)) in got

    def test_empty_set_in_support_kills_all_choices(self):
        Phi = set_weighting(QPLUS, [((), 1), (("x",), 1)])
        assert choice_set(Phi) == []

    def test_empty_weighting_gives_zero(self):
        assert choice_set(fs_zero(QPLUS)) == [fs_zero(QPLUS)]


class TestDeltaHull:
    def test_three_set_instance_membership(self):
        Phi = set_weighting(QPLUS, THREE_SETS)
        phi = w(QPLUS, ("x", 2), ("y", 7), ("z", 5), ("a", 6), ("b", 7))
        assert member(delta_hull(Phi), phi)

    def test_three_set_instance_rejects_perturbation(self):
        Phi = set_weighting(QPLUS, THREE_SETS)
        bad = w(QPLUS, ("x", 2), ("y", 7), ("z", 5), ("a", 6),
                ("b", Fraction(15, 2)))
        assert not member(delta_hull(Phi), bad)

    def test_hull_strictly_exceeds_choices(self):
        Phi = set_weighting(QPLUS, [(("x", "y"), 1), (("y", "z"), 2)])
        mid = w(QPLUS, ("x", 1), ("y", 1), ("z", 1))
        assert member(delta_hull(Phi), mid)
        assert mid not in choice_set(Phi)

    def test_not_available_over_nat(self):
        Phi = set_weighting(NAT, [(("x", "y"), 2)])
        with pytest.raises(NotSemifieldError,
                           match="not a semifield; use brute force"):
            delta_hull(Phi)

    def test_zero_weighting_maps_to_point_zero(self):
        H = delta_hull(fs_zero(QPLUS))
        assert H.generators == (fs_zero(QPLUS),)

    def test_empty_set_key_maps_to_empty_set(self):
        Phi = set_weighting(QPLUS, [((), 3)])
        assert delta_hull(Phi).is_empty()


def _choice_count(Phi):
    count = 1
    for A in Phi.support():
        count *= len(A)
    return count


# 0-5 sets of 0-4 of seven symbols, at most 300 choice functions.
qplus_weightings = st.lists(
    st.tuples(st.lists(st.sampled_from(("a", "b", "u", "v", "x", "y", "z")),
                       max_size=4, unique=True),
              st.fractions(min_value=Fraction(1, 6), max_value=6,
                           max_denominator=6)),
    max_size=5).map(lambda items: set_weighting(QPLUS, items)).filter(
        lambda Phi: _choice_count(Phi) <= 300)


def _refused(*args, **kwargs):
    raise AssertionError("delta over qplus ran an LP or listed choices")


class TestGreedyVertices:
    """Over qplus ``delta_hull`` lists the greedy vertices of the sum of
    scaled simplices: the canonical hull of the choice set, with no
    choice enumeration and no LP."""

    @settings(max_examples=150)
    @given(qplus_weightings)
    def test_same_generators_as_the_choice_hull(self, Phi):
        assert (delta_hull(Phi).generators
                == delta_hull_by_choices(Phi).generators)

    @given(qplus_weightings)
    @example(set_weighting(QPLUS, THREE_SETS))
    def test_no_lp_and_no_choice_enumeration(self, Phi):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convex, "feasible", _refused)
            mp.setattr(exactlp, "feasible", _refused)
            mp.setattr(distlaw, "choice_set", _refused)
            mp.setattr(distlaw, "hull_canonicalize", _refused)
            got = delta_hull(Phi)
        assert got.generators == delta_hull_by_choices(Phi).generators

    def test_three_sets_give_the_eight_choices(self):
        Phi = set_weighting(QPLUS, THREE_SETS)
        assert delta_hull(Phi).generators == tuple(choice_set(Phi))

    def test_one_symbol_sets_start_closed(self):
        # 200 one-symbol sets and one pair: a walk over the orders of
        # every symbol would not end, the pair alone has two vertices.
        Phi = set_weighting(QPLUS, [((f"s{i}",), 1) for i in range(200)]
                            + [(("a", "b"), Fraction(1, 3))])
        H = delta_hull(Phi)
        assert len(H.generators) == 2
        assert all(g.value("s7") == 1 for g in H.generators)


class TestDeltaBruteforce:
    def test_bool_one_set_gives_nonempty_subsets(self):
        Phi = set_weighting(BOOL, [(("p", "q"), 1)])
        got = delta_bruteforce(Phi)
        assert got == [
            w(BOOL, ("p", 1)),
            w(BOOL, ("p", 1), ("q", 1)),
            w(BOOL, ("q", 1)),
        ]

    def test_rejected_over_qplus(self):
        Phi = set_weighting(QPLUS, [(("x",), 1)])
        with pytest.raises(ConvexmodError,
                           match="use delta_hull \\+ delta_witness_check"):
            delta_bruteforce(Phi)

    def test_nat_strictly_exceeds_choices(self):
        Phi = set_weighting(NAT, THREE_SETS)
        bf = delta_bruteforce(Phi)
        cs = choice_set(Phi)
        assert len(bf) == 840
        assert len(cs) == 8
        assert all(c in bf for c in cs)
        phi = w(NAT, ("x", 2), ("y", 7), ("z", 5), ("a", 6), ("b", 7))
        assert phi in bf and phi not in cs

    def test_bool_route_matches_slice_product_oracle(self):
        # the package filters subsets of the union; the oracle follows
        # the raw definition with one slice per set
        import itertools
        from oracles import bool_law_by_slice_products
        universe = ["x", "y", "z"]
        pool = [s for r in range(1, 4)
                for s in itertools.combinations(universe, r)]
        for r in range(0, 4):
            for fam in itertools.combinations(pool, r):
                Phi = set_weighting(BOOL, [(A, 1) for A in fam])
                got = {frozenset(p.support()) for p in delta_bruteforce(Phi)}
                assert got == bool_law_by_slice_products(list(Phi.support()))

    def test_bool_bruteforce_equals_hull_membership_closure(self):
        # both routes agree extensionally on every weighting over the
        # two-symbol universe with support up to two sets
        universe = ["p", "q"]
        sets_pool = [("p",), ("q",), ("p", "q")]
        import itertools
        all_phis = [finsupp(BOOL, [(x, 1) for x in sub])
                    for r in range(3)
                    for sub in itertools.combinations(universe, r)]
        for r in range(3):
            for fam in itertools.combinations(sets_pool, r):
                Phi = set_weighting(BOOL, [(A, 1) for A in fam])
                closure = sorted(
                    (p for p in all_phis if member(delta_hull(Phi), p)),
                    key=lambda p: p._skey)
                assert closure == delta_bruteforce(Phi)


# Set elements of every key kind: symbols, ints, tuples and FinSupp
# values, so that a fold over the union's index must reproduce
# sort_key order across kinds.
MIXED_ELEMENTS = ("x", "y", "z", 0, 7, ("p",), ("p", 1),
                  fs_unit(NAT, "x"), w(NAT, ("x", 1), ("y", 2)))
nat_set_weightings = st.lists(
    st.tuples(st.lists(st.sampled_from(MIXED_ELEMENTS), max_size=3),
              st.integers(0, 3)),
    max_size=4).map(lambda items: set_weighting(NAT, items))


class TestNatFold:
    """The nat route folds per-set compositions; the oracle multiplies
    them out as the definition reads."""

    @given(nat_set_weightings)
    def test_matches_slice_product_oracle(self, Phi):
        assert delta_bruteforce(Phi) == nat_law_by_slice_products(Phi)

    @pytest.mark.parametrize("items", [
        [],
        [((), 2)],
        [(("x", "y"), 1), ((), 3)],
        [(("x", "y"), 3), (("y", "z"), 4), (("x", "z"), 2),
         (("x", "y", "z"), 2)],
        [((0, ("p",), "x"), 2), ((fs_unit(NAT, "x"), "x"), 2)],
    ], ids=["zero", "empty_set", "empty_set_among_others", "overlapping",
            "mixed_kinds"])
    def test_fixed_cases_match_the_oracle(self, items):
        Phi = set_weighting(NAT, items)
        assert delta_bruteforce(Phi) == nat_law_by_slice_products(Phi)

    def test_overlapping_sets_keep_each_sum_once(self):
        # 4 * 5 * 3 * 6 combinations of compositions give 59 sums
        Phi = set_weighting(NAT, [(("x", "y"), 3), (("y", "z"), 4),
                                  (("x", "z"), 2), (("x", "y", "z"), 2)])
        got = delta_bruteforce(Phi)
        assert composition_count(Phi) == 360
        assert len(got) == len(set(got)) == 59
        assert all(p.value("x") + p.value("y") + p.value("z") == 11
                   for p in got)

    def test_outputs_are_canonical(self):
        Phi = set_weighting(NAT, THREE_SETS)
        for phi in delta_bruteforce(Phi):
            assert phi.entries == finsupp(NAT, list(phi.items())).entries


class TestWeakCompositions:
    def test_zero_parts(self):
        assert list(distlaw.weak_compositions(0, 0)) == [()]
        assert list(distlaw.weak_compositions(3, 0)) == []

    def test_two_parts(self):
        assert list(distlaw.weak_compositions(2, 2)) == [(0, 2), (1, 1),
                                                         (2, 0)]


class TestCompositionCount:
    def test_disjoint_sets_count_the_outputs(self):
        Phi = set_weighting(NAT, THREE_SETS)
        assert composition_count(Phi) == 6 * 10 * 14
        assert composition_count(Phi) == len(delta_bruteforce(Phi))

    def test_one_weight_on_five_symbols(self):
        Phi = set_weighting(NAT, [(("x", "y", "z", "u", "v"), 1000)])
        assert composition_count(Phi) == 42_084_793_751

    def test_singletons_and_the_zero_weighting_count_one(self):
        assert composition_count(fs_zero(NAT)) == 1
        assert composition_count(
            set_weighting(NAT, [(("x",), 9), (("y",), 4)])) == 1

    def test_limit_stops_at_the_first_partial_product_above_it(self):
        # C(10^1000 + 39, 39) has about 39,000 digits
        Phi = set_weighting(NAT, [(tuple(f"s{i}" for i in range(40)),
                                   10 ** 1000)])
        got = composition_count(Phi, limit=10 ** 6)
        assert 10 ** 6 < got < 10 ** 1200
        small = set_weighting(NAT, THREE_SETS)
        assert composition_count(small, limit=840) == 840
        assert composition_count(small, limit=839) > 839


class TestWitnessCheck:
    def setup_method(self):
        self.Phi = set_weighting(QPLUS, THREE_SETS)
        self.phi = w(QPLUS, ("x", 2), ("y", 7), ("z", 5), ("a", 6), ("b", 7))
        self.pairs = [
            ((("x", "y"), "x"), 2), ((("x", "y"), "y"), 3),
            ((("y", "z"), "y"), 4), ((("y", "z"), "z"), 5),
            ((("a", "b"), "a"), 6), ((("a", "b"), "b"), 7),
        ]

    def test_accepts_exact_witness(self):
        psi = membership_weighting(QPLUS, self.pairs)
        assert delta_witness_check(self.Phi, self.phi, psi)

    def test_rejects_moved_mass(self):
        bad = list(self.pairs)
        bad[0] = ((("x", "y"), "x"), 3)
        bad[1] = ((("x", "y"), "y"), 2)
        psi = membership_weighting(QPLUS, bad)
        assert not delta_witness_check(self.Phi, self.phi, psi)

    def test_rejects_wrong_per_set_total(self):
        bad = list(self.pairs)
        bad[0] = ((("x", "y"), "x"), 1)
        psi = membership_weighting(QPLUS, bad)
        assert not delta_witness_check(self.Phi, self.phi, psi)

    def test_rejects_extra_set(self):
        psi = membership_weighting(
            QPLUS, self.pairs + [((("u", "v"), "u"), 1)])
        assert not delta_witness_check(self.Phi, self.phi, psi)

    def test_choice_witnesses_always_accepted(self):
        Phi = set_weighting(QPLUS, [(("x", "y"), 1), (("y", "z"), 2)])
        for picks in [("x", "y"), ("x", "z"), ("y", "y"), ("y", "z")]:
            psi = membership_weighting(
                QPLUS,
                [((A, x), Phi.value(A))
                 for A, x in zip(Phi.support(), picks)])
            phi = finsupp(QPLUS, [(x, Phi.value(A))
                                  for A, x in zip(Phi.support(), picks)])
            assert delta_witness_check(Phi, phi, psi)


EXPECTED_SUITE = {
    "bool": {"eta_P_triangle": "pass", "mu_S_rectangle": "pass",
             "mu_P_rectangle": "pass", "eta_S_triangle": "fail"},
    "nat": {"eta_P_triangle": "pass", "mu_S_rectangle": "pass",
            "mu_P_rectangle": "pass", "eta_S_triangle": "pass"},
    "qplus": {"eta_P_triangle": "pass", "mu_S_rectangle": "pass",
              "mu_P_rectangle": "pass", "eta_S_triangle": "fail"},
}


class TestWeakLawSuites:
    @pytest.mark.parametrize("sr", [BOOL, NAT, QPLUS], ids=lambda s: s.id)
    def test_suite_statuses(self, sr):
        reports = check_weak_law(sr, xsize=2, trials=30, seed=0)
        got = {r.name: r.status for r in reports}
        assert got == EXPECTED_SUITE[sr.id]

    def test_dropped_triangle_counterexample_is_two_element_set(self):
        reports = check_weak_law(BOOL, xsize=2)
        r = {r.name: r for r in reports}["eta_S_triangle"]
        assert r.counterexample["A"] == ("x", "y")
        assert r.counterexample["extra"] == w(BOOL, ("x", 1), ("y", 1))
        assert r.meta["expected"] == "fail"

    def test_nat_triangle_passes_and_is_expected_to(self):
        reports = check_weak_law(NAT, xsize=2)
        r = {r.name: r for r in reports}["eta_S_triangle"]
        assert r.passed and r.meta["expected"] == "pass"

    @pytest.mark.parametrize("xsize", [1, 2])
    def test_bool_instance_count_matches_the_reports(self, xsize):
        reports = {r.name: r for r in check_weak_law(BOOL, xsize=xsize)}
        # eta_S walks the 2^xsize subsets, but at xsize 2 its failed
        # report counts only those up to the counterexample.
        checked = 2 ** xsize + sum(
            reports[name].meta["instances"]
            for name in ("eta_P_triangle", "mu_S_rectangle",
                         "mu_P_rectangle"))
        assert weak_law_instance_count(xsize) == checked

    @pytest.mark.parametrize("xsize, instances", [
        # 8 + 704 + 704 + 8, the counts the xsize 3 reports carry.
        (3, 1_424),
        # 16 + 2 * (1 + L + C(L, 2)) + 16 over L = 1 + 16 + C(16, 2) = 137.
        (4, 18_940)])
    def test_bool_instance_count(self, xsize, instances):
        assert weak_law_instance_count(xsize) == instances

    @pytest.mark.parametrize("xsize, value_bound", [
        (1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
    def test_nat_instance_count_matches_the_reports(self, xsize,
                                                    value_bound):
        reports = check_weak_law(NAT, xsize=xsize, value_bound=value_bound)
        assert all(r.passed for r in reports)
        assert weak_law_instance_count(xsize, NAT, value_bound) == sum(
            r.meta["instances"] for r in reports)

    @pytest.mark.parametrize("xsize, value_bound, instances", [
        # 31^2 + (1 + 40 * 30 + C(40, 2) * 30^2) + (1 + 11 * 30
        # + C(11, 2) * 30^2) + 4: the mu_S pool keeps the first 40 of
        # 5,521 level-one weightings, the mu_P pool all 11 families
        (2, 30, 961 + 703_201 + 49_831 + 4),
        (2, 2, 2_435),
        (4, 2, 3_749)])
    def test_nat_instance_count(self, xsize, value_bound, instances):
        assert weak_law_instance_count(xsize, NAT, value_bound) == instances

    def test_qplus_suite_deterministic_under_seed(self):
        a = [r.to_json_dict() for r in check_weak_law(QPLUS, seed=7)]
        b = [r.to_json_dict() for r in check_weak_law(QPLUS, seed=7)]
        assert a == b


class TestNaturality:
    def test_hull_route_natural_over_qplus(self):
        reports = check_naturality(QPLUS, xsize=3, trials=40, seed=0)
        assert {r.name: r.status for r in reports} == {
            "delta_naturality": "pass", "choice_naturality": "fail"}

    def test_hull_route_natural_over_bool(self):
        reports = check_naturality(BOOL, xsize=3)
        assert {r.name: r.status for r in reports} == {
            "delta_naturality": "pass", "choice_naturality": "fail"}

    @pytest.mark.parametrize("xsize", [1, 2, 3])
    def test_refused_exactly_above_the_enumerated_stream(self, monkeypatch,
                                                         xsize):
        """The count the suite refuses by is the length of the bool
        delta stream: weight-one families of at most two nonempty sets,
        under every self-map of the universe."""
        universe = distlaw.SYMBOL_POOL[:xsize]
        stream = sum(1 for _ in distlaw._weight_one_instances(
            BOOL, delta_bruteforce, universe, (0, 1, 2)))
        monkeypatch.setitem(distlaw.LIMITS, "naturality", stream)
        assert len(check_naturality(BOOL, xsize=xsize)) == 2
        monkeypatch.setitem(distlaw.LIMITS, "naturality", stream - 1)
        with pytest.raises(ConvexmodError, match=f"enumerates {stream:,} "):
            check_naturality(BOOL, xsize=xsize)

    def test_choice_violation_replays(self):
        reports = check_naturality(QPLUS, xsize=3, trials=5, seed=0)
        cx = {r.name: r for r in reports}["choice_naturality"].counterexample
        Phi, f = cx["Phi"], cx["f"]
        mapped = set_weighting(
            Phi.semiring,
            [(tuple(f[x] for x in A), v) for A, v in Phi.items()])
        left = choice_set(mapped)
        right = sorted({fs_map(f, p) for p in choice_set(Phi)},
                       key=lambda p: p._skey)
        assert left != right

    def test_known_collapse_instance_violates_choice_naturality(self):
        Phi = set_weighting(BOOL, [(("x", "y"), 1), (("x", "z"), 1)])
        f = {"x": "x", "y": "y", "z": "y"}
        mapped = set_weighting(BOOL, [(tuple(f[s] for s in A), v)
                                      for A, v in Phi.items()])
        left = choice_set(mapped)
        right = sorted({fs_map(f, p) for p in choice_set(Phi)},
                       key=lambda p: p._skey)
        assert left == [w(BOOL, ("x", 1)), w(BOOL, ("y", 1))]
        assert w(BOOL, ("x", 1), ("y", 1)) in right
        assert left != right


def iv(lo, hi):
    return _interval(QPLUS, lo, hi)


class TestPentagon:
    def test_interval_two_singletons(self):
        Phi = set_weighting(QPLUS, [((iv(1, 2),), 1), ((iv(5, 6),), 1)])
        r = pentagon_check("interval", Phi)
        assert r.passed
        assert r.meta["left"] == iv(6, 8)
        assert r.meta["right"] == iv(6, 8)

    def test_interval_with_real_choice(self):
        Phi = set_weighting(
            QPLUS, [((iv(0, 1), iv(4, 4)), 2),
                    ((iv(1, 3),), Fraction(1, 2))])
        assert pentagon_check("interval", Phi).passed

    def test_interval_empty_key_bottoms_out(self):
        Phi = set_weighting(QPLUS, [((), 1), ((iv(1, 2),), 1)])
        r = pentagon_check("interval", Phi)
        assert r.passed and r.meta["left"].is_empty()

    @pytest.mark.parametrize("algebra", ["free", "interval"])
    def test_a_passing_instance_is_met(self, algebra):
        """The driver writes the expected outcome, so a report reader
        prints a passing instance as met, not as BAD."""
        r = pentagon_check(algebra, set_weighting(QPLUS, [((iv(1, 2),), 1)]))
        assert r.passed and r.met
        assert list(r.meta) == ["expected", "instances", "left", "right"]

    def test_free_scaling_of_a_join(self):
        A = hull_canonicalize([fs_unit(QPLUS, "x"), fs_unit(QPLUS, "y")],
                              QPLUS)
        B = hull_canonicalize([w(QPLUS, ("x", 3))], QPLUS)
        Phi = set_weighting(QPLUS, [((A, B), 2)])
        r = pentagon_check("free", Phi)
        assert r.passed
        assert cs_equal(r.meta["left"],
                        cs_scale(2, cs_join_all([A, B], QPLUS)))

    def test_free_empty_weighting_gives_zero_point(self):
        r = pentagon_check("free", fs_zero(QPLUS))
        assert r.passed
        assert r.meta["left"].generators == (fs_zero(QPLUS),)

    def test_unknown_algebra_rejected(self):
        with pytest.raises(ConvexmodError):
            pentagon_check("affine", fs_zero(QPLUS))

    def test_failure_keeps_both_sides_in_meta(self, monkeypatch):
        """A failed instance reports both sides in its counterexample and,
        as a passed one does, in its meta."""
        A = hull_canonicalize([fs_unit(QPLUS, "x")], QPLUS)
        Phi = set_weighting(QPLUS, [((A,), 2)])
        held = pentagon_check("free", Phi)
        monkeypatch.setattr(distlaw, "cs_equal", lambda a, b: False)
        r = pentagon_check("free", Phi)
        assert (r.name, r.status, r.mode) == ("pentagon:free", FAIL,
                                              "exhaustive")
        sides = {"left": held.meta["left"], "right": held.meta["right"]}
        assert r.counterexample == {"Phi": Phi, **sides}
        assert r.meta == held.meta == {"expected": PASS, "instances": 1,
                                       **sides}
        assert held.met and not r.met


class TestIntervalModel:
    """Intervals are the qplus convex sets on one symbol.  On them both
    sides of the pentagon must have the endpoints that direct interval
    arithmetic gives, an independent route to the same answer."""

    @staticmethod
    def oracle_sides(Phi):
        families = [([render_interval(A, ["x"]) for A in K], lam)
                    for K, lam in Phi.items()]
        weights = [lam for _K, lam in families]
        left = iv_weighted_sum([(iv_join(K), lam) for K, lam in families])
        right = iv_join(iv_weighted_sum(zip(picks, weights))
                        for picks in product(*[K for K, _lam in families]))
        return left, right

    def check(self, Phi):
        r = pentagon_check("interval", Phi)
        assert r.passed and r.met
        sides = (render_interval(r.meta["left"], ["x"]),
                 render_interval(r.meta["right"], ["x"]))
        assert sides == self.oracle_sides(Phi), Phi

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pool_matches_endpoint_arithmetic(self, seed):
        rng = random.Random(seed)
        for Phi in distlaw._random_interval_families(rng, QPLUS, 200):
            self.check(Phi)

    @pytest.mark.parametrize("keys, sides", [
        ([((None,), 1), (((1, 2),), 1)], (None, None)),
        ([((None, (0, 1), (4, 5)), 1)], ((0, 5), (0, 5))),
        ([], ((0, 0), (0, 0))),
    ], ids=["sum-with-empty-is-empty", "join-ignores-empty",
            "empty-weighting-is-zero"])
    def test_empty_interval_facts(self, keys, sides):
        Phi = set_weighting(QPLUS, [
            (tuple(cs_empty(QPLUS) if ends is None else iv(*ends)
                   for ends in K), lam) for K, lam in keys])
        assert self.oracle_sides(Phi) == sides
        self.check(Phi)


class TestLawReportDriver:
    @staticmethod
    def _run(fail_at, drawn):
        def instances():
            for i in range(5):
                drawn.append(i)
                yield i
        return law_report(
            "demo", QPLUS, "randomized", instances(),
            lambda i: {"i": i} if i == fail_at else None,
            detail="all held", fail_detail="one failed", seed=3, trials=5)

    def test_first_counterexample_stops_drawing(self):
        drawn = []
        r = self._run(2, drawn)
        assert drawn == [0, 1, 2]
        assert (r.name, r.semiring, r.status, r.mode) == (
            "demo", "qplus", FAIL, "randomized")
        assert r.counterexample == {"i": 2}
        assert (r.detail, r.meta) == ("one failed", {
            "expected": PASS, "instances": 3, "seed": 3, "trials": 5})

    def test_pass_reads_every_instance(self):
        drawn = []
        r = self._run(None, drawn)
        assert drawn == [0, 1, 2, 3, 4]
        assert r.status == PASS and r.counterexample is None
        assert (r.detail, r.meta) == ("all held", {
            "expected": PASS, "instances": 5, "seed": 3, "trials": 5})

    def test_only_a_usage_error_falls_back_to_text(self):
        """A tuple-keyed weighting has no JSON form and is printed; a
        broken invariant met while serializing propagates."""
        psi = membership_weighting(BOOL, [((("x", "y"), "x"), 1)])

        class Broken:
            def to_json_dict(self):
                raise InternalError("broken invariant")

        r = LawReport(name="demo", semiring="bool", status=PASS,
                      mode="exhaustive", meta={"psi": psi})
        assert r.to_json_dict()["meta"] == {"psi": str(psi)}
        r = LawReport(name="demo", semiring="bool", status=FAIL,
                      mode="exhaustive", counterexample={"x": Broken()})
        with pytest.raises(InternalError, match="broken invariant"):
            r.to_json_dict()


def _failing_pentagon(algebra_to_fail):
    """pentagon_check with one algebra forced to fail."""
    original = pentagon_check

    def check(algebra, Phi):
        if algebra != algebra_to_fail:
            return original(algebra, Phi)
        return LawReport(name=f"pentagon:{algebra}", semiring="qplus",
                         status=FAIL, mode="exhaustive",
                         counterexample={"Phi": Phi})
    return check


class TestPentagonSuite:
    @pytest.mark.parametrize("algebra", ["free", "interval"])
    def test_failed_random_algebra_ends_the_suite(self, monkeypatch,
                                                  algebra):
        monkeypatch.setattr(distlaw, "pentagon_check",
                            _failing_pentagon(algebra))
        reports = check_pentagon_law(QPLUS, trials=5, seed=4)
        names = ["pentagon:free", "pentagon:interval"]
        assert [r.name for r in reports] == names[:names.index(
            f"pentagon:{algebra}") + 1]
        failed = reports[-1]
        assert failed.status == FAIL and failed.detail == ""
        assert failed.mode == "randomized"
        assert failed.meta == {"expected": PASS, "instances": 1, "seed": 4,
                               "trials": 5}
        assert list(failed.counterexample) == ["Phi"]

    def test_bool_bounded_exhaustive_passes(self):
        reports = check_pentagon_law(BOOL, xsize=2)
        assert [(r.name, r.status) for r in reports] == [
            ("pentagon:free", "pass")]
        assert reports[0].meta["instances"] == 5672

    @pytest.mark.parametrize("xsize, instances", [
        (2, 5672),
        # 1 + F + C(F, 2) over F = 1 + 122 + C(122, 2) = 7,504 families.
        (3, 28_158_761)])
    def test_bool_instance_count(self, monkeypatch, xsize, instances):
        """The count the suite refuses by is the number of weightings it
        walks; the check of each weighting is stubbed out here."""
        if instances <= distlaw.LIMITS["pentagon"]:
            monkeypatch.setattr(distlaw, "pentagon_check", lambda a, Phi: (
                LawReport(name=f"pentagon:{a}", semiring="bool",
                          status=PASS, mode="exhaustive")))
            [report] = check_pentagon_law(BOOL, xsize=xsize)
            assert report.meta["instances"] == instances
        monkeypatch.setitem(distlaw.LIMITS, "pentagon", instances - 1)
        with pytest.raises(ConvexmodError) as exc:
            check_pentagon_law(BOOL, xsize=xsize)
        assert str(exc.value) == (
            f"pentagon over bool at xsize {xsize} enumerates "
            f"{instances:,} instances; at most {instances - 1:,} are allowed")

    @pytest.mark.parametrize("xsize, bound, listed", [(2, 11, 14),
                                                      (3, 37, 122)])
    def test_carrier_bound_stays_below_the_listed_carrier(self, xsize,
                                                          bound, listed):
        """The bound the suite refuses by above xsize 3, 1 + N + C(N, 2)
        carrier sets over the N = 2^xsize weightings, stays at or below
        the carrier listed from every subset where it can be listed."""
        universe = list(distlaw.SYMBOL_POOL[:xsize])
        phis = distlaw.weightings_over(BOOL, universe, xsize, None)
        assert distlaw._at_most_two(len(phis)) == bound
        assert len(distlaw._carrier_sets(BOOL, phis)) == listed

    @pytest.mark.parametrize("xsize, least", [
        (4, 44_693_786), (5, 9_826_127_392), (6, 2_346_476_587_004)])
    def test_bool_refused_on_the_carrier_bound(self, monkeypatch, xsize,
                                               least):
        """Above xsize 3 the carrier is not listed: the refusal states
        the count over the closed-form bound as a lower bound."""
        def refuse(*_args):
            raise AssertionError("the carrier was listed")
        monkeypatch.setattr(distlaw, "_carrier_sets", refuse)
        with pytest.raises(ConvexmodError) as exc:
            check_pentagon_law(BOOL, xsize=xsize)
        assert str(exc.value) == (
            f"pentagon over bool at xsize {xsize} enumerates at least "
            f"{least:,} instances; at most 100,000 are allowed")

    def test_qplus_randomized_passes_with_sum_rule(self):
        reports = check_pentagon_law(QPLUS, trials=30, seed=4)
        assert [(r.name, r.status) for r in reports] == [
            ("pentagon:free", "pass"),
            ("pentagon:interval", "pass"),
            ("pentagon:interval:sum_rule", "pass"),
        ]

    def test_seed_determinism(self):
        a = [r.to_json_dict() for r in check_pentagon_law(QPLUS, trials=10,
                                                          seed=9)]
        b = [r.to_json_dict() for r in check_pentagon_law(QPLUS, trials=10,
                                                          seed=9)]
        assert a == b

    def test_nat_rejected(self):
        with pytest.raises(ConvexmodError, match="positive semifield"):
            check_pentagon_law(NAT)


# The semirings each suite runs over, by suite name.
SUITE_SEMIRINGS = {"weakdist": ("qplus", "bool", "nat"),
                   "pentagon": ("qplus", "bool"),
                   "naturality": ("qplus", "bool", "nat"),
                   "appendixA": ("bool",)}


class TestReportMetadata:
    """Every report states what it expected, fixed before the run, and
    how many instances it checked; a randomized one also its seed and
    trials."""

    def test_every_suite_is_listed(self):
        assert list(SUITE_SEMIRINGS) == list(distlaw.SUITES)

    @pytest.mark.parametrize("name, semiring", [
        (name, sr) for name, srs in SUITE_SEMIRINGS.items() for sr in srs])
    def test_meta_of_every_report(self, name, semiring):
        random_trials = {"trials": 3} if semiring == "qplus" else {}
        reports = run_laws(name, semiring, xsize=1, **random_trials)
        assert reports
        for r in reports:
            assert list(r.meta)[:2] == ["expected", "instances"]
            assert r.meta["expected"] in (PASS, FAIL)
            assert r.meta["instances"] >= 1
            assert r.status == r.meta["expected"]
            if r.mode == "randomized":
                assert (r.meta["seed"], r.meta["trials"]) == (0, 3)
            else:
                assert "seed" not in r.meta and "trials" not in r.meta

    @pytest.mark.parametrize("sr, expected", [
        (BOOL, FAIL), (QPLUS, FAIL), (NAT, PASS)],
        ids=["bool", "qplus", "nat"])
    def test_eta_S_expectation_does_not_follow_the_result(
            self, monkeypatch, sr, expected):
        monkeypatch.setattr(distlaw, "_eta_S_violation",
                            lambda sr, A: None if expected == FAIL
                            else {"A": A})
        r = check_weak_law(sr, xsize=2, trials=2)[-1]
        assert r.name == "eta_S_triangle"
        assert r.meta["expected"] == expected != r.status

    def test_failed_report_counts_its_counterexample(self):
        r = {r.name: r for r in check_weak_law(BOOL, xsize=2)}[
            "eta_S_triangle"]
        # (), (x,), (y,) hold; (x, y) is the counterexample
        assert r.meta["instances"] == 4


class TestSuiteOptions:
    """Each suite checks its own option ranges before it draws or
    enumerates anything; ``run_laws`` refuses the options a run would
    not read."""

    @pytest.mark.parametrize("suite", [check_weak_law, check_pentagon_law,
                                       check_naturality])
    def test_zero_trials_rejected(self, suite):
        with pytest.raises(ConvexmodError,
                           match="^trials must be at least 1$"):
            suite(QPLUS, trials=0)

    @pytest.mark.parametrize("suite", [check_weak_law, check_pentagon_law,
                                       check_naturality])
    def test_trials_above_the_limit_rejected(self, suite, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a random instance was drawn")
        monkeypatch.setattr(distlaw, "_random_qplus_weighting", refuse)
        with pytest.raises(ConvexmodError,
                           match="^trials must be at most 1,000$"):
            suite(QPLUS, trials=distlaw.LIMITS["trials"] + 1)

    @pytest.mark.parametrize("xsize", [0, 7])
    @pytest.mark.parametrize("suite, sr", [
        (check_weak_law, QPLUS), (check_weak_law, BOOL),
        (check_weak_law, NAT), (check_pentagon_law, QPLUS),
        (check_pentagon_law, BOOL), (check_naturality, QPLUS),
        (check_naturality, NAT), (check_appendix_a, BOOL)])
    def test_xsize_out_of_range_rejected(self, suite, sr, xsize):
        with pytest.raises(ConvexmodError,
                           match="^xsize must be between 1 and 6$"):
            suite(sr, xsize=xsize)

    @pytest.mark.parametrize("sr", [QPLUS, NAT])
    def test_appendix_a_over_bool_only(self, sr):
        with pytest.raises(ConvexmodError, match=(
                f"^appendixA runs over bool only; got --semiring {sr.id}$")):
            check_appendix_a(sr)

    def test_run_laws_refuses_an_unread_option(self):
        with pytest.raises(ConvexmodError, match=(
                "^weakdist over bool does not read --trials$")):
            run_laws("weakdist", "bool", trials=1)

    def test_seed_override_replaces_a_random_seed_only(self):
        def dump(reports):
            return [r.to_json_dict() for r in reports]
        assert dump(run_laws("pentagon", seed_override=3, trials=2,
                             seed=0)) == dump(check_pentagon_law(
                                 QPLUS, trials=2, seed=3))
        assert dump(run_laws("appendixA", seed_override=3, xsize=2)) == \
            dump(check_appendix_a(BOOL, xsize=2))


class TestBarrExtension:
    def test_function_graph_extends_to_graph_of_mapped_function(self):
        R = Relation(("a", "b", "c"), ("u", "v"),
                     (("a", "u"), ("b", "u"), ("c", "v")))
        E = barr_extend(R, BOOL)
        f = {"a": "u", "b": "u", "c": "v"}
        got = {(p._skey, q._skey) for p, q in E.pairs}
        expected = {(phi._skey, fs_map(f, phi)._skey) for phi in E.domain}
        assert got == expected

    def test_non_function_relates_to_marginal_pairs(self):
        R = Relation(("a",), ("u", "v"), (("a", "u"), ("a", "v")))
        E = barr_extend(R, BOOL)
        pairs = {(p._skey, q._skey) for p, q in E.pairs}
        assert len(pairs) == 4
        a = w(BOOL, ("a", 1))
        assert (a._skey, w(BOOL, ("u", 1), ("v", 1))._skey) in pairs

    def test_nat_graph_with_merging_fibres(self):
        R = Relation(("a", "b"), ("u",), (("a", "u"), ("b", "u")))
        E = barr_extend(R, NAT, value_bound=2)
        # phi = (a:2, b:1) must relate exactly to (u:3)
        phi = w(NAT, ("a", 2), ("b", 1))
        images = [q for p, q in E.pairs if p == phi]
        assert images == [w(NAT, ("u", 3))]

    def test_qplus_rejected(self):
        R = Relation(("a",), ("u",), (("a", "u"),))
        with pytest.raises(ConvexmodError):
            barr_extend(R, QPLUS)


class TestTrivialExtension:
    def test_forward_image_counterexample(self):
        R = Relation((0, 1, 2), (0, 1, 2), ((0, 1),))
        S = Relation((0, 1, 2), (0, 1, 2), ((0, 1), (0, 2)))
        assert set(R.pairs) < set(S.pairs)
        assert trivialE_extend(R)[(0,)] == (1,)
        assert trivialE_extend(S)[(0,)] == (1, 2)

    def test_law_collapses_family_to_union(self):
        assert trivial_law([("x", "y"), ("y", "z")]) == [("x", "y", "z")]
        assert trivial_law([]) == [()]

    def test_lifting_fixed_points_are_singleton_families(self):
        r = trivial_lifting_fixed_points(3)
        assert r.passed
        assert r.meta["families"] == 256


@given(st.integers(1, 3), st.integers(0, 50))
def test_choice_weightings_always_members_of_hull(nsets, seedling):
    import random
    rng = random.Random(seedling)
    universe = ["x", "y", "z"]
    items = []
    for _ in range(nsets):
        size = rng.randint(1, 3)
        A = tuple(sorted(rng.sample(universe, size)))
        items.append((A, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    Phi = set_weighting(QPLUS, items)
    H = delta_hull(Phi)
    for phi in choice_set(Phi):
        assert member(H, phi)
