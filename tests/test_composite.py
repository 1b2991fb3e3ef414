"""Tests for the composite monad of convex sets of weightings and its
Kleisli arrows."""

import itertools
import random
from fractions import Fraction

import pytest

from convexmod.composite import (
    KleisliArrow,
    alpha,
    arrow,
    family_weighting,
    ka_from_json,
    kleisli_bottom,
    kleisli_compose,
    kleisli_equal,
    kleisli_identity,
    kleisli_join,
    pc_map,
    pc_mult,
    pc_unit,
)
from convexmod.convex import (
    cs_add,
    cs_compare,
    cs_empty,
    cs_equal,
    cs_join,
    cs_join_all,
    cs_scale,
    hull_canonicalize,
    member,
)
from convexmod.distlaw import delta_witness_check, set_weighting
from convexmod.errors import ConvexmodError, NotSemifieldError, SemiringMismatchError
from convexmod.freemod import (
    finsupp,
    fs_add,
    fs_mult,
    fs_scale,
    fs_unit,
    fs_zero,
)
from convexmod.semiring import BOOL, NAT, QPLUS
from oracles import weighted_generator_hull


def W(sr, *pairs):
    return finsupp(sr, list(pairs))


def H(sr, *gens):
    return hull_canonicalize(list(gens), sr)


def all_bool_level1():
    """Every convex set of bool weightings over {p, q}; there are
    exactly fourteen."""
    phis = [finsupp(BOOL, [(x, 1) for x in sub])
            for r in range(3)
            for sub in itertools.combinations(["p", "q"], r)]
    out = {}
    for r in range(len(phis) + 1):
        for sub in itertools.combinations(phis, r):
            A = hull_canonicalize(sub, BOOL)
            out[A._skey] = A
    return [out[k] for k in sorted(out)]


class TestFamilyWeighting:
    def test_extensionally_equal_keys_merge(self):
        dx, dy = fs_unit(QPLUS, "x"), fs_unit(QPLUS, "y")
        mid = W(QPLUS, ("x", Fraction(1, 2)), ("y", Fraction(1, 2)))
        redundant = H(QPLUS, dx, dy, mid)
        lean = H(QPLUS, dx, dy)
        fam = family_weighting(QPLUS, [(redundant, 1), (lean, 2)])
        assert len(fam.support()) == 1
        assert fam.value(lean) == 3

    def test_non_set_key_rejected(self):
        with pytest.raises(ConvexmodError):
            family_weighting(QPLUS, [(fs_unit(QPLUS, "x"), 1)])

    def test_mixed_semirings_rejected(self):
        with pytest.raises(SemiringMismatchError):
            family_weighting(QPLUS, [(cs_empty(BOOL), 1)])


class TestAlpha:
    def test_single_key_is_scaling(self):
        A = H(QPLUS, fs_unit(QPLUS, "x"), fs_unit(QPLUS, "y"))
        got = alpha(family_weighting(QPLUS, [(A, 2)]))
        assert cs_equal(got, cs_scale(2, A))

    def test_two_unit_keys_add_minkowski(self):
        A = H(QPLUS, fs_unit(QPLUS, "x"), fs_unit(QPLUS, "y"))
        B = H(QPLUS, W(QPLUS, ("x", 3)))
        got = alpha(family_weighting(QPLUS, [(A, 1), (B, 1)]))
        assert cs_equal(got, cs_add(A, B))

    def test_empty_weighting_resolves_to_zero_point(self):
        got = alpha(fs_zero(QPLUS))
        assert got.generators == (fs_zero(QPLUS),)

    def test_empty_key_absorbs(self):
        A = H(QPLUS, fs_unit(QPLUS, "x"))
        fam = family_weighting(QPLUS, [(A, 1), (cs_empty(QPLUS), 5)])
        assert alpha(fam).is_empty()

    def test_nat_rejected(self):
        A = hull_canonicalize([fs_unit(NAT, "x")], NAT)
        with pytest.raises(NotSemifieldError):
            alpha(family_weighting(NAT, [(A, 1)]))

    @pytest.mark.parametrize("sr", [QPLUS, BOOL], ids=["qplus", "bool"])
    def test_agrees_with_generator_choice_route(self, sr):
        """The fold from the first scaled key gives exactly the
        canonical generators of the one-hull route, also when a key is
        built from redundant generators."""
        rng = random.Random(3)
        for _ in range(60):
            items = []
            for _ in range(rng.randint(0, 3)):
                gens = [_random_point(rng, sr)
                        for _ in range(rng.randint(0, 2))]
                if gens and rng.random() < 0.5:
                    gens += _redundant_points(rng, sr, gens)
                key = hull_canonicalize(gens, sr)
                weight = 1 if sr is BOOL else Fraction(rng.randint(1, 4))
                items.append((key, weight))
            fam = finsupp(sr, items)
            got = alpha(fam)
            via_choices = weighted_generator_hull(sr, list(fam.items()))
            assert got.generators == via_choices.generators

    @pytest.mark.parametrize("sr", [QPLUS, BOOL], ids=["qplus", "bool"])
    def test_empty_key_first_or_later_absorbs(self, sr):
        A = H(sr, fs_unit(sr, "x"), fs_unit(sr, "y"))
        for empty in (cs_empty(sr), H(sr)):
            got = alpha(finsupp(sr, [(empty, 1), (A, 1)]))
            assert got.is_empty()
            assert alpha(finsupp(sr, [(empty, 1)])).is_empty()

    @pytest.mark.parametrize("sr", [QPLUS, BOOL], ids=["qplus", "bool"])
    def test_empty_weighting_is_canonical_zero_point(self, sr):
        got = alpha(fs_zero(sr))
        assert got.generators == (fs_zero(sr),)


def _random_point(rng, sr):
    syms = rng.sample(["x", "y", "z"], rng.randint(0, 2))
    if sr is BOOL:
        return finsupp(BOOL, [(x, 1) for x in syms])
    return finsupp(QPLUS, [(x, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
                           for x in syms])


def _redundant_points(rng, sr, gens):
    """Convex combinations of ``gens``: over qplus weighted averages,
    over bool joins."""
    out = []
    for _ in range(rng.randint(1, 2)):
        picks = [rng.choice(gens) for _ in range(rng.randint(2, 3))]
        if sr is BOOL:
            combo = fs_zero(BOOL)
            for g in picks:
                combo = fs_add(combo, g)
        else:
            weights = [Fraction(rng.randint(1, 3)) for _ in picks]
            total = sum(weights)
            combo = fs_zero(QPLUS)
            for w, g in zip(weights, picks):
                combo = fs_add(combo, fs_scale(w / total, g))
        out.append(combo)
    return out


class TestPcOps:
    def test_unit_is_single_dirac(self):
        assert pc_unit(QPLUS, "x").generators == (fs_unit(QPLUS, "x"),)

    def test_map_relabels_and_recloses(self):
        A = H(QPLUS, W(QPLUS, ("x", 1)), W(QPLUS, ("y", 1)))
        got = pc_map({"x": "u", "y": "u"}, A)
        assert got.generators == (W(QPLUS, ("u", 1)),)

    def test_mult_joins_resolved_generators(self):
        A = H(QPLUS, fs_unit(QPLUS, "x"))
        B = H(QPLUS, W(QPLUS, ("x", 3)))
        outer = H(QPLUS,
                  family_weighting(QPLUS, [(A, 1)]),
                  family_weighting(QPLUS, [(B, 1)]))
        got = pc_mult(outer)
        assert cs_equal(got, H(QPLUS, fs_unit(QPLUS, "x"), W(QPLUS, ("x", 3))))

    def test_mult_of_empty_is_empty(self):
        assert pc_mult(cs_empty(QPLUS)).is_empty()


class TestMonadLaws:
    def test_bool_unit_laws_all_fourteen_sets(self):
        sets = all_bool_level1()
        assert len(sets) == 14
        for A in sets:
            fam = finsupp(BOOL, [(A, 1)])
            left = pc_mult(hull_canonicalize([fam], BOOL))
            assert cs_equal(left, A)
            mapped = [finsupp(BOOL, [(pc_unit(BOOL, x), phi.value(x))
                                     for x in phi.support()])
                      for phi in A.generators]
            right = pc_mult(hull_canonicalize(mapped, BOOL))
            assert cs_equal(right, A)

    def test_qplus_unit_laws_random(self):
        rng = random.Random(11)
        for _ in range(30):
            gens = [finsupp(QPLUS,
                            [(x, Fraction(rng.randint(1, 5),
                                          rng.randint(1, 3)))
                             for x in rng.sample(["x", "y", "z"],
                                                 rng.randint(0, 3))])
                    for _ in range(rng.randint(0, 3))]
            A = hull_canonicalize(gens, QPLUS)
            fam = finsupp(QPLUS, [(A, 1)])
            assert cs_equal(pc_mult(hull_canonicalize([fam], QPLUS)), A)
            mapped = [finsupp(QPLUS, [(pc_unit(QPLUS, x), phi.value(x))
                                      for x in phi.support()])
                      for phi in A.generators]
            assert cs_equal(pc_mult(hull_canonicalize(mapped, QPLUS)), A)

    @staticmethod
    def _assoc_holds(sr, outer):
        via_inner = pc_mult(hull_canonicalize(
            [finsupp(sr, [(pc_mult(K), wv) for K, wv in psi.items()])
             for psi in outer.generators], sr))
        via_outer = pc_mult(pc_mult(outer))
        return cs_equal(via_inner, via_outer)

    def test_bool_associativity_on_singleton_outers(self):
        # one-generator outer sets over a slice of the two-level sets
        sets = all_bool_level1()
        w2 = [finsupp(BOOL, [(K, 1) for K in sub])
              for r in range(3)
              for sub in itertools.combinations(sets, r)]
        count = 0
        for r in range(3):
            for sub in itertools.combinations(w2[:18], r):
                K = hull_canonicalize(sub, BOOL)
                outer = hull_canonicalize([finsupp(BOOL, [(K, 1)])], BOOL)
                assert self._assoc_holds(BOOL, outer)
                count += 1
        assert count == 1 + 18 + 153

    def test_qplus_associativity_random(self):
        rng = random.Random(5)
        symbols = ["x", "y", "z"]

        def rand_phi(pool):
            ks = rng.sample(pool, rng.randint(0, min(2, len(pool))))
            return finsupp(QPLUS, [(k, Fraction(rng.randint(1, 4),
                                                rng.randint(1, 3)))
                                   for k in ks])

        for _ in range(25):
            level1 = [hull_canonicalize(
                [rand_phi(symbols) for _ in range(rng.randint(0, 2))], QPLUS)
                for _ in range(3)]
            level2 = [hull_canonicalize(
                [family_weighting(
                    QPLUS,
                    [(rng.choice(level1), Fraction(rng.randint(1, 3)))
                     for _ in range(rng.randint(0, 2))])
                 for _ in range(rng.randint(0, 2))], QPLUS)
                for _ in range(2)]
            outer = hull_canonicalize(
                [finsupp(QPLUS, [(K, Fraction(rng.randint(1, 3)))
                                 for K in rng.sample(level2,
                                                     rng.randint(0, 2))])
                 for _ in range(rng.randint(0, 2))], QPLUS)
            assert self._assoc_holds(QPLUS, outer)


class TestKleisliConstruction:
    def setup_method(self):
        self.f = arrow(
            QPLUS, ["x"], ["u", "v"],
            {"x": H(QPLUS, W(QPLUS, ("u", 1)), W(QPLUS, ("v", 2)))})

    def test_missing_table_entry_rejected(self):
        with pytest.raises(ConvexmodError):
            KleisliArrow(("x", "y"), ("u",), {"x": cs_empty(QPLUS)})

    def test_stray_output_symbol_rejected(self):
        with pytest.raises(ConvexmodError, match="not an output symbol"):
            arrow(QPLUS, ["x"], ["u"],
                  {"x": H(QPLUS, W(QPLUS, ("w", 1)))})

    def test_empty_input_set_rejected(self):
        with pytest.raises(ConvexmodError):
            kleisli_bottom(QPLUS, [], ["u"])

    def test_values_canonicalized(self):
        mid = W(QPLUS, ("u", Fraction(1, 2)), ("v", 1))
        g = arrow(QPLUS, ["x"], ["u", "v"],
                  {"x": H(QPLUS, W(QPLUS, ("u", 1)), W(QPLUS, ("v", 2)),
                           mid)})
        assert kleisli_equal(g, self.f)

    def test_unknown_input_raises(self):
        with pytest.raises(ConvexmodError):
            self.f("y")

    def test_json_round_trip(self):
        data = self.f.to_json_dict()
        back = ka_from_json(QPLUS, data)
        assert kleisli_equal(back, self.f)

    @pytest.mark.parametrize("data", [
        [1],
        {"vars_in": ["x"], "vars_out": ["u"], "table": [1]},
        {"vars_in": ["x"], "vars_out": ["u"], "table": {"x": [1]}},
        {"vars_in": "xy", "vars_out": ["u"],
         "table": {"x": {"generators": []}, "y": {"generators": []}}},
        {"vars_in": ["x"], "vars_out": "u",
         "table": {"x": {"generators": [{"u": "1"}]}}},
    ], ids=["document-array", "table-array", "entry-array",
            "vars_in-string", "vars_out-string"])
    def test_malformed_json_refused(self, data):
        """Each malformed document is refused as a user error, not
        read some other way."""
        with pytest.raises(ConvexmodError, match="^KleisliArrow JSON "):
            ka_from_json(QPLUS, data)


def _random_arrow(rng, sr, vars_in, vars_out, allow_zero_weighting=True,
                  allow_empty_set=True):
    table = {}
    for x in vars_in:
        n = rng.randint(0 if allow_empty_set else 1, 2)
        gens = []
        for _ in range(n):
            lo = 0 if allow_zero_weighting else 1
            support = rng.sample(vars_out, rng.randint(lo, len(vars_out)))
            gens.append(finsupp(sr, [(y, Fraction(rng.randint(1, 4),
                                                  rng.randint(1, 2)))
                                     for y in support]))
        table[x] = hull_canonicalize(gens, sr)
    return arrow(sr, vars_in, vars_out, table)


class TestKleisliCategory:
    def test_identity_laws(self):
        rng = random.Random(2)
        for _ in range(15):
            f = _random_arrow(rng, QPLUS, ["x", "y"], ["u", "v"])
            assert kleisli_equal(
                kleisli_compose(f, kleisli_identity(QPLUS, ["x", "y"])), f)
            assert kleisli_equal(
                kleisli_compose(kleisli_identity(QPLUS, ["u", "v"]), f), f)

    def test_composition_associative(self):
        rng = random.Random(4)
        for _ in range(15):
            f = _random_arrow(rng, QPLUS, ["x"], ["u", "v"])
            g = _random_arrow(rng, QPLUS, ["u", "v"], ["s", "t"])
            h = _random_arrow(rng, QPLUS, ["s", "t"], ["r"])
            left = kleisli_compose(h, kleisli_compose(g, f))
            right = kleisli_compose(kleisli_compose(h, g), f)
            assert kleisli_equal(left, right)

    def test_frozen_composite_value(self):
        f = arrow(QPLUS, ["x"], ["u", "v"],
                  {"x": H(QPLUS, W(QPLUS, ("u", 1)), W(QPLUS, ("v", 2)))})
        g = arrow(QPLUS, ["u", "v"], ["t"],
                  {"u": H(QPLUS, W(QPLUS, ("t", 1))),
                   "v": H(QPLUS, W(QPLUS, ("t", 3)), W(QPLUS, ("t", 4)))})
        got = kleisli_compose(g, f)("x")
        assert got.generators == (W(QPLUS, ("t", 1)), W(QPLUS, ("t", 8)))

    def test_bottom_is_right_absorbing(self):
        rng = random.Random(6)
        for _ in range(10):
            g = _random_arrow(rng, QPLUS, ["u", "v"], ["t"])
            bot = kleisli_bottom(QPLUS, ["x"], ["u", "v"])
            composed = kleisli_compose(g, bot)
            assert composed("x").is_empty()

    def test_bottom_is_left_absorbing_without_zero_weightings(self):
        rng = random.Random(7)
        bot = kleisli_bottom(QPLUS, ["u", "v"], ["t"])
        for _ in range(10):
            f = _random_arrow(rng, QPLUS, ["x"], ["u", "v"],
                              allow_zero_weighting=False)
            composed = kleisli_compose(bot, f)
            assert composed("x").is_empty()

    def test_zero_weighting_escapes_left_absorption(self):
        # the zero weighting picks nothing, so composing with bottom
        # still produces the zero point: the documented strictness gap
        f = arrow(QPLUS, ["x"], ["u"],
                  {"x": H(QPLUS, fs_zero(QPLUS))})
        bot = kleisli_bottom(QPLUS, ["u"], ["t"])
        got = kleisli_compose(bot, f)("x")
        assert got.generators == (fs_zero(QPLUS),)

    def test_join_distributes_on_the_right(self):
        rng = random.Random(8)
        for _ in range(12):
            f1 = _random_arrow(rng, QPLUS, ["x"], ["u", "v"])
            f2 = _random_arrow(rng, QPLUS, ["x"], ["u", "v"])
            g = _random_arrow(rng, QPLUS, ["u", "v"], ["t"])
            left = kleisli_compose(g, kleisli_join(f1, f2))
            right = kleisli_join(kleisli_compose(g, f1),
                                 kleisli_compose(g, f2))
            assert kleisli_equal(left, right)

    def test_join_requires_matching_variables(self):
        f = kleisli_bottom(QPLUS, ["x"], ["u"])
        g = kleisli_bottom(QPLUS, ["x"], ["v"])
        with pytest.raises(ConvexmodError):
            kleisli_join(f, g)

    def test_compose_requires_matching_middle(self):
        f = kleisli_bottom(QPLUS, ["x"], ["u"])
        g = kleisli_bottom(QPLUS, ["w"], ["t"])
        with pytest.raises(ConvexmodError):
            kleisli_compose(g, f)

    def test_mixed_semirings_rejected(self):
        f = kleisli_bottom(QPLUS, ["x"], ["u"])
        g = kleisli_bottom(BOOL, ["u"], ["t"])
        with pytest.raises(SemiringMismatchError):
            kleisli_compose(g, f)


# One value of each kind over qplus and over bool, for mixing.
_Q, _B = fs_unit(QPLUS, "u"), fs_unit(BOOL, "u")
_QSET, _BSET = H(QPLUS, _Q), H(BOOL, _B)
_QARROW = arrow(QPLUS, ["x"], ["u"], {"x": _QSET})
_BARROW = arrow(BOOL, ["x"], ["u"], {"x": _BSET})
MIXED_CALLS = {
    "fs_add": lambda: fs_add(_Q, _B),
    "fs_mult": lambda: fs_mult(finsupp(QPLUS, [(_B, 1)])),
    "member": lambda: member(_QSET, _B),
    "hull_canonicalize": lambda: hull_canonicalize([_Q, _B]),
    "hull_canonicalize-given": lambda: hull_canonicalize([_B], QPLUS),
    "cs_compare": lambda: cs_compare(_QSET, _BSET),
    "cs_equal": lambda: cs_equal(_QSET, _BSET),
    "cs_add": lambda: cs_add(_QSET, _BSET),
    "cs_join": lambda: cs_join(_QSET, _BSET),
    "cs_join_all": lambda: cs_join_all([_QSET, _BSET], QPLUS),
    "family_weighting": lambda: family_weighting(QPLUS, [(_BSET, 1)]),
    "KleisliArrow": lambda: KleisliArrow(("x", "y"), ("u",),
                                         {"x": _QSET, "y": _BSET}),
    "arrow": lambda: arrow(QPLUS, ["x"], ["u"], {"x": _BSET}),
    "ka_from_json": lambda: ka_from_json(QPLUS, {
        "vars_in": ["x"], "vars_out": ["u"],
        "table": {"x": _BSET.to_json_dict()}}),
    "kleisli_compose": lambda: kleisli_compose(_BARROW, _QARROW),
    "kleisli_join": lambda: kleisli_join(_QARROW, _BARROW),
    "alpha-bool-weighting": lambda: alpha(finsupp(BOOL, [(_QSET, 1)])),
    "alpha-qplus-weighting": lambda: alpha(finsupp(QPLUS, [(_BSET, 1)])),
    "pc_mult": lambda: pc_mult(H(QPLUS, finsupp(QPLUS, [(_BSET, 1)]))),
    "kleisli_equal": lambda: kleisli_equal(_QARROW, _BARROW),
    "delta_witness_check": lambda: delta_witness_check(
        set_weighting(QPLUS, [(("u",), 1)]), _B,
        finsupp(QPLUS, [((("u",), "u"), 1)])),
}


@pytest.mark.parametrize("call", MIXED_CALLS.values(), ids=MIXED_CALLS)
def test_mixed_semirings_refused(call):
    """Every public operation that takes values over two semirings
    refuses a qplus and a bool value together."""
    with pytest.raises(SemiringMismatchError):
        call()
