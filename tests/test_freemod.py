import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexmod.convex import hull_canonicalize
from convexmod.errors import (ConvexmodError, SemiringMismatchError,
                              UnmappedSymbolError)
from convexmod.freemod import (
    FinSupp,
    finsupp,
    fs_add,
    fs_from_json,
    fs_map,
    fs_mult,
    fs_scale,
    fs_unit,
    fs_zero,
    sort_key,
)
from convexmod.semiring import BOOL, NAT, QPLUS
from oracles import fs_equal_extensional, nested_sort_key

SYMS = ["u", "v", "w", "x", "y", "z"]
qscalars = st.fractions(min_value=0, max_value=5, max_denominator=6)
qentries = st.lists(st.tuples(st.sampled_from(SYMS), qscalars), max_size=5)


def qsupp(items):
    return finsupp(QPLUS, items)


def bsupp(symbols):
    return finsupp(BOOL, [(s, 1) for s in symbols])


finsupp_q = qentries.map(qsupp)
finsupp_b = st.lists(st.sampled_from(SYMS), max_size=4).map(bsupp)


class TestConstruction:
    def test_unit_is_dirac(self):
        d = fs_unit(QPLUS, "x")
        assert d.value("x") == Fraction(1)
        assert d.support() == ("x",)

    def test_bool_unit_is_singleton(self):
        assert bsupp(["x"]) == fs_unit(BOOL, "x")

    def test_units_of_distinct_symbols_differ(self):
        assert fs_unit(QPLUS, "x") != fs_unit(QPLUS, "y")

    def test_zero_entries_dropped(self):
        phi = qsupp([("x", 0), ("y", 2)])
        assert phi.support() == ("y",)

    def test_duplicate_keys_merge_by_addition(self):
        phi = qsupp([("x", 1), ("x", Fraction(1, 2))])
        assert phi.value("x") == Fraction(3, 2)

    def test_keys_sorted(self):
        phi = qsupp([("z", 1), ("a", 1), ("m", 1)])
        assert phi.support() == ("a", "m", "z")

    def test_empty_function_is_zero(self):
        assert qsupp([]).is_zero()
        assert qsupp([]) == fs_zero(QPLUS)

    @given(qentries)
    def test_structural_equality_is_extensional(self, items):
        a = qsupp(items)
        b = qsupp(list(reversed(items)))
        assert a == b
        assert fs_equal_extensional(a, b)

    @given(qentries, qentries)
    def test_equality_agrees_with_extensional_oracle(self, i1, i2):
        a, b = qsupp(i1), qsupp(i2)
        assert (a == b) == fs_equal_extensional(a, b)

    def test_renormalizing_is_identity(self):
        phi = qsupp([("x", 1), ("y", Fraction(2, 3))])
        again = finsupp(QPLUS, list(phi.items()))
        assert again == phi


int_entries = st.lists(st.tuples(st.sampled_from(SYMS), st.integers(0, 4)),
                      max_size=5)


def _routes(items, rng):
    """One function built three ways: int scalars, Fraction scalars in
    reverse order, and every entry split into two halves, shuffled."""
    halves = [(k, Fraction(v, 2)) for k, v in items for _ in (0, 1)]
    rng.shuffle(halves)
    return (qsupp(items),
            qsupp([(k, Fraction(v)) for k, v in reversed(items)]),
            qsupp(halves))


class TestLazyLookup:
    def test_built_on_first_value_call(self):
        phi = finsupp(NAT, [("y", 2), ("x", 3)])
        assert not hasattr(phi, "_lookup")
        assert phi.value("x") == 3
        assert phi._lookup == {"x": 3, "y": 2}
        table = phi._lookup
        assert phi.value("z") == 0
        assert phi._lookup is table

    def test_other_routes_leave_it_unbuilt(self):
        phi = finsupp(QPLUS, [("x", Fraction(1, 2)), ("y", 1)])
        scaled = fs_scale(2, phi)
        mapped = fs_map({"x": "z", "y": "z"}, phi)
        assert scaled == finsupp(QPLUS, [("x", 1), ("y", 2)])
        assert mapped.entries == (("z", Fraction(3, 2)),)
        assert len({phi, scaled, mapped}) == 3
        assert sorted([scaled, mapped, phi])[0] == phi
        for value in (phi, scaled, mapped):
            assert not hasattr(value, "_lookup")

    @given(qentries, st.sampled_from(SYMS))
    def test_value_agrees_with_entries(self, items, key):
        phi = qsupp(items)
        assert phi.value(key) == dict(phi.entries).get(key, 0)

    def test_zero_function(self):
        assert fs_zero(NAT).value("x") == 0
        assert fs_zero(BOOL).value(("x",)) == 0


class TestHashContract:
    """Equal values hash equally, however they were built: a FinSupp
    hashes its entries once, with nested keys contributing their own
    cached hashes, while ``_skey`` decides equality."""

    @given(int_entries, st.randoms(use_true_random=False))
    def test_routes_agree(self, items, rng):
        a, b, c = _routes(items, rng)
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)

    @given(int_entries, int_entries, st.randoms(use_true_random=False))
    def test_nested_finsupp_keys(self, inner, outer, rng):
        x1, x2, x3 = _routes(inner, rng)
        weights = [w for _k, w in outer]
        nested = [
            qsupp([(x1, w) for w in weights] + [((x1, "u"), 1)]),
            qsupp([((x2, "u"), 1)] + [(x2, Fraction(w)) for w in weights]),
            qsupp([((x3, "u"), Fraction(1, 2)), ((x3, "u"), Fraction(1, 2))]
                  + [(x3, w) for w in reversed(weights)]),
        ]
        assert nested[0] == nested[1] == nested[2]
        assert len({hash(n) for n in nested}) == 1
        assert len(set(nested)) == 1

    @given(st.lists(st.sampled_from(SYMS), max_size=4),
           st.randoms(use_true_random=False))
    def test_bool_duplicates(self, symbols, rng):
        doubled = [(s, 1) for s in symbols] * 2
        rng.shuffle(doubled)
        a, b = bsupp(symbols), finsupp(BOOL, doubled)
        assert a == b and hash(a) == hash(b)


class TestFunctorAction:
    def test_fibre_sums(self):
        phi = qsupp([("x", Fraction(1, 2)),
                     ("y", Fraction(1, 2)), ("z", 2)])
        f = {"x": "u", "y": "u", "z": "v"}
        assert fs_map(f, phi) == qsupp([("u", 1), ("v", 2)])

    def test_identity_map(self):
        phi = qsupp([("x", 1), ("y", 3)])
        assert fs_map({"x": "x", "y": "y"}, phi) == phi

    def test_bool_collapse(self):
        phi = bsupp(["p", "q"])
        assert fs_map({"p": "r", "q": "r"}, phi) == bsupp(["r"])

    def test_unmapped_symbol_rejected(self):
        with pytest.raises(UnmappedSymbolError):
            fs_map({"x": "u"}, qsupp([("x", 1), ("y", 1)]))

    @given(finsupp_q)
    def test_functor_composition(self, phi):
        f = {s: s.upper() for s in SYMS}
        g = {s.upper(): "k" for s in SYMS}
        composed = {s: "k" for s in SYMS}
        assert fs_map(g, fs_map(f, phi)) == fs_map(composed, phi)


class TestMultiplication:
    def test_half_half_combination(self):
        phi1 = qsupp([("x", 1), ("y", 2)])
        phi2 = qsupp([("x", 1), ("z", 2)])
        psi = finsupp(QPLUS, [(phi1, Fraction(1, 2)),
                              (phi2, Fraction(1, 2))])
        assert fs_mult(psi) == qsupp([("x", 1), ("y", 1), ("z", 1)])

    def test_dirac_collapses_to_payload(self):
        phi = qsupp([("x", 1), ("y", Fraction(5, 2))])
        assert fs_mult(fs_unit(QPLUS, phi)) == phi

    def test_empty_collapses_to_zero(self):
        assert fs_mult(fs_zero(QPLUS)) == fs_zero(QPLUS)

    @given(finsupp_q)
    def test_unit_then_mult_is_identity(self, phi):
        assert fs_mult(fs_unit(QPLUS, phi)) == phi

    @given(finsupp_q)
    def test_mapped_unit_then_mult_is_identity(self, phi):
        lifted = fs_map({x: fs_unit(QPLUS, x) for x in phi.support()}, phi)
        assert fs_mult(lifted) == phi

    @given(st.lists(st.tuples(finsupp_q, qscalars), max_size=3))
    def test_associativity_random_level_three(self, outer):
        # Xi ranges over weightings of weightings of weightings.
        psis = [finsupp(QPLUS, [(phi, w)]) for phi, w in outer]
        xi = finsupp(
            QPLUS,
            [(psi, Fraction(1, len(psis))) for psi in psis] if psis else [])
        flat = {p: fs_mult(p) for p in xi.support()}
        assert fs_mult(fs_mult(xi)) == fs_mult(fs_map(flat, xi))


def all_bool_functions(universe):
    """Every finitely supported bool function on the universe."""
    out = []
    for r in range(len(universe) + 1):
        for subset in itertools.combinations(universe, r):
            out.append(bsupp(list(subset)))
    return out


class TestBoolMonadLawsExhaustive:
    UNIVERSE = ["x", "y", "z"]

    def test_unit_laws_all_level_one(self):
        for phi in all_bool_functions(self.UNIVERSE):
            assert fs_mult(fs_unit(BOOL, phi)) == phi
            lifted = fs_map({s: fs_unit(BOOL, s) for s in phi.support()},
                            phi)
            assert fs_mult(lifted) == phi

    def test_unit_laws_all_level_two(self):
        level1 = all_bool_functions(self.UNIVERSE)
        for psi in all_bool_functions(level1):
            assert fs_mult(fs_unit(BOOL, psi)) == psi
            lifted = fs_map({p: fs_unit(BOOL, p) for p in psi.support()},
                            psi)
            assert fs_mult(lifted) == psi

    def test_associativity_bounded_level_three(self):
        # Full level three is astronomically large; enumerate every
        # weighting supported on a fixed eight-element slice of level
        # two, which still exercises overlapping inner supports.
        level1 = all_bool_functions(self.UNIVERSE)
        slice2 = all_bool_functions(level1[:3])  # 8 weightings
        for xi in all_bool_functions(slice2):
            flat = {p: fs_mult(p) for p in xi.support()}
            assert fs_mult(fs_mult(xi)) == fs_mult(fs_map(flat, xi))


class TestSemimoduleStructure:
    def test_pointwise_sum(self):
        a = qsupp([("x", 1)])
        b = qsupp([("x", 1), ("z", 2)])
        assert fs_add(a, b) == qsupp([("x", 2), ("z", 2)])

    def test_bool_pointwise_join(self):
        assert fs_add(bsupp(["x"]), bsupp(["x", "z"])) == bsupp(["x", "z"])

    def test_scale_by_zero_annihilates(self):
        phi = qsupp([("x", 3), ("y", 1)])
        assert fs_scale(0, phi) == fs_zero(QPLUS)

    def test_mixed_semirings_rejected(self):
        with pytest.raises(SemiringMismatchError):
            fs_add(qsupp([("x", 1)]), bsupp(["x"]))

    @given(finsupp_q, finsupp_q, finsupp_q)
    def test_addition_axioms(self, a, b, c):
        zero = fs_zero(QPLUS)
        assert fs_add(a, b) == fs_add(b, a)
        assert fs_add(fs_add(a, b), c) == fs_add(a, fs_add(b, c))
        assert fs_add(a, zero) == a

    @given(qscalars, qscalars, finsupp_q, finsupp_q)
    def test_scaling_axioms(self, lam, mu, a, b):
        assert fs_scale(lam, fs_scale(mu, a)) == fs_scale(lam * mu, a)
        assert fs_scale(Fraction(1), a) == a
        assert fs_scale(lam, fs_add(a, b)) == fs_add(
            fs_scale(lam, a), fs_scale(lam, b))
        assert fs_scale(lam + mu, a) == fs_add(
            fs_scale(lam, a), fs_scale(mu, a))
        assert fs_scale(lam, fs_zero(QPLUS)) == fs_zero(QPLUS)


class TestJson:
    def test_roundtrip(self):
        phi = qsupp([("x", Fraction(2, 5)), ("y", 3)])
        data = phi.to_json_dict()
        assert data == {"x": "2/5", "y": "3"}
        assert fs_from_json(QPLUS, data) == phi

    def test_nat_roundtrip(self):
        phi = finsupp(NAT, [("a", 2), ("b", 7)])
        assert fs_from_json(NAT, phi.to_json_dict()) == phi

    @given(st.sampled_from([BOOL, QPLUS, NAT]), st.dictionaries(
        st.text("xyzuv", min_size=1, max_size=2),
        st.one_of(st.integers(0, 1), st.sampled_from(
            ["0", "1", " 1 ", "2/4", "0/3", "3", "true", "false"]))))
    def test_object_read_as_by_finsupp(self, sr, data):
        # A JSON object builds its value trusted: the same value, with
        # the same entry tuple, as the validating route.
        try:
            want = finsupp(sr, ((k, sr.scalar_from_json(v))
                                for k, v in data.items()))
        except ConvexmodError as exc:
            with pytest.raises(ConvexmodError, match=re.escape(str(exc))):
                fs_from_json(sr, data)
            return
        got = fs_from_json(sr, data)
        assert got.entries == want.entries and got._skey == want._skey

    def test_other_mappings_merge_as_before(self):
        # Keys 1 and "1" both read as the symbol "1" and are added.
        assert fs_from_json(NAT, {1: 2, "1": 3}) == finsupp(NAT, [("1", 5)])


# Keys of every kind a value may hold: symbols, integers, symbol
# tuples, inner weightings and convex sets.  Inner values are over nat
# or qplus, so two of them can differ in their semiring id; a qplus
# convex set gets at most two generators, which are all extreme, so
# drawing one solves no LP.
inner_sr = st.sampled_from([NAT, QPLUS])
symbol_entries = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(1, 3)),
    max_size=3)
inner_values = st.builds(finsupp, inner_sr, symbol_entries)
convex_keys = inner_sr.flatmap(lambda sr: st.builds(
    hull_canonicalize,
    st.lists(st.builds(finsupp, st.just(sr), symbol_entries),
             max_size=2 if sr is QPLUS else 3),
    st.just(sr)))
any_keys = st.one_of(
    st.sampled_from(["x", "y", "z"]),
    st.integers(0, 3),
    st.lists(st.sampled_from(["x", "y"]), max_size=2).map(tuple),
    inner_values,
    convex_keys,
)
outer_values = st.builds(
    finsupp, inner_sr,
    st.lists(st.tuples(any_keys, st.integers(1, 3)), max_size=4))


def _with_prefixes_and_copies(values):
    """``values``, every proper prefix of each one's entries, and an
    equal copy of each (a distinct object with an equal key)."""
    out = list(values)
    out += [finsupp(v.semiring, v.entries[:j])
            for v in values for j in range(len(v.entries))]
    out += [finsupp(v.semiring, v.entries) for v in values]
    return out


def _assert_orders_as_nested(items):
    flat = [sort_key(x) for x in items]
    nested = [nested_sort_key(x) for x in items]
    by_flat = sorted(range(len(items)), key=flat.__getitem__)
    by_nested = sorted(range(len(items)), key=nested.__getitem__)
    assert by_flat == by_nested
    for i, j in itertools.product(range(len(items)), repeat=2):
        assert (flat[i] == flat[j]) == (nested[i] == nested[j])


class TestFlatSortKey:
    """Each entry of a value fills two slots of its flat sort key, so
    the flat key orders and compares values as one (key, value) pair
    per entry does (``oracles.nested_sort_key``)."""

    def test_layout(self):
        phi = finsupp(QPLUS, [("y", 2), ("x", 1), (3, 5)])
        assert phi._skey == (2, "qplus", (0, "x"), 1, (0, "y"), 2, (5, 3), 5)
        assert fs_zero(NAT)._skey == (2, "nat")

    def test_symbol_keys_are_shared(self):
        a = finsupp(QPLUS, [("x", 1)])
        b = finsupp(NAT, [("x", 4), ("y", 1)])
        assert a._skey[2] is b._skey[2] is sort_key("x")

    def test_prefix_and_generator_lengths(self):
        """A value sorts before any value that extends its entries, and
        convex sets compare on generators whose keys differ in length."""
        short = finsupp(NAT, [("x", 1)])
        long = finsupp(NAT, [("x", 1), ("y", 1)])
        A = hull_canonicalize([short, finsupp(NAT, [("z", 2)])], NAT)
        B = hull_canonicalize([long, finsupp(NAT, [("z", 2)])], NAT)
        values = [finsupp(QPLUS, [(K, 1)]) for K in (B, A, long, short)]
        _assert_orders_as_nested(values + [A, B, short, long, fs_zero(NAT)])
        assert short < long and A < B

    @given(st.lists(outer_values, min_size=1, max_size=5))
    def test_flat_orders_and_compares_as_nested(self, values):
        values = _with_prefixes_and_copies(values)
        keys = [k for v in values for k in v.support()]
        _assert_orders_as_nested(values + keys)
