"""Term language: parsing, printing, evaluation, equality, rendering."""

import ast
import random
from functools import reduce
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexmod import terms
from convexmod.convex import cs_equal, hull_canonicalize, member
from convexmod.errors import (
    ConvexmodError,
    DimensionMismatchError,
    ParseError,
    UnmappedSymbolError,
)
from convexmod.freemod import finsupp
from convexmod.semiring import get_semiring
from oracles import eval_term_by_walk
from convexmod.terms import (
    MAX_NESTING,
    Add,
    Bot,
    Join,
    Scale,
    Var,
    Zero,
    eval_term,
    format_term,
    free_variables,
    load_term_file,
    parse,
    parse_term_lines,
    render_interval,
    render_polygon,
    synthesize_term,
    term_equal,
)

QPLUS = get_semiring("qplus")
BOOL = get_semiring("bool")
NAT = get_semiring("nat")


def ev(text, variables=("x",), sr=QPLUS):
    return eval_term(parse(text, sr), sr, variables)


class TestParsing:
    def test_join_of_variables(self):
        assert parse("x | y", QPLUS) == Join(Var("x"), Var("y"))

    def test_midpoint_sum(self):
        t = parse("1/2.x + 1/2.y", QPLUS)
        assert t == Add(Scale(F(1, 2), Var("x")), Scale(F(1, 2), Var("y")))

    def test_triangle(self):
        t = parse("x1 | x2 | (x1 + 3.x2)", QPLUS)
        assert t == Join(Join(Var("x1"), Var("x2")),
                         Add(Var("x1"), Scale(F(3), Var("x2"))))

    def test_precedence_scale_tightest(self):
        # 2.x + y parses as (2.x) + y, and x + 2.y | z as ((x + 2.y) | z)
        assert parse("2.x + y", QPLUS) == Add(Scale(F(2), Var("x")), Var("y"))
        assert parse("x + 2.y | z", QPLUS) == Join(
            Add(Var("x"), Scale(F(2), Var("y"))), Var("z"))

    def test_left_associativity(self):
        assert parse("a | b | c", QPLUS) == Join(Join(Var("a"), Var("b")),
                                                 Var("c"))
        assert parse("a + b + c", QPLUS) == Add(Add(Var("a"), Var("b")),
                                                Var("c"))

    def test_nested_scalars(self):
        assert parse("2.3.x", QPLUS) == Scale(F(2), Scale(F(3), Var("x")))

    def test_scalar_normalization(self):
        assert parse("2/4.x", QPLUS) == Scale(F(1, 2), Var("x"))

    def test_keyword_and_identifiers(self):
        assert parse("bot", QPLUS) == Bot()
        assert parse("bot_x", QPLUS) == Var("bot_x")
        assert parse("A_9z", QPLUS) == Var("A_9z")

    def test_zero_literal(self):
        assert parse("0", QPLUS) == Zero()
        assert parse("0 | bot", QPLUS) == Join(Zero(), Bot())

    def test_zero_scalar_prefix(self):
        assert parse("0.x", QPLUS) == Scale(F(0), Var("x"))

    def test_whitespace_is_free(self):
        assert parse("x|y", QPLUS) == parse("  x  |  y  ", QPLUS)


class TestParseErrors:
    @pytest.mark.parametrize("text,pos", [
        ("x +", 3),
        ("x | | y", 4),
        ("(x | y", 6),
        ("x y", 2),
        ("x $ y", 2),
        ("3 + x", 0),
        ("", 0),
        ("1/0.x", 0),
        pytest.param("(" * 2000 + "x" + ")" * 2000, 100, id="parens_2000"),
    ])
    def test_position_reported(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text, QPLUS)
        assert err.value.position == pos

    def test_nesting_limit_is_inclusive(self):
        depth = MAX_NESTING
        assert parse("(" * depth + "x" + ")" * depth, QPLUS) == Var("x")
        with pytest.raises(ParseError, match="nested deeper"):
            parse("(" * (depth + 1) + "x" + ")" * (depth + 1), QPLUS)

    def test_fraction_scalar_rejected_over_nat(self):
        with pytest.raises(ParseError, match="bad scalar"):
            parse("1/2.x", NAT)

    def test_literal_past_the_digit_limit_rejected(self, monkeypatch):
        monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 10)
        with pytest.raises(ParseError, match="longer than 10 digits"):
            parse("12345678901.x", QPLUS)
        assert parse("1234567890.x", NAT) == Scale(1234567890, Var("x"))

    def test_whole_fraction_allowed_over_nat(self):
        assert parse("4/2.x", NAT) == Scale(2, Var("x"))

    def test_large_scalar_rejected_over_bool(self):
        with pytest.raises(ParseError, match="bad scalar"):
            parse("2.x", BOOL)

    def test_bool_scalars_zero_and_one(self):
        assert parse("1.x", BOOL) == Scale(1, Var("x"))
        assert parse("0.x", BOOL) == Scale(0, Var("x"))

    def test_bare_number_is_not_an_atom(self):
        with pytest.raises(ParseError, match="followed by '.'"):
            parse("x + 3", QPLUS)


class TestPrinting:
    @pytest.mark.parametrize("text,printed", [
        ("x | y", "x | y"),
        ("1/2.x + 1/2.y", "1/2.x + 1/2.y"),
        ("x1 | x2 | (x1 + 3.x2)", "x1 | x2 | x1 + 3.x2"),
        ("2.(x + y)", "2.(x + y)"),
        ("(x | y) + z", "(x | y) + z"),
        ("0.bot", "0.bot"),
        ("2.3.x", "2.3.x"),
        pytest.param(" + ".join(["x"] * 3000), " + ".join(["x"] * 3000),
                     id="summands_3000"),
    ])
    def test_golden(self, text, printed):
        assert format_term(parse(text, QPLUS)) == printed

    def test_right_nested_operands_keep_parens(self):
        t = Add(Var("a"), Add(Var("b"), Var("c")))
        assert format_term(t) == "a + (b + c)"
        assert parse(format_term(t), QPLUS) == t
        t = Join(Var("a"), Join(Var("b"), Var("c")))
        assert format_term(t) == "a | (b | c)"
        assert parse(format_term(t), QPLUS) == t


def _term_strategy():
    scalars = st.builds(
        F,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=5))
    leaves = st.one_of(
        st.just(Bot()),
        st.just(Zero()),
        st.sampled_from([Var("x"), Var("y"), Var("z"), Var("bot_like")]))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Scale, scalars, sub),
            st.builds(Add, sub, sub),
            st.builds(Join, sub, sub)),
        max_leaves=20)


class TestRoundTrip:
    @given(t=_term_strategy())
    @settings(max_examples=300, deadline=None)
    def test_parse_inverts_format(self, t):
        assert parse(format_term(t), QPLUS) == t


class TestEvaluation:
    def test_variable_is_its_unit_point(self):
        A = ev("x")
        assert [dict(g.items()) for g in A.generators] == [{"x": F(1)}]

    def test_bot_is_empty(self):
        assert ev("bot").is_empty()

    def test_zero_is_the_zero_point(self):
        A = ev("0")
        assert [dict(g.items()) for g in A.generators] == [{}]

    def test_scale_by_zero_collapses_even_bot(self):
        A = ev("0.bot")
        assert [dict(g.items()) for g in A.generators] == [{}]

    def test_triangle_generators(self):
        A = ev("x | y | (x + 3.y)", ("x", "y"))
        assert sorted(tuple(sorted(g.items())) for g in A.generators) == [
            (("x", F(1)),),
            (("x", F(1)), ("y", F(3))),
            (("y", F(1)),),
        ]

    def test_unbound_variable(self):
        with pytest.raises(UnmappedSymbolError, match="unbound variable 'z'"):
            ev("x + z", ("x",))

    def test_evaluation_over_bool(self):
        # 1+1=1 over bool, so x+y is a convex combination of x and y and
        # the canonical form keeps only the two units
        A = eval_term(parse("x | y | (x + y)", BOOL), BOOL, ("x", "y"))
        assert sorted(tuple(sorted(g.items())) for g in A.generators) == [
            (("x", 1),),
            (("y", 1),),
        ]
        assert member(A, finsupp(BOOL, [("x", 1), ("y", 1)]))


INTERVAL_GOLDENS = [
    ("x", (F(1), F(1))),
    ("bot", None),
    ("0.bot", (F(0), F(0))),
    ("3.bot", None),
    ("x + bot", None),
    ("x | 0", (F(0), F(1))),
    ("(1.x | 2.x) + (5.x | 6.x)", (F(6), F(8))),
    ("1/2.(x | 3.x)", (F(1, 2), F(3, 2))),
    ("x + (0 | x)", (F(1), F(2))),
    ("0 | bot", (F(0), F(0))),
    ("2.x | 5.x", (F(2), F(5))),
    ("1.x | 5.x", (F(1), F(5))),
    ("x + x", (F(2), F(2))),
    ("1/3.x + 1/3.x", (F(2, 3), F(2, 3))),
    ("(x | 0) + (x | 0)", (F(0), F(2))),
    ("2.(x | 3.x)", (F(2), F(6))),
    ("0.x", (F(0), F(0))),
    ("bot | bot", None),
    ("x | x", (F(1), F(1))),
    ("1/2.x | 2.x", (F(1, 2), F(2))),
]


class TestIntervalRendering:
    @pytest.mark.parametrize("text,want", INTERVAL_GOLDENS)
    def test_golden(self, text, want):
        assert render_interval(ev(text), ("x",)) == want

    def test_variable_argument_optional_when_unambiguous(self):
        assert render_interval(ev("2.x | 5.x")) == (F(2), F(5))

    def test_two_variables_rejected(self):
        with pytest.raises(DimensionMismatchError):
            render_interval(ev("x + y", ("x", "y")))

    def test_undeclared_variable_rejected(self):
        with pytest.raises(DimensionMismatchError, match="'y'"):
            render_interval(ev("x + y", ("x", "y")), ("x",))

    def test_needs_qplus(self):
        A = eval_term(parse("x", NAT), NAT, ("x",))
        with pytest.raises(ConvexmodError, match="qplus"):
            render_interval(A, ("x",))


class TestPolygonRendering:
    def test_segment(self):
        A = ev("x1 | x2", ("x1", "x2"))
        assert render_polygon(A, ("x1", "x2")) == [
            (F(0), F(1)), (F(1), F(0))]

    def test_triangle_ccw_from_lex_least(self):
        A = ev("x | y | (x + 3.y)", ("x", "y"))
        assert render_polygon(A, ("x", "y")) == [
            (F(0), F(1)), (F(1), F(0)), (F(1), F(3))]

    def test_square(self):
        A = ev("0 | x | y | (x + y)", ("x", "y"))
        assert render_polygon(A, ("x", "y")) == [
            (F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]

    def test_interior_point_dropped(self):
        A = ev("x | y | (x + y) | (1/2.x + 1/2.y)", ("x", "y"))
        assert render_polygon(A, ("x", "y")) == [
            (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]

    def test_collinear_collapses_to_endpoints(self):
        A = ev("x | 2.x | 3.x", ("x", "y"))
        assert render_polygon(A, ("x", "y")) == [(F(1), F(0)), (F(3), F(0))]

    def test_single_point(self):
        A = ev("x + 2.y", ("x", "y"))
        assert render_polygon(A, ("x", "y")) == [(F(1), F(2))]

    def test_zero_point(self):
        assert render_polygon(ev("0"), ("x", "y")) == [(F(0), F(0))]

    def test_empty(self):
        assert render_polygon(ev("bot"), ("x", "y")) is None

    def test_three_variables_rejected(self):
        A = ev("x + y + z", ("x", "y", "z"))
        with pytest.raises(DimensionMismatchError):
            render_polygon(A)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.fractions(0, 6, max_denominator=3),
                              st.fractions(0, 6, max_denominator=3)),
                    min_size=1, max_size=9))
    def test_orientation_is_counterclockwise(self, points):
        """The vertices are the generator points, start at the least one,
        and every cyclic triple turns strictly left."""
        A = hull_canonicalize([finsupp(QPLUS, [("x", px), ("y", py)])
                               for px, py in points], QPLUS)
        pts = render_polygon(A, ("x", "y"))
        assert sorted(pts) == sorted(
            (F(g.value("x")), F(g.value("y"))) for g in A.generators)
        assert pts[0] == min(pts)
        n = len(pts)
        for i in range(n if n >= 3 else 0):
            a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
            assert ((b[0] - a[0]) * (c[1] - b[1])
                    - (b[1] - a[1]) * (c[0] - b[0])) > 0


class TestTermEqual:
    def test_convexity_instance(self):
        assert term_equal(parse("x | y", QPLUS),
                          parse("x | y | (1/2.x + 1/2.y)", QPLUS),
                          QPLUS, ("x", "y"))

    def test_bot_absorbs_sums(self):
        assert term_equal(parse("x + bot", QPLUS), parse("bot", QPLUS),
                          QPLUS, ("x",))

    def test_distinct_variables_differ(self):
        assert not term_equal(parse("x", QPLUS), parse("y", QPLUS),
                              QPLUS, ("x", "y"))

    def test_scaling_by_zero_versus_bot(self):
        assert not term_equal(parse("0.bot", QPLUS), parse("bot", QPLUS),
                              QPLUS, ("x",))


def _random_term(rng, sr, depth=3):
    variables = ("x", "y", "z")
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(6)
        if pick == 0:
            return Bot()
        if pick == 1:
            return Zero()
        return Var(rng.choice(variables))
    pick = rng.randrange(3)
    if pick == 0:
        if sr.id == "qplus":
            lam = F(rng.randrange(0, 7), rng.randrange(1, 5))
        elif sr.id == "nat":
            lam = rng.randrange(0, 4)
        else:
            lam = rng.randrange(0, 2)
        return Scale(lam, _random_term(rng, sr, depth - 1))
    if pick == 1:
        return Add(_random_term(rng, sr, depth - 1),
                   _random_term(rng, sr, depth - 1))
    return Join(_random_term(rng, sr, depth - 1),
                _random_term(rng, sr, depth - 1))


def _random_scalar(rng, sr, nonzero=False):
    if sr.id == "qplus":
        v = F(rng.randrange(1 if nonzero else 0, 7), rng.randrange(1, 5))
    elif sr.id == "nat":
        v = rng.randrange(1 if nonzero else 0, 4)
    else:
        v = 1 if nonzero else rng.randrange(0, 2)
    return v


# each schema maps freshly drawn subterms and scalars to (lhs, rhs);
# scalar arithmetic inside a schema goes through the semiring
AXIOM_SCHEMAS = [
    ("join_assoc", lambda s, t, u, l, m, sr: (Join(Join(s, t), u),
                                              Join(s, Join(t, u)))),
    ("join_comm", lambda s, t, u, l, m, sr: (Join(s, t), Join(t, s))),
    ("join_unit", lambda s, t, u, l, m, sr: (Join(s, Bot()), s)),
    ("join_idem", lambda s, t, u, l, m, sr: (Join(s, s), s)),
    ("add_assoc", lambda s, t, u, l, m, sr: (Add(Add(s, t), u),
                                             Add(s, Add(t, u)))),
    ("add_comm", lambda s, t, u, l, m, sr: (Add(s, t), Add(t, s))),
    ("add_unit", lambda s, t, u, l, m, sr: (Add(s, Zero()), s)),
    ("scale_zero_term", lambda s, t, u, l, m, sr: (Scale(l, Zero()),
                                                   Zero())),
    ("scale_by_zero", lambda s, t, u, l, m, sr: (Scale(sr.zero, s), Zero())),
    ("scale_by_one", lambda s, t, u, l, m, sr: (Scale(sr.one, s), s)),
    ("scale_compose", lambda s, t, u, l, m, sr: (Scale(sr.mul(l, m), s),
                                                 Scale(l, Scale(m, s)))),
    ("scale_over_add", lambda s, t, u, l, m, sr: (
        Scale(l, Add(s, t)), Add(Scale(l, s), Scale(l, t)))),
    ("scalar_sum", lambda s, t, u, l, m, sr: (
        Scale(sr.add(l, m), s), Add(Scale(l, s), Scale(m, s)))),
    ("bot_scale_nonzero", lambda s, t, u, l, m, sr: (Scale(l, Bot()),
                                                     Bot())),
    ("bot_absorbs_add", lambda s, t, u, l, m, sr: (Add(s, Bot()), Bot())),
    ("scale_over_join", lambda s, t, u, l, m, sr: (
        Scale(l, Join(s, t)), Join(Scale(l, s), Scale(l, t)))),
    ("add_over_join", lambda s, t, u, l, m, sr: (
        Add(s, Join(t, u)), Join(Add(s, t), Add(s, u)))),
]

# schemas whose scalar slots must be nonzero for the law to apply
NONZERO_SCALAR_SCHEMAS = {"bot_scale_nonzero"}


class TestAxiomSoundness:
    @pytest.mark.parametrize("name,schema", AXIOM_SCHEMAS,
                             ids=[n for n, _ in AXIOM_SCHEMAS])
    @pytest.mark.parametrize("srid", ["qplus", "bool"])
    def test_schema_holds_under_random_instantiation(self, name, schema,
                                                     srid):
        sr = get_semiring(srid)
        rng = random.Random(f"{name}:{srid}")
        nonzero = name in NONZERO_SCALAR_SCHEMAS
        for _ in range(25):
            s = _random_term(rng, sr)
            t = _random_term(rng, sr)
            u = _random_term(rng, sr)
            lam = _random_scalar(rng, sr, nonzero=nonzero)
            mu = _random_scalar(rng, sr, nonzero=nonzero)
            lhs, rhs = schema(s, t, u, lam, mu, sr)
            assert term_equal(lhs, rhs, sr, ("x", "y", "z")), (
                f"{name} fails over {srid} with "
                f"s={format_term(s)} t={format_term(t)} u={format_term(u)} "
                f"lam={lam} mu={mu}")

    def test_scaling_bot_by_zero_is_not_bot(self):
        # the nonzero proviso on bot scaling is necessary
        assert not term_equal(Scale(F(0), Bot()), Bot(), QPLUS, ("x",))

    def test_scalar_sum_fails_over_nat(self):
        # the axiom set presents the composite construction only for
        # positive semifields; over nat the Minkowski sum of a set with
        # a scaled copy of itself contains mixed points the hull cannot
        # absorb, so (1+3).(z|x) strictly contains nothing extra while
        # 1.(z|x) + 3.(z|x) picks up z + 3.x
        lhs = parse("4.(z | x)", NAT)
        rhs = parse("1.(z | x) + 3.(z | x)", NAT)
        assert not term_equal(lhs, rhs, NAT, ("x", "z"))
        mixed = finsupp(NAT, [("z", 1), ("x", 3)])
        assert member(eval_term(rhs, NAT, ("x", "z")), mixed)
        assert not member(eval_term(lhs, NAT, ("x", "z")), mixed)


class TestSynthesis:
    def test_empty_gives_bot(self):
        A = ev("bot")
        assert synthesize_term(A) == Bot()

    def test_round_trips_random_sets(self):
        rng = random.Random(11)
        variables = ("x", "y", "z")
        for _ in range(60):
            gens = []
            for _ in range(rng.randrange(0, 5)):
                items = [(v, F(rng.randrange(0, 6), rng.randrange(1, 4)))
                         for v in variables if rng.random() < 0.7]
                gens.append(finsupp(QPLUS, items))
            A = hull_canonicalize(gens, QPLUS) if gens else ev("bot")
            t = synthesize_term(A)
            assert cs_equal(eval_term(t, QPLUS, variables), A)

    def test_round_trips_over_bool(self):
        rng = random.Random(13)
        variables = ("x", "y")
        for _ in range(40):
            gens = [finsupp(BOOL, [(v, 1) for v in variables
                                   if rng.random() < 0.6])
                    for _ in range(rng.randrange(1, 4))]
            A = hull_canonicalize(gens, BOOL)
            t = synthesize_term(A)
            assert cs_equal(eval_term(t, BOOL, variables), A)

    def test_printed_synthesis_reparses(self):
        A = ev("x | y | (x + 3.y)", ("x", "y"))
        t = synthesize_term(A)
        assert parse(format_term(t), QPLUS) == t


class TestFreeVariables:
    def test_collects_sorted_unique(self):
        t = parse("z + 2.(x | z) + bot", QPLUS)
        assert free_variables(t) == ("x", "z")

    def test_closed_term(self):
        assert free_variables(parse("0 | bot", QPLUS)) == ()

    def test_summands_3000(self):
        t = parse(" + ".join(["x"] * 3000) + " | y", QPLUS)
        assert free_variables(t) == ("x", "y")


class TestOneWalk:
    """Evaluation, printing and variable collection share one walk."""

    @pytest.mark.parametrize("walk", [
        format_term, free_variables,
        lambda t: eval_term(t, QPLUS, ("x",))],
        ids=["format_term", "free_variables", "eval_term"])
    @pytest.mark.parametrize("t", [
        Add(Var("x"), "junk"), Scale(1, object())], ids=["add", "scale"])
    def test_foreign_node_refused(self, walk, t):
        with pytest.raises(ConvexmodError, match="not a term"):
            walk(t)

    def test_only_the_walk_keeps_a_traversal_stack(self):
        """A function with a traversal stack pushes ``(node, True)``
        for a node whose operands come first; only ``_postorder`` may."""
        tree = ast.parse(Path(terms.__file__).read_text(encoding="utf-8"))
        found = sorted(
            fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Tuple) and len(node.elts) == 2
                    and isinstance(node.elts[1], ast.Constant)
                    and node.elts[1].value is True
                    for node in ast.walk(fn)))
        assert found == ["_postorder"]


class TestTermFiles:
    def test_lines_comments_and_blanks(self):
        text = "# header\nx | y\n\n  1/2.x + 1/2.y  # tail comment\n"
        out = parse_term_lines(text, QPLUS)
        assert [(n, format_term(t)) for n, t in out] == [
            (2, "x | y"), (4, "1/2.x + 1/2.y")]

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_term_lines("x\ny +\n", QPLUS)

    def test_load_from_disk(self, tmp_path):
        p = tmp_path / "terms.txt"
        p.write_text("x | 0  # a segment\nbot\n", encoding="utf-8")
        out = load_term_file(str(p), QPLUS)
        assert [(n, format_term(t)) for n, t in out] == [
            (1, "x | 0"), (2, "bot")]


class TestConvexityLaw:
    def test_random_convex_combinations_are_absorbed(self):
        rng = random.Random(2)
        for _ in range(30):
            t1 = _random_term(rng, QPLUS)
            t2 = _random_term(rng, QPLUS)
            alpha = F(rng.randrange(0, 5), 4)
            beta = 1 - alpha
            lhs = Join(t1, t2)
            rhs = Join(lhs, Add(Scale(alpha, t1), Scale(beta, t2)))
            assert term_equal(lhs, rhs, QPLUS, ("x", "y", "z"))


_SCALARS = {
    "qplus": st.fractions(min_value=0, max_value=3, max_denominator=3),
    "nat": st.integers(0, 3),
    "bool": st.integers(0, 1),
}


@st.composite
def _repeating_terms(draw, sr, count=1):
    """``count`` terms built from one pool of subterms: each step puts
    a scaling, sum or join of pool members back into the pool, so later
    members repeat earlier ones, often several times over."""
    leaf = st.one_of(st.just(Bot()), st.just(Zero()),
                     st.sampled_from([Var("x"), Var("y"), Var("z")]))
    pool = draw(st.lists(leaf, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from([Scale, Add, Join]))
        left = draw(st.sampled_from(pool))
        if kind is Scale:
            pool.append(Scale(sr.validate(draw(_SCALARS[sr.id])), left))
        else:
            pool.append(kind(left, draw(st.sampled_from(pool))))
    return [pool[-1]] + draw(st.lists(st.sampled_from(pool),
                                      min_size=count - 1,
                                      max_size=count - 1))


def _compound_subterms(*ts):
    """The distinct compound subterms of the terms, by kind."""
    seen = set()
    todo = list(ts)
    while todo:
        node = todo.pop()
        if isinstance(node, Scale):
            seen.add(node)
            todo.append(node.body)
        elif isinstance(node, (Add, Join)):
            seen.add(node)
            todo += [node.left, node.right]
    return {kind: sum(isinstance(n, kind) for n in seen)
            for kind in (Scale, Add, Join)}


def _count_operations(monkeypatch):
    """Counts of the set operations that ``terms`` calls, by the term
    kind that calls each."""
    counts = {Scale: 0, Add: 0, Join: 0}
    for name, kind in (("cs_scale", Scale), ("cs_add", Add),
                       ("cs_join_all", Join)):
        def counted(*args, _fn=getattr(terms, name), _kind=kind):
            counts[_kind] += 1
            return _fn(*args)
        monkeypatch.setattr(terms, name, counted)
    return counts


class TestMemo:
    """``eval_term`` computes each distinct subterm once, within a term
    and across the calls that share one memo, and agrees with the
    walk that computes every occurrence."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("sr", [BOOL, NAT, QPLUS], ids=lambda s: s.id)
    def test_matches_the_memo_free_walk(self, sr, data):
        t1, t2 = data.draw(_repeating_terms(sr, count=2))
        variables = ("x", "y", "z")
        assert (eval_term(t1, sr, variables)
                == eval_term_by_walk(t1, sr, variables))
        memo: dict = {}
        for t in (t1, t2):
            assert (eval_term(t, sr, variables, memo)
                    == eval_term_by_walk(t, sr, variables))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("sr", [BOOL, QPLUS], ids=lambda s: s.id)
    def test_each_distinct_subterm_computed_once(self, sr, data):
        t1, t2 = data.draw(_repeating_terms(sr, count=2))
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_operations(mp)
            eval_term(t1, sr, ("x", "y", "z"))
            assert counts == _compound_subterms(t1)
            counts.update(dict.fromkeys(counts, 0))
            term_equal(t1, t2, sr, ("x", "y", "z"))
            assert counts == _compound_subterms(t1, t2)

    def test_shared_subterms_counted(self, monkeypatch):
        counts = _count_operations(monkeypatch)
        t = parse("(x | y) + 1/2.(x | y) | 1/2.(x | y) + (x | y)", QPLUS)
        eval_term(t, QPLUS, ("x", "y"))
        assert counts == {Scale: 1, Add: 2, Join: 2}

    def test_left_nested_sum_of_10000_nodes(self):
        # 5,001 summands and 5,000 sums, each key flat: hashing a key
        # never walks into the term, whose depth is 5,000.
        t = reduce(Add, [Var("x"), Var("y")] * 2500 + [Var("x")])
        A = eval_term(t, QPLUS, ("x", "y"))
        assert [dict(g.items()) for g in A.generators] == [
            {"x": F(2501), "y": F(2500)}]

    def test_memo_keeps_refusing_unbound_variables(self):
        memo: dict = {}
        eval_term(parse("x + y", QPLUS), QPLUS, ("x", "y"), memo)
        with pytest.raises(UnmappedSymbolError, match="'y'"):
            eval_term(parse("x + y", QPLUS), QPLUS, ("x",), memo)
