import ast
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexmod.errors import (
    ConvexmodError,
    NoDecisionProcedureError,
    NotInvertibleError,
    NotRefinementInstanceError,
    NotSemifieldError,
    SemiringMismatchError,
)
from convexmod import semiring
from convexmod.freemod import finsupp, fs_unit
from convexmod.semiring import (
    BOOL,
    HULL_LOOKUP,
    NAT,
    QPLUS,
    SEMIRINGS,
    check_property,
    get_semiring,
    refinement_witness,
)

nonneg = st.fractions(min_value=0, max_value=8, max_denominator=8)


class TestArith:
    def test_bool_or_is_add(self):
        assert BOOL.add(1, 1) == 1
        assert BOOL.add(0, 0) == 0
        assert BOOL.mul(1, 0) == 0

    def test_qplus_mul_unit(self):
        a = Fraction(7, 3)
        assert QPLUS.mul(a, Fraction(1)) == a

    def test_qplus_division_reduces_to_lowest_terms(self):
        r = QPLUS.div(Fraction(2, 5), Fraction(9, 13))
        assert r == Fraction(26, 45)
        assert (r.numerator, r.denominator) == (26, 45)

    def test_division_by_zero_rejected(self):
        with pytest.raises(NotInvertibleError, match="not invertible"):
            QPLUS.div(Fraction(1), Fraction(0))
        with pytest.raises(NotInvertibleError, match="not invertible"):
            BOOL.div(1, 0)

    def test_nat_division_rejected(self):
        with pytest.raises(NotSemifieldError, match="not a semifield"):
            NAT.div(4, 2)

    def test_bool_division_total_on_nonzero(self):
        assert BOOL.div(1, 1) == 1
        assert BOOL.div(0, 1) == 0

    @given(nonneg, nonneg)
    def test_qplus_add_commutes(self, a, b):
        assert QPLUS.add(a, b) == QPLUS.add(b, a)

    @given(nonneg, nonneg.filter(lambda v: v != 0))
    def test_qplus_div_inverts_mul(self, a, b):
        assert QPLUS.mul(QPLUS.div(a, b), b) == a


class TestRefinementWitness:
    def test_worked_instance(self):
        assert refinement_witness(QPLUS, 1, 2, 3, 0) == (
            Fraction(1), Fraction(0), Fraction(2), Fraction(0))

    def test_all_zero_instance(self):
        assert refinement_witness(QPLUS, 0, 0, 0, 0) == (
            Fraction(0), Fraction(0), Fraction(0), Fraction(0))

    def test_bool_instance(self):
        assert refinement_witness(BOOL, 1, 1, 1, 1) == (1, 1, 1, 1)

    def test_unbalanced_sums_rejected(self):
        with pytest.raises(NotRefinementInstanceError,
                           match="not a refinement instance"):
            refinement_witness(QPLUS, 1, 0, 3, 4)

    def test_nat_rejected(self):
        with pytest.raises(NotSemifieldError):
            refinement_witness(NAT, 1, 1, 2, 0)

    @given(nonneg, nonneg, nonneg)
    def test_witness_satisfies_all_four_sums(self, a, b, c):
        # Force the precondition by deriving d from the other three.
        if c > a + b:
            c = a + b
        d = a + b - c
        x, y, z, t = refinement_witness(QPLUS, a, b, c, d)
        assert x + y == a
        assert z + t == b
        assert x + z == c
        assert y + t == d
        assert min(x, y, z, t) >= 0

    def test_bool_witness_all_16_instances(self):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    for d in (0, 1):
                        if (a | b) != (c | d):
                            continue
                        x, y, z, t = refinement_witness(BOOL, a, b, c, d)
                        assert (x | y, z | t, x | z, y | t) == (a, b, c, d)


EXPECTED_MATRIX = {
    ("bool", "positive"): "pass",
    ("bool", "semifield"): "pass",
    ("bool", "refinable"): "pass",
    ("bool", "A"): "fail",
    ("bool", "B"): "pass",
    ("bool", "C"): "fail",
    ("bool", "D"): "pass",
    ("bool", "E"): "pass",
    ("nat", "positive"): "pass",
    ("nat", "semifield"): "fail",
    ("nat", "refinable"): "pass",
    ("nat", "A"): "pass",
    ("nat", "B"): "pass",
    ("nat", "C"): "pass",
    ("nat", "D"): "pass",
    ("nat", "E"): "pass",
    ("qplus", "positive"): "pass",
    ("qplus", "semifield"): "pass",
    ("qplus", "refinable"): "pass",
    ("qplus", "A"): "fail",
    ("qplus", "B"): "pass",
    ("qplus", "E"): "pass",
}


class TestCheckProperty:
    @pytest.mark.parametrize("srid,prop", sorted(EXPECTED_MATRIX))
    def test_property_matrix(self, srid, prop):
        sr = get_semiring(srid)
        report = check_property(sr, prop, bound=10)
        assert report.status == EXPECTED_MATRIX[(srid, prop)]

    def test_bool_join_refutes_onehot_sum(self):
        report = check_property(BOOL, "A")
        assert report.counterexample == {"a": 1, "b": 1, "a+b": 1}

    def test_nat_onehot_sum_at_bound_ten(self):
        assert check_property(NAT, "A", bound=10).passed

    def test_bool_positive(self):
        assert check_property(BOOL, "positive").passed

    def test_qplus_half_plus_half_counterexample(self):
        report = check_property(QPLUS, "A")
        assert not report.passed
        assert report.counterexample["a"] == Fraction(1, 2)
        assert report.counterexample["b"] == Fraction(1, 2)

    def test_declared_properties_all_confirmed(self):
        for sr in SEMIRINGS.values():
            for prop in sorted(sr.declared_properties):
                report = check_property(sr, prop, bound=10)
                assert report.passed, (sr.id, prop, report.counterexample)

    def test_qplus_cancellation_has_no_decision_procedure(self):
        for prop in ("C", "D"):
            with pytest.raises(NoDecisionProcedureError,
                               match="no decision procedure"):
                check_property(QPLUS, prop)

    def test_unknown_property_rejected(self):
        with pytest.raises(NoDecisionProcedureError):
            check_property(BOOL, "F")

    def test_reports_serialize(self):
        report = check_property(QPLUS, "A")
        d = report.to_json_dict()
        assert d["status"] == "fail"
        assert d["counterexample"]["a"] == "1/2"

    @pytest.mark.parametrize("srid,prop", sorted(EXPECTED_MATRIX))
    def test_report_meets_its_declared_expectation(self, srid, prop):
        """The expected outcome comes from ``declared_properties``,
        before the run; the meta also counts the instances checked."""
        sr = get_semiring(srid)
        report = check_property(sr, prop, bound=10)
        assert report.met
        expected = "pass" if prop in sr.declared_properties else "fail"
        assert list(report.meta)[:2] == ["expected", "instances"]
        assert report.meta["expected"] == expected
        if srid == "nat":
            assert report.meta["bound"] == 10
        else:
            assert "bound" not in report.meta

    @pytest.mark.parametrize("srid,prop", sorted(EXPECTED_MATRIX))
    def test_every_report_serializes(self, srid, prop):
        report = check_property(get_semiring(srid), prop, bound=10)
        d = json.loads(json.dumps(report.to_json_dict()))
        assert (d["law"], d["semiring"]) == (f"property:{prop}", srid)
        assert d["meta"]["expected"] == report.meta["expected"]

    @pytest.mark.parametrize("prop,instances", [
        ("positive", 4), ("semifield", 2), ("refinable", 16), ("B", 4),
        ("D", 4), ("E", 16)])
    def test_bool_pass_walks_every_instance(self, prop, instances):
        assert check_property(BOOL, prop).meta["instances"] == instances

    def test_nat_pass_walks_every_instance_up_to_the_bound(self):
        report = check_property(NAT, "C", bound=3)
        assert report.meta == {"expected": "pass", "instances": 4 ** 3,
                               "bound": 3}

    def test_qplus_A_runs_the_check_on_one_instance(self):
        report = check_property(QPLUS, "A")
        assert (report.status, report.mode) == ("fail", "exhaustive")
        assert report.meta == {"expected": "fail", "instances": 1}
        assert report.counterexample == {
            "a": Fraction(1, 2), "b": Fraction(1, 2), "a+b": Fraction(1)}

    def test_qplus_A_verdict_comes_from_the_check(self, monkeypatch):
        """With the A check made to hold everywhere, the frozen instance
        no longer refutes it: the report passes, against its
        expectation."""
        monkeypatch.setitem(semiring._PROPERTIES, "A",
                            (2, lambda sr, values, a, b: None))
        report = check_property(QPLUS, "A")
        assert report.passed
        assert not report.met
        assert report.counterexample is None
        assert report.meta == {"expected": "fail", "instances": 1}

    @pytest.mark.parametrize("prop", ["positive", "semifield", "refinable",
                                      "B", "E"])
    def test_qplus_by_theorem_runs_no_instance(self, prop):
        report = check_property(QPLUS, prop)
        assert (report.status, report.mode) == ("pass", "by_theorem")
        assert report.detail
        assert report.meta == {"expected": "pass", "instances": 0}


class TestScalarIO:
    def test_parse_and_format_roundtrip(self):
        assert QPLUS.parse_scalar("2/5") == Fraction(2, 5)
        assert QPLUS.parse_scalar("3") == Fraction(3)
        assert QPLUS.format_scalar(Fraction(26, 45)) == "26/45"
        assert BOOL.parse_scalar("1") == 1
        assert NAT.format_scalar(7) == "7"

    @pytest.mark.parametrize("text", [
        "0", "7", " 3/4 ", "04/06", "0/5", "12345678901234567890/3",
        "1_000", "+2", "0.25", "1 / 2", "\u0661", "\u00b2"])
    def test_plain_literals_read_as_fraction_does(self, text):
        # Plain ASCII p and p/q take two int calls; every other
        # literal still goes through Fraction.
        try:
            want = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ConvexmodError,
                               match="invalid rational literal"):
                QPLUS.parse_scalar(text)
            return
        got = QPLUS.parse_scalar(text)
        assert (got, type(got)) == (want, Fraction)

    def test_zero_denominator_message(self):
        with pytest.raises(ConvexmodError) as exc:
            QPLUS.parse_scalar(" 3/0")
        assert str(exc.value) == "invalid rational literal: ' 3/0'"

    def test_negative_rational_rejected(self):
        with pytest.raises(Exception):
            QPLUS.parse_scalar("-1/2")

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(5, 3),
                                       Fraction(7)])
    def test_nonnegative_qplus_fraction_returned_as_is(self, value):
        assert QPLUS.validate(value) is value

    @pytest.mark.parametrize("value, message", [
        (Fraction(-1, 2), "qplus scalar must be non-negative: -1/2"),
        (-2, "qplus scalar must be non-negative: -2"),
        (True, "invalid qplus scalar: True"),
        (0.5, "invalid qplus scalar: 0.5")])
    def test_invalid_qplus_scalar_message(self, value, message):
        with pytest.raises(ConvexmodError) as exc:
            QPLUS.validate(value)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value, want", [
        (True, 1), (False, 0), (1, 1), (0, 0), ("1", 1), ("false", 0)])
    def test_bool_json_scalar_read(self, value, want):
        assert BOOL.scalar_from_json(value) == want

    @pytest.mark.parametrize("value", [1.0, 0.0, 2, -1, None, [1]])
    def test_bool_json_scalar_refused(self, value):
        with pytest.raises(ConvexmodError) as exc:
            BOOL.scalar_from_json(value)
        assert str(exc.value) == f"invalid bool scalar in JSON: {value!r}"

    def test_unknown_semiring_rejected(self):
        with pytest.raises(Exception):
            get_semiring("tropical")


class TestHandleFacts:
    @pytest.mark.parametrize("sr", [BOOL, QPLUS, NAT])
    def test_every_subset_convex_matches_decided_property_A(self, sr):
        assert (sr.hull_membership == HULL_LOOKUP) == \
            check_property(sr, "A", bound=3).passed

    def test_no_module_branches_on_a_semiring_id(self):
        """Behaviour that depends on the semiring reads a fact from the
        handle, in the semiring module too: no module compares a
        handle's id, or a handle itself, against a named semiring."""
        src = Path(__file__).resolve().parents[1] / "src" / "convexmod"
        found = [
            f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1)
            if SEMIRING_BRANCH.search(line)]
        assert found == []

    @pytest.mark.parametrize("line, flagged", [
        ('if sr.id == "bool":', True),
        ("if sr.id in ('bool', 'nat'):", True),
        ('if "qplus" != A.semiring.id:', True),
        ("if sr is not BOOL:", True),
        ("if sr is QPLUS or sr == NAT:", True),
        ("ok = BOOL != handle", True),
        ("if a.semiring.id != b.semiring.id:", False),
        ("sr = get_semiring(name or BOOL.id)", False),
        ("def check_appendix_a(sr: Semiring = BOOL, xsize: int = 3", False),
        ("if sr.enumeration != MODE_EXHAUSTIVE:", False),
    ])
    def test_branch_scan_flags_each_comparison(self, line, flagged):
        assert bool(SEMIRING_BRANCH.search(line)) == flagged

    def test_law_reports_built_by_the_driver_only(self):
        """Every ``LawReport`` comes from ``report.law_report``, which
        fixes its metadata."""
        src = Path(__file__).resolve().parents[1] / "src" / "convexmod"
        found = sorted(
            (path.name, owner)
            for path in src.glob("*.py")
            for owner in law_report_builders(
                ast.parse(path.read_text(encoding="utf-8"))))
        assert found == [("report.py", "law_report")]

    def test_one_semiring_check(self):
        """Values over two semirings are refused in one place: only
        ``Semiring.refuse_foreign`` raises ``SemiringMismatchError``,
        and no module but ``semiring`` compares a value's
        ``semiring.id``."""
        src = Path(__file__).resolve().parents[1] / "src" / "convexmod"
        raises, compares = [], []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            raises.extend((path.name, owner)
                          for owner in mismatch_raises(tree))
            if path.name != "semiring.py":
                compares.extend(f"{path.name}:{lineno}"
                                for lineno in semiring_id_comparisons(tree))
        assert raises == [("semiring.py", "Semiring.refuse_foreign")]
        assert compares == []

    @pytest.mark.parametrize("code, raises, compares", [
        ("raise SemiringMismatchError('mixed')", ["<module>"], []),
        ("def f():\n    raise errors.SemiringMismatchError", ["f"], []),
        ("class C:\n    def m(self):\n"
         "        raise SemiringMismatchError(f'{x}')", ["C.m"], []),
        ("raise ConvexmodError('mixed semirings')", [], []),
        ("if a.semiring.id != b.semiring.id:\n    pass", [], [1]),
        ("ok = sr.id == phi.semiring.id", [], [1]),
        ("ok = (a == b\n      and f.semiring.id == g.semiring.id)", [], [2]),
        ("if b.semiring is not sr:\n    sr.refuse_foreign('v', b)", [], []),
        ("h = hash((self.semiring.id, self.entries))", [], []),
        ("if sr.id != other.id:\n    pass", [], []),
    ])
    def test_check_scan_flags_each_site(self, code, raises, compares):
        tree = ast.parse(code)
        assert mismatch_raises(tree) == raises
        assert semiring_id_comparisons(tree) == compares

    def test_refuse_foreign_names_the_first_foreign_value(self):
        q, b = fs_unit(QPLUS, "x"), fs_unit(BOOL, "x")
        QPLUS.refuse_foreign("value", q, q)
        n = finsupp(NAT, [("x", 2)])
        with pytest.raises(SemiringMismatchError) as exc:
            QPLUS.refuse_foreign("value", q, b, n)
        assert str(exc.value) == "value over bool in a qplus set"

    def test_builder_scan_names_each_caller(self):
        code = """
top = LawReport(name="a")
def outer():
    def inner():
        return report.LawReport(name="b")
    return LawReport(name="c"), LawReports(), make(LawReport)
"""
        assert law_report_builders(ast.parse(code)) == [
            "<module>", "inner", "outer"]

    def test_no_module_hashes_a_sort_key(self):
        """Dedup dicts and sets key on the values, whose hash is cached;
        hashing an ``_skey`` would rehash every nested scalar."""
        src = Path(__file__).resolve().parents[1] / "src" / "convexmod"
        found = [
            f"{path.name}:{lineno}"
            for path in sorted(src.glob("*.py"))
            for lineno in skey_hash_sites(
                ast.parse(path.read_text(encoding="utf-8")))]
        assert found == []

    def test_scan_flags_each_hashing_form(self):
        code = """
seen[phi._skey] = phi
out = {A._skey: A for A in sets}
keys = {(p._skey, q._skey) for p, q in pairs}
same = {p._skey for p in a} == set(p._skey for p in b)
if A._skey in collapsed:
    pass
h = hash(self._skey)
d = {self._skey: 1}
ok = self._skey == other._skey and sorted(xs, key=lambda p: p._skey)
"""
        assert skey_hash_sites(ast.parse(code)) == [2, 3, 4, 5, 5, 6, 8, 9]


# A branch on a semiring's identity: its id against a string literal,
# or a handle against one of the named handles by ``is``, ``is not``,
# ``==`` or ``!=``, on either side.
SEMIRING_BRANCH = re.compile(
    r"""\.id\s*(==|!=|not\s+in|in)\s*["'(]"""
    r"""|["']\s*(==|!=)\s*[\w.]*\.id\b"""
    r"""|(\bis(\s+not)?|==|!=)\s*\b(BOOL|QPLUS|NAT)\b"""
    r"""|\b(BOOL|QPLUS|NAT)\s*(\bis\b|==|!=)""")


def law_report_builders(tree: ast.AST) -> list[str]:
    """The name of the innermost function around each ``LawReport(...)``
    call, in source order; ``<module>`` outside any function."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "LawReport":
                    found.append(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(tree, "<module>")
    return found


def mismatch_raises(tree: ast.AST) -> list[str]:
    """The dotted name of the classes and functions around each
    ``raise SemiringMismatchError`` (called or not, by its bare or its
    module-qualified name), in source order; ``<module>`` outside any."""
    found = []

    def visit(node: ast.AST, owner: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                name = getattr(exc, "id", None) or getattr(exc, "attr", None)
                if name == "SemiringMismatchError":
                    found.append(".".join(owner) or "<module>")
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            visit(child, owner + [child.name] if scope else owner)

    visit(tree, [])
    return found


def semiring_id_comparisons(tree: ast.AST) -> list[int]:
    """Sorted line numbers of each ``==`` or ``!=`` comparison with a
    ``<value>.semiring.id`` operand."""
    def reads_id(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "id"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "semiring")

    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(reads_id(part) for part in [node.left, *node.comparators]))


HASHING_CALLS = {"hash", "set", "frozenset", "fromkeys", "add",
                 "setdefault", "get", "pop", "discard", "remove"}


def skey_hash_sites(tree: ast.AST) -> list[int]:
    """Sorted line numbers where an expression reading ``._skey`` is
    hashed: a subscript, a dict or set key, an ``in`` test, or the
    first argument of a hashing call."""
    hashed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            hashed.append(node.slice)
        elif isinstance(node, ast.Dict):
            hashed.extend(k for k in node.keys if k is not None)
        elif isinstance(node, ast.DictComp):
            hashed.append(node.key)
        elif isinstance(node, ast.Set):
            hashed.extend(node.elts)
        elif isinstance(node, ast.SetComp):
            hashed.append(node.elt)
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                hashed.append(node.left)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in HASHING_CALLS:
                hashed.append(node.args[0])
    return sorted(
        part.lineno for part in hashed
        if any(isinstance(n, ast.Attribute) and n.attr == "_skey"
               for n in ast.walk(part)))
