"""CLI behavior: exit codes, output shapes, determinism."""

import glob
import io
import json
import os
import subprocess
import sys

import pytest

from convexmod import distlaw
from convexmod import terms as terms_module
from convexmod.cli import main
from convexmod.errors import InternalError

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def subprocess_env(**extra):
    """Environment for a ``python -m convexmod`` child: pytest's
    ``pythonpath`` setting does not reach child processes, so ``src``
    is put on PYTHONPATH here."""
    paths = [os.path.join(PKG_ROOT, "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
                **extra)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEq:
    def test_convexity_instance_is_equal(self, capsys):
        code, out, _ = run(capsys, "eq", "--semiring", "qplus",
                           "--vars", "x,y",
                           "x|y", "x|y|(1/2.x+1/2.y)")
        assert code == 0
        assert out == "equal\n"

    def test_unequal_exits_one_with_witness(self, capsys):
        code, out, _ = run(capsys, "eq", "--vars", "x", "x|2.x", "x")
        assert code == 1
        assert "unequal" in out
        assert "{x: 2}" in out

    def test_unequal_json_witness(self, capsys):
        code, out, _ = run(capsys, "eq", "--vars", "x", "--format", "json",
                           "x|2.x", "x")
        assert code == 1
        d = json.loads(out)
        assert d == {"equal": False, "side": "left", "witness": {"x": "2"}}

    def test_empty_versus_zero(self, capsys):
        code, out, _ = run(capsys, "eq", "--vars", "x", "--format", "json",
                           "bot", "0")
        assert code == 1
        d = json.loads(out)
        assert d["equal"] is False

    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, "eq", "--vars", "x", "--format", "csv",
                           "x", "x")
        assert code == 0
        assert out == "equal,side,witness\ntrue,,\n"

    @pytest.mark.parametrize("terms,side", [(("x", "bot"), "left"),
                                            (("bot", "x"), "right")],
                             ids=["right_empty", "left_empty"])
    def test_empty_side_witness_is_the_other_generator(self, capsys, terms,
                                                       side):
        code, out, _ = run(capsys, "eq", "--vars", "x", *terms)
        assert code == 1
        assert out == f"unequal: the {side} side has {{x: 1}}, " \
                      "the other does not\n"
        code, out, _ = run(capsys, "eq", "--vars", "x", "--format", "json",
                           *terms)
        assert json.loads(out) == {"equal": False, "side": side,
                                   "witness": {"x": "1"}}


    SHARED = ["(x|y)+(x|y)|0", "(x|y)+x|0"]

    @pytest.mark.parametrize("terms,fmt,code,expected", [
        (SHARED, "text",
         1, "unequal: the left side has {y: 2}, the other does not\n"),
        (SHARED[::-1], "text",
         1, "unequal: the right side has {y: 2}, the other does not\n"),
        (SHARED, "json",
         1, '{"equal": false, "side": "left", "witness": {"y": "2"}}\n'),
        (SHARED[::-1], "csv",
         1, 'equal,side,witness\nfalse,right,"{y: 2}"\n'),
        (["x|y", "(x|y)|(1/3.x+2/3.y)"], "text", 0, "equal\n"),
    ], ids=["left", "right", "json", "csv", "equal"])
    def test_shared_memo_output(self, capsys, monkeypatch, terms, fmt, code,
                                expected):
        """Both sides share one memo: the joins with (x|y), its sums
        and the two joins with 0 are computed once each, and the
        answer, witness included, is the one separate evaluations give."""
        joins = []
        original = terms_module.cs_join_all

        def counted(*args):
            joins.append(args)
            return original(*args)
        monkeypatch.setattr(terms_module, "cs_join_all", counted)
        assert run(capsys, "eq", "--vars", "x,y", "--format", fmt,
                   *terms) == (code, expected, "")
        assert len(joins) == (3 if code else 2)


class TestEval:
    def test_interval_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--semiring", "qplus",
                           "--vars", "x", "2.x|5.x", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["kind"] == "interval"
        assert (d["min"], d["max"]) == ("2", "5")
        assert d["set"]["generators"] == [{"x": "2"}, {"x": "5"}]

    def test_empty_interval_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--vars", "x", "bot",
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["min"] is None and d["max"] is None

    def test_interval_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "--vars", "x", "2.x|5.x",
                           "--format", "csv")
        assert code == 0
        assert out == "min,max\n2,5\n"

    def test_empty_interval_csv_has_header_only(self, capsys):
        code, out, _ = run(capsys, "eval", "--vars", "x", "x+bot",
                           "--format", "csv")
        assert code == 0
        assert out == "min,max\n"

    def test_polygon_text(self, capsys):
        code, out, _ = run(capsys, "eval", "--vars", "x,y",
                           "x | y | (x + 3.y)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "generators: {x: 1} {x: 1, y: 3} {y: 1}"
        assert lines[1] == "polygon: (0, 1) (1, 0) (1, 3)"

    def test_three_variables_fall_back_to_generators(self, capsys):
        code, out, _ = run(capsys, "eval", "--vars", "x,y,z",
                           "x|y|z", "--format", "json")
        assert code == 0
        assert json.loads(out)["kind"] == "generators"

    def test_bool_generators_kind(self, capsys):
        code, out, _ = run(capsys, "eval", "--semiring", "bool",
                           "--vars", "x", "x|0", "--format", "json")
        assert code == 0
        assert json.loads(out)["kind"] == "generators"

    def test_parse_error_is_usage(self, capsys):
        code, out, err = run(capsys, "eval", "--vars", "x", "x +",
                             "--format", "json")
        assert code == 2
        assert out == ""
        d = json.loads(err)
        assert d["kind"] == "parse"
        assert "position" in d["error"]

    def test_unbound_variable_is_usage(self, capsys):
        code, _, err = run(capsys, "eval", "--vars", "x", "x + y")
        assert code == 2
        assert "unbound variable" in err

    def test_zero_denominator_is_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", "--vars", "x", "1/0.x",
                             "--format", "json")
        assert code == 2
        assert out == ""
        d = json.loads(err)
        assert d["kind"] == "parse"
        assert "bad scalar for qplus: 1/0" in d["error"]

    @pytest.mark.parametrize("semiring", ["qplus", "nat", "bool"])
    @pytest.mark.parametrize("literal", ["1" * 5000, "1/" + "7" * 4301],
                             ids=["numerator", "denominator"])
    def test_literal_past_the_digit_limit_is_parse_error(
            self, capsys, semiring, literal):
        code, out, err = run(capsys, "eval", "--semiring", semiring,
                             "--vars", "x", f"x | {literal}.x")
        assert code == 2 and out == ""
        assert err == ("error: numerator or denominator longer than 4300 "
                       "digits (at position 4)\n")

    @pytest.mark.parametrize("fmt, err", [
        ("text", "error: a result's numerator or denominator is longer "
                 "than 4300 digits; it cannot be printed\n"),
        ("json", '{"error": "a result\'s numerator or denominator is '
                 'longer than 4300 digits; it cannot be printed", '
                 '"kind": "usage"}\n')])
    def test_result_past_the_digit_limit_is_usage_error(self, capsys, fmt,
                                                         err):
        # Every literal is short; 2^-15000 has 4,516 digits.
        term = "1/2." * 15000 + "x"
        assert run(capsys, "eval", "--vars", "x", "--format", fmt,
                   term) == (2, "", err)

    def test_literal_at_the_digit_limit_evaluates(self, capsys):
        code, out, _ = run(capsys, "eval", "--vars", "x",
                           "1/" + "1" * 4300 + ".x")
        assert code == 0 and out.startswith("generators: {x: 1/111")


    @pytest.mark.parametrize("term,code,line", [
        ("(" * 2000 + "x" + ")" * 2000, 2,
         "error: parentheses nested deeper than 100 (at position 100)"),
        (" + ".join(["x"] * 3000), 0, "interval: [3000, 3000]"),
        ("1/2." * 3000 + "x", 0, f"interval: [1/{2 ** 3000}, 1/{2 ** 3000}]"),
    ], ids=["parens_2000", "summands_3000", "scalings_3000"])
    def test_deep_terms(self, capsys, term, code, line):
        got, out, err = run(capsys, "eval", "--vars", "x", term)
        assert got == code
        assert line in (out if code == 0 else err).splitlines()

    @pytest.mark.parametrize("fmt,expected", [
        ("json", '{"error": "lp broke", "kind": "internal"}\n'),
        ("text", "internal error: lp broke\n"),
    ])
    def test_internal_error_exits_three(self, capsys, monkeypatch, fmt,
                                        expected):
        def broken(system, certificate=None, basis=None):
            raise InternalError("lp broke")

        monkeypatch.setattr("convexmod.convex.feasible", broken)
        # The five points span all three coordinates, where only the LP
        # can decide that 0 is a corner and the last point is inside.
        code, out, err = run(capsys, "eval", "--vars", "x,y,z",
                             "x | y | z | 0 | 1/4.x + 1/4.y + 1/4.z",
                             "--format", fmt)
        assert code == 3
        assert out == ""
        assert err == expected


class TestLaws:
    def test_weakdist_bool_xsize3_meets_expectations(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "weakdist",
                           "--semiring", "bool", "--xsize", "3",
                           "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        status = {r["law"]: r["status"] for r in rows}
        assert status == {"eta_P_triangle": "pass",
                          "mu_S_rectangle": "pass",
                          "mu_P_rectangle": "pass",
                          "eta_S_triangle": "fail"}
        eta_s = next(r for r in rows if r["law"] == "eta_S_triangle")
        assert eta_s["meta"]["expected"] == "fail"
        assert eta_s["counterexample"]

    def test_weakdist_nat_all_pass(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "weakdist",
                           "--semiring", "nat", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(r["status"] == "pass" for r in rows)

    def test_pentagon_qplus(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "pentagon",
                           "--trials", "15", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["law"] for r in rows] == [
            "pentagon:free", "pentagon:interval",
            "pentagon:interval:sum_rule"]
        assert all(r["status"] == "pass" for r in rows)

    def test_pentagon_nat_is_usage_error(self, capsys):
        code, _, err = run(capsys, "laws", "--suite", "pentagon",
                           "--semiring", "nat")
        assert code == 2
        assert "positive semifield" in err

    def test_naturality_expected_failure_met(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "naturality",
                           "--trials", "10", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        choice = next(r for r in rows if r["law"] == "choice_naturality")
        assert choice["status"] == "fail"
        assert choice["meta"]["expected"] == "fail"
        assert choice["counterexample"]["f"] == {"x": "x", "y": "y",
                                                 "z": "y"}

    def test_appendix_a(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "appendixA",
                           "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["law"] for r in rows] == [
            "appendixA:forward_image", "trivial_lifting_fixed_points"]
        assert rows[1]["meta"]["families"] == 256

    def test_text_format_marks_expected_outcomes(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "weakdist",
                           "--semiring", "bool")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("ok  fail eta_S_triangle")
                   for line in lines)
        assert not any(line.startswith("BAD") for line in lines)

    @pytest.mark.parametrize("semiring, options, violation", [
        ("bool", ("--xsize", "2"), None),
        ("qplus", ("--trials", "3"), None),
        ("nat", ("--xsize", "1"), {"A": ("x",)})],
        ids=["bool", "qplus", "nat"])
    def test_eta_S_result_cannot_meet_its_own_expectation(
            self, capsys, monkeypatch, semiring, options, violation):
        """The unit triangle on the set side is expected to fail over
        bool and qplus and to hold over nat, whatever the run finds: a
        check that answers otherwise is reported BAD and exits 1."""
        monkeypatch.setattr(distlaw, "_eta_S_violation",
                            lambda sr, A: violation)
        code, out, _ = run(capsys, "laws", "--suite", "weakdist",
                           "--semiring", semiring, *options)
        assert code == 1
        bad = [line for line in out.splitlines() if line.startswith("BAD")]
        assert len(bad) == 1 and " eta_S_triangle " in bad[0]

    @pytest.mark.parametrize("semiring", ["bool", "qplus"])
    def test_eta_S_holds_without_a_two_element_set(self, capsys, semiring):
        """At xsize 1 no subset has two elements, so the unit triangle
        on the set side is expected to hold over bool and qplus too."""
        code, out, _ = run(capsys, "laws", "--suite", "weakdist",
                           "--semiring", semiring, "--xsize", "1")
        assert code == 0
        assert any(line.startswith("ok  pass eta_S_triangle ")
                   for line in out.splitlines())

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "appendixA",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,semiring,status,mode,detail"
        assert lines[1].startswith("appendixA:forward_image,bool,pass,")

    # Also naturality, whose count (1 + N + C(N, 2)) x^x over the
    # N = 2^x - 1 nonempty sets is refused over every semiring.
    @pytest.mark.parametrize("suite, semiring, xsize, cap, count", [
        pytest.param("pentagon", "bool", "3", None, "28,158,761",
                     id="3-None-28,158,761"),
        pytest.param("pentagon", "bool", "2", 5671, "5,672",
                     id="2-5671-5,672"),
        *[pytest.param("naturality", sr, "5", None, "1,553,125",
                       id=f"naturality-{sr}-5") for sr in ("qplus", "bool",
                                                           "nat")],
        pytest.param("naturality", "qplus", "6", None, "94,105,152",
                     id="naturality-qplus-6"),
        pytest.param("naturality", "bool", "2", 27, "28",
                     id="naturality-bool-2-27")])
    def test_oversized_bool_pentagon_rejected(self, capsys, monkeypatch,
                                              suite, semiring, xsize, cap,
                                              count):
        def refuse(*_args, **_kwargs):
            raise AssertionError(f"{suite} instances were checked")
        for name in ("pentagon_check", "_weight_one_instances",
                     "_random_qplus_weighting"):
            monkeypatch.setattr(f"convexmod.distlaw.{name}", refuse)
        if cap is not None:
            monkeypatch.setitem(distlaw.LIMITS, suite, cap)
        code, out, err = run(capsys, "laws", "--suite", suite,
                             "--semiring", semiring, "--xsize", xsize)
        assert code == 2 and out == ""
        assert f"{count} instances" in err

    @pytest.mark.parametrize("xsize, cap, count", [
        ("4", None, "18,940"),
        ("3", 1423, "1,424")])
    def test_oversized_bool_weakdist_rejected(self, capsys, monkeypatch,
                                              xsize, cap, count):
        def refuse(*_args, **_kwargs):
            raise AssertionError("weakdist instances were enumerated")
        monkeypatch.setattr("convexmod.distlaw.weightings_over", refuse)
        if cap is not None:
            monkeypatch.setitem(distlaw.LIMITS, "weakdist", cap)
        code, out, err = run(capsys, "laws", "--suite", "weakdist",
                             "--semiring", "bool", "--xsize", xsize)
        assert code == 2 and out == ""
        assert f"{count} instances" in err

    @pytest.mark.parametrize("xsize, bound, cap, count", [
        ("2", "30", None, "753,997"),
        ("6", "3", None, "12,292"),
        ("2", "2", 2434, "2,435")])
    def test_oversized_nat_weakdist_rejected(self, capsys, monkeypatch,
                                             xsize, bound, cap, count):
        def refuse(*_args, **_kwargs):
            raise AssertionError("weakdist instances were enumerated")
        monkeypatch.setattr("convexmod.distlaw.weightings_over", refuse)
        if cap is not None:
            monkeypatch.setitem(distlaw.LIMITS, "weakdist", cap)
        code, out, err = run(capsys, "laws", "--suite", "weakdist",
                             "--semiring", "nat", "--xsize", xsize,
                             "--value-bound", bound)
        assert code == 2 and out == ""
        assert f"value bound {bound} enumerates {count} instances" in err

    @pytest.mark.parametrize("suite, semiring, xsize, cap, reports, bound", [
        ("weakdist", "nat", "1", 1_202, 4, ("--value-bound", "3")),
        ("naturality", "qplus", "2", 28, 2, ()),
        ("naturality", "bool", "2", 28, 2, ()),
        ("naturality", "qplus", "4", 30_976, 2, ()),
    ], ids=["weakdist-nat", "naturality-qplus-2", "naturality-bool-2",
            "naturality-qplus-4"])
    def test_nat_weakdist_at_the_cap_runs(self, capsys, monkeypatch, suite,
                                          semiring, xsize, cap, reports,
                                          bound):
        monkeypatch.setitem(distlaw.LIMITS, suite, cap)
        code, out, _ = run(capsys, "laws", "--suite", suite,
                           "--semiring", semiring, "--xsize", xsize,
                           *bound, "--format", "json")
        assert code == 0 and len(out.splitlines()) == reports

    @pytest.mark.parametrize("suite, xsize", [
        ("weakdist", "2"), ("weakdist", "6"), ("pentagon", "6"),
        ("naturality", "4")])
    @pytest.mark.parametrize("trials", ["1001", "10000000"])
    def test_oversized_trials_rejected(self, capsys, monkeypatch, suite,
                                       xsize, trials):
        def refuse(*_args, **_kwargs):
            raise AssertionError(f"{suite} drew a random instance")
        for name in ("_random_qplus_weighting", "_random_fraction"):
            monkeypatch.setattr(f"convexmod.distlaw.{name}", refuse)
        code, out, err = run(capsys, "laws", "--suite", suite,
                             "--xsize", xsize, "--trials", trials)
        assert code == 2 and out == ""
        assert err == "error: trials must be at most 1,000\n"

    @pytest.mark.parametrize("suite", ["weakdist", "pentagon", "naturality"])
    def test_trials_at_the_cap_runs(self, capsys, monkeypatch, suite):
        monkeypatch.setitem(distlaw.LIMITS, "trials", 3)
        code, out, _ = run(capsys, "laws", "--suite", suite,
                           "--trials", "3", "--format", "json")
        assert code == 0 and out
        code, out, err = run(capsys, "laws", "--suite", suite,
                             "--trials", "4")
        assert code == 2 and out == ""
        assert err == "error: trials must be at most 3\n"

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run(capsys, "laws", "--suite", "pentagon",
                           "--trials", "0")
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize("suite", ["weakdist", "appendixA"])
    @pytest.mark.parametrize("xsize", ["-1", "0", "7", "40"])
    def test_xsize_out_of_range_rejected(self, capsys, monkeypatch,
                                         suite, xsize):
        def refuse(*_args, **_kwargs):
            raise AssertionError("suite ran on an out-of-range xsize")
        for name in ("weightings_over", "_random_qplus_weighting",
                     "law_report", "trivial_lifting_fixed_points"):
            monkeypatch.setattr(f"convexmod.distlaw.{name}", refuse)
        code, out, err = run(capsys, "laws", "--suite", suite,
                             "--xsize", xsize)
        assert code == 2
        assert out == ""
        assert err == "error: xsize must be between 1 and 6\n"

    @pytest.mark.parametrize("fmt,expected", [
        ("text", "error: appendixA enumerates 2^(2^xsize) families; "
                 "xsize must be at most 4\n"),
        ("json", json.dumps({
            "error": "appendixA enumerates 2^(2^xsize) families; "
                     "xsize must be at most 4",
            "kind": "usage"}) + "\n"),
    ])
    @pytest.mark.parametrize("xsize", ["5", "6"])
    def test_appendix_a_xsize_above_cap_rejected(self, capsys, monkeypatch,
                                                 xsize, fmt, expected):
        def refuse(*_args, **_kwargs):
            raise AssertionError("appendixA enumerated above its cap")
        monkeypatch.setattr("convexmod.distlaw.trivial_lifting_fixed_points",
                            refuse)
        code, out, err = run(capsys, "laws", "--suite", "appendixA",
                             "--xsize", xsize, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == expected

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("semiring", ["qplus", "nat"])
    def test_appendix_a_non_bool_semiring_rejected(self, capsys, monkeypatch,
                                                   semiring, fmt):
        def refuse(*_args, **_kwargs):
            raise AssertionError("appendixA ran over a non-bool semiring")
        monkeypatch.setattr("convexmod.distlaw.trivial_lifting_fixed_points",
                            refuse)
        code, out, err = run(capsys, "laws", "--suite", "appendixA",
                             "--semiring", semiring, "--format", fmt)
        message = f"appendixA runs over bool only; got --semiring {semiring}"
        assert code == 2
        assert out == ""
        if fmt == "json":
            assert json.loads(err) == {"error": message, "kind": "usage"}
        else:
            assert err == f"error: {message}\n"

    def test_appendix_a_explicit_bool_runs(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "appendixA",
                           "--semiring", "bool", "--xsize", "2")
        assert code == 0
        assert all("[bool/exhaustive]" in line for line in out.splitlines())

    @pytest.mark.parametrize("suite", ["weakdist", "pentagon", "naturality"])
    def test_other_suites_default_to_qplus(self, capsys, suite):
        code, out, _ = run(capsys, "laws", "--suite", suite, "--trials", "2",
                           "--format", "json")
        assert code == 0
        assert {json.loads(line)["semiring"] for line in out.splitlines()} \
            == {"qplus"}

    def test_appendix_a_at_cap_runs(self, capsys):
        code, out, _ = run(capsys, "laws", "--suite", "appendixA",
                           "--xsize", "4", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[1]["meta"]["families"] == 2 ** 16

    def test_nonpositive_value_bound_rejected_over_nat(self, capsys):
        code, out, err = run(capsys, "laws", "--suite", "weakdist",
                             "--semiring", "nat", "--value-bound", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: nat enumeration needs a bound > 0\n"

    @pytest.mark.parametrize("option, value", [
        ("xsize", "2"), ("trials", "3"), ("seed", "4"),
        ("value_bound", "2")])
    @pytest.mark.parametrize("semiring", [None, "qplus", "bool", "nat"])
    @pytest.mark.parametrize("suite", ["weakdist", "pentagon", "naturality",
                                       "appendixA"])
    def test_option_is_read_or_refused(self, capsys, monkeypatch, suite,
                                       semiring, option, value):
        """A run reads xsize always, trials and seed when it draws random
        instances (qplus), and the value bound when it enumerates nat
        weightings up to one (weakdist); it refuses any other option
        before the suite starts, so no instance is drawn."""
        monkeypatch.delenv("CONVEXMOD_SEED", raising=False)
        calls = []
        _suite, reads = distlaw.SUITES[suite]
        monkeypatch.setitem(distlaw.SUITES, suite, (
            lambda sr, **kw: calls.append((sr.id, kw)) or [], reads))
        sr = semiring or ("bool" if suite == "appendixA" else "qplus")
        read = (option == "xsize"
                or option in ("trials", "seed") and sr == "qplus"
                and suite != "appendixA"
                or option == "value_bound" and (suite, sr) == ("weakdist",
                                                               "nat"))
        flag = "--" + option.replace("_", "-")
        argv = ["laws", "--suite", suite, flag, value]
        if semiring:
            argv += ["--semiring", semiring]
        code, out, err = run(capsys, *argv)
        if read:
            assert (code, err) == (0, "")
            assert calls == [(sr, {option: int(value)})]
        else:
            assert (code, out, calls) == (2, "", [])
            assert err == f"error: {suite} over {sr} does not read {flag}\n"


EXAMPLE_PHI = {"weights": [
    {"set": ["x", "y"], "value": "5"},
    {"set": ["x", "z"], "value": "9"},
    {"set": ["a", "b"], "value": "13"},
]}


class TestDelta:
    def test_qplus_hull_generators(self, capsys, tmp_path):
        p = tmp_path / "phi.json"
        p.write_text(json.dumps(EXAMPLE_PHI), encoding="utf-8")
        code, out, _ = run(capsys, "delta", "--phi", str(p),
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["kind"] == "generators"
        assert len(d["generators"]) == 8
        assert {"a": "13", "x": "14"} in d["generators"]

    def test_bool_compare_bruteforce_agrees(self, capsys, tmp_path):
        p = tmp_path / "phi.json"
        p.write_text(json.dumps({"weights": [
            {"set": ["x", "y"], "value": True},
            {"set": ["y", "z"], "value": True},
        ]}), encoding="utf-8")
        code, out, _ = run(capsys, "delta", "--semiring", "bool",
                           "--phi", str(p), "--compare-bruteforce",
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["compare"]["agree"] is True
        assert d["compare"]["bruteforce_count"] == 5

    def test_compare_needs_bool(self, capsys, tmp_path):
        p = tmp_path / "phi.json"
        p.write_text(json.dumps(EXAMPLE_PHI), encoding="utf-8")
        code, _, err = run(capsys, "delta", "--phi", str(p),
                           "--compare-bruteforce")
        assert code == 2
        assert "bool" in err

    def test_nat_routes_through_bruteforce(self, capsys, tmp_path):
        p = tmp_path / "phi.json"
        p.write_text(json.dumps({"weights": [
            {"set": ["x", "y"], "value": 2},
        ]}), encoding="utf-8")
        code, out, _ = run(capsys, "delta", "--semiring", "nat",
                           "--phi", str(p), "--format", "json")
        assert code == 0
        gens = json.loads(out)["generators"]
        # weak compositions of 2 over two symbols, canonical order
        assert gens == [{"x": 1, "y": 1}, {"x": 2}, {"y": 2}]

    # Over bool and qplus the choice route counts the product of the
    # set sizes, with a limit per hull algorithm.
    @pytest.mark.parametrize("semiring, weights, key, cap, count, unit", [
        ("nat", [(["x", "y", "z", "u", "v"], 1000)], "compositions", None,
         "42,084,793,751", "combinations of compositions"),
        ("nat", [(["x", "y"], 5), (["x", "z"], 9), (["a", "b"], 13)],
         "compositions", 839, "840", "combinations of compositions"),
        ("nat", [(["x", "y", "z"], "1" + "0" * 4000), (["a", "b"], 1)],
         "compositions", None, "more than 10^30",
         "combinations of compositions"),
        ("qplus", [([f"s{i}{j}" for j in range(5)], 1) for i in range(5)],
         "choices:exact_lp", None, "3,125", "choices"),
        ("qplus", [(["x", "y"], 5), (["x", "z"], 9), (["a", "b"], 13)],
         "choices:exact_lp", 7, "8", "choices"),
        ("bool", [([f"s{i}{j}" for j in range(4)], 1) for i in range(7)],
         "choices:join_cover", None, "16,384", "choices"),
        ("bool", [([f"s{i}{j}" for j in range(2)], 1) for i in range(120)],
         "choices:join_cover", None, "more than 10^30", "choices"),
    ], ids=["one_large_weight", "lowered_cap", "weight_near_digit_limit",
            "qplus_choices", "qplus_lowered_cap", "bool_choices",
            "bool_choices_past_10^30"])
    def test_oversized_nat_rejected(self, capsys, monkeypatch, tmp_path,
                                    semiring, weights, key, cap, count,
                                    unit):
        def refuse(*_args, **_kwargs):
            raise AssertionError("compositions or choices were enumerated")
        for name in ("delta_bruteforce", "weak_compositions", "choice_set",
                     "delta_hull"):
            monkeypatch.setattr(f"convexmod.distlaw.{name}", refuse)
        if cap is not None:
            monkeypatch.setitem(distlaw.LIMITS, key, cap)
        p = tmp_path / "phi.json"
        p.write_text(json.dumps({"weights": [
            {"set": A, "value": v} for A, v in weights]}), encoding="utf-8")
        code, out, err = run(capsys, "delta", "--semiring", semiring,
                             "--phi", str(p))
        assert code == 2 and out == ""
        assert err == (f"error: delta over {semiring} enumerates {count} "
                       f"{unit}; at most {distlaw.LIMITS[key]:,} are "
                       "allowed\n")

    @pytest.mark.parametrize("symbols, cap, count", [
        (17, None, "131,072"), (40, None, "1,099,511,627,776"),
        (3, 7, "8")], ids=["seventeen", "forty", "lowered_cap"])
    def test_oversized_bool_compare_rejected(self, capsys, monkeypatch,
                                             tmp_path, symbols, cap, count):
        def refuse(*_args, **_kwargs):
            raise AssertionError("subsets were enumerated")
        for name in ("delta_bruteforce", "weightings_over", "choice_set"):
            monkeypatch.setattr(f"convexmod.distlaw.{name}", refuse)
        if cap is not None:
            monkeypatch.setitem(distlaw.LIMITS, "subsets", cap)
        p = tmp_path / "phi.json"
        p.write_text(json.dumps({"weights": [
            {"set": [f"s{i}" for i in range(symbols)], "value": "1"}]}),
            encoding="utf-8")
        code, out, err = run(capsys, "delta", "--semiring", "bool",
                             "--phi", str(p), "--compare-bruteforce")
        assert code == 2 and out == ""
        assert err == ("error: delta --compare-bruteforce over bool on "
                       f"{symbols} symbols enumerates {count} subsets; at "
                       f"most {cap or 65_536:,} are allowed\n")

    def test_bool_compare_at_the_cap_runs(self, capsys, monkeypatch,
                                          tmp_path):
        monkeypatch.setitem(distlaw.LIMITS, "subsets", 8)
        p = tmp_path / "phi.json"
        p.write_text(json.dumps({"weights": [
            {"set": ["x", "y"], "value": "1"},
            {"set": ["y", "z"], "value": "1"}]}), encoding="utf-8")
        code, out, _ = run(capsys, "delta", "--semiring", "bool",
                           "--phi", str(p), "--compare-bruteforce")
        assert code == 0 and "agree" in out

    @pytest.mark.parametrize("semiring, phi, key, cap, lines", [
        ("nat", EXAMPLE_PHI, "compositions", 840, 840),
        ("qplus", EXAMPLE_PHI, "choices:exact_lp", 8, 8),
        ("bool", {"weights": [{"set": ["x", "y"], "value": "1"},
                              {"set": ["y", "z"], "value": "1"}]},
         "choices:join_cover", 4, 4),
        ("bool", {"weights": [{"set": [f"s{i}{j}" for j in range(5)],
                               "value": "1"} for i in range(5)]},
         "choices:join_cover", None, 3_125),
    ], ids=["compositions", "qplus_choices", "bool_choices",
            "bool_choices_5x5"])
    def test_nat_at_the_cap_runs(self, capsys, monkeypatch, tmp_path,
                                 semiring, phi, key, cap, lines):
        if cap is not None:
            monkeypatch.setitem(distlaw.LIMITS, key, cap)
        p = tmp_path / "phi.json"
        p.write_text(json.dumps(phi), encoding="utf-8")
        code, out, _ = run(capsys, "delta", "--semiring", semiring,
                           "--phi", str(p))
        assert code == 0 and len(out.splitlines()) == lines

    @pytest.mark.parametrize("semiring, value, message", [
        ("qplus", "1e5000", "exponent notation is not accepted: '1e5000'"),
        ("qplus", "1e10000000", "exponent notation is not accepted"),
        ("qplus", "2.5E-3", "exponent notation is not accepted"),
        ("qplus", "1" * 5000, "longer than 4300 digits"),
        ("qplus", "1/" + "3" * 4301, "longer than 4300 digits"),
        ("qplus", "1" * 4000 + "." + "1" * 4000, "longer than 4300 digits"),
        ("qplus", "0." + "0" * 4299 + "1", "longer than 4300 digits"),
        ("nat", "1" * 5000, "longer than 4300 digits"),
        ("nat", "\u00b2", "invalid natural literal"),
    ], ids=["exponent", "huge_exponent", "negative_exponent",
            "long_integer", "long_denominator", "long_decimal",
            "decimal_denominator", "nat_long", "nat_superscript"])
    def test_oversized_literal_rejected(self, capsys, tmp_path, semiring,
                                        value, message):
        p = tmp_path / "phi.json"
        p.write_text(json.dumps({"weights": [
            {"set": ["x"], "value": value}]}), encoding="utf-8")
        code, out, err = run(capsys, "delta", "--semiring", semiring,
                             "--phi", str(p))
        assert code == 2 and out == ""
        assert message in err and len(err) < 200

    def test_decimal_within_the_limit_accepted(self, capsys, tmp_path):
        p = tmp_path / "phi.json"
        p.write_text(json.dumps({"weights": [
            {"set": ["x"], "value": "0.25"}]}), encoding="utf-8")
        code, out, _ = run(capsys, "delta", "--phi", str(p))
        assert (code, out) == (0, "{x: 1/4}\n")

    def test_json_integer_past_the_limit(self, capsys, tmp_path):
        p = tmp_path / "phi.json"
        p.write_text('{"weights": [{"set": ["x"], "value": %s}]}'
                     % ("7" * 5000), encoding="utf-8")
        code, out, err = run(capsys, "delta", "--semiring", "nat",
                             "--phi", str(p))
        assert code == 2 and out == ""
        assert "has a number longer than 4300 digits" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "delta", "--phi", "/nonexistent.json")
        assert code == 2
        assert "no such file" in err

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "phi.json"
        p.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "delta", "--phi", str(p))
        assert code == 2
        assert "bad JSON" in err

    @pytest.mark.parametrize("payload,message", [
        ({"weights": [{"set": ["x"]}]}, "'set' and 'value'"),
        ([{"set": ["x"], "value": 1}], "'weights' array"),
        ({"weights": [{"set": "xy", "value": 1}]}, "'set' must be an array"),
        ({"weights": [{"set": 5, "value": 1}]}, "'set' must be an array"),
        ({"weights": [{"set": ["x", 1], "value": 1},
                      {"set": ["y"], "value": 1}]},
         "'set' must hold symbol names"),
    ], ids=["missing_value", "top_level_array", "set_is_string",
            "set_is_number", "set_element_not_string"])
    def test_wrong_shape(self, capsys, tmp_path, payload, message):
        p = tmp_path / "phi.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "delta", "--phi", str(p))
        assert code == 2
        assert message in err
        assert err.count("\n") == 1

    def test_csv_output(self, capsys, tmp_path):
        p = tmp_path / "phi.json"
        p.write_text(json.dumps({"weights": [
            {"set": ["x", "y"], "value": "1"},
        ]}), encoding="utf-8")
        code, out, _ = run(capsys, "delta", "--phi", str(p),
                           "--format", "csv")
        assert code == 0
        assert out == "x,y\n1,0\n0,1\n"


class TestRender:
    def test_polygon_json(self, capsys):
        code, out, _ = run(capsys, "render", "--vars", "x,y",
                           "x | y | (x + 3.y)", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d == {"semiring": "qplus", "variables": ["x", "y"],
                     "kind": "polygon",
                     "vertices": [["0", "1"], ["1", "0"], ["1", "3"]]}

    def test_segment_csv(self, capsys):
        code, out, _ = run(capsys, "render", "--vars", "x1,x2", "x1 | x2",
                           "--format", "csv")
        assert code == 0
        assert out == "x1,x2\n0,1\n1,0\n"

    def test_from_set_json(self, capsys, tmp_path):
        p = tmp_path / "set.json"
        p.write_text(json.dumps({
            "semiring": "qplus",
            "generators": [{"x": "2"}, {"x": "5"}],
        }), encoding="utf-8")
        code, out, _ = run(capsys, "render", "--set-json", str(p),
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["kind"] == "interval"
        assert (d["min"], d["max"]) == ("2", "5")

    def test_needs_input(self, capsys):
        code, _, err = run(capsys, "render", "--vars", "x")
        assert code == 2
        assert "term or --set-json" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("term", ["5.x", "(((("])
    def test_term_and_set_json_refused(self, capsys, tmp_path, term, fmt):
        # Refused before the file is read: a missing file is not met.
        (tmp_path / "set.json").write_text(json.dumps({
            "semiring": "qplus", "generators": [{"x": "1"}, {"x": "3"}],
        }), encoding="utf-8")
        message = "render takes a term or --set-json, not both"
        for name in ("set.json", "missing.json"):
            code, out, err = run(capsys, "render", "--format", fmt,
                                 "--set-json", str(tmp_path / name),
                                 "--vars", "x", term)
            assert (code, out) == (2, "")
            if fmt == "json":
                assert json.loads(err) == {"error": message, "kind": "usage"}
            else:
                assert err == f"error: {message}\n"

    @pytest.mark.parametrize("semiring, code", [
        ("bool", 0), ("qplus", 2), ("nat", 2)])
    def test_set_json_semiring_must_match(self, capsys, tmp_path, semiring,
                                          code):
        p = tmp_path / "set.json"
        p.write_text(json.dumps({"semiring": "bool", "generators": [
            {"x": 1}, {"y": True}]}), encoding="utf-8")
        got, out, err = run(capsys, "render", "--semiring", semiring,
                            "--set-json", str(p))
        assert got == code
        if code:
            assert out == ""
            assert err == (f"error: --semiring {semiring} does not match "
                           f"the bool set in {p}\n")
        else:
            assert out == "generators: {x: 1} {y: 1}\n"

    @pytest.mark.parametrize("value", [1.0, 0.0, 2, "1.0"])
    def test_bool_set_json_float_rejected(self, capsys, tmp_path, value):
        p = tmp_path / "set.json"
        p.write_text(json.dumps({"semiring": "bool", "generators": [
            {"x": value}]}), encoding="utf-8")
        code, out, err = run(capsys, "render", "--set-json", str(p))
        assert (code, out) == (2, "")
        assert "invalid bool scalar" in err and repr(value) in err

    def test_set_json_array_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "set.json"
        p.write_text(json.dumps([{"x": "2"}]), encoding="utf-8")
        code, out, err = run(capsys, "render", "--set-json", str(p))
        assert code == 2
        assert out == ""
        assert err == "error: ConvexSet JSON must be an object\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("semiring, variables", [
        ("qplus", "x"), ("qplus", "x,y"), ("qplus", "x,y,z"),
        ("bool", "x"), ("bool", "x,y,z"), ("nat", "x,y")])
    def test_set_json_undeclared_symbol_refused(self, capsys, tmp_path,
                                                semiring, variables, fmt):
        # Every kind and format refuses alike; a CSV over the declared
        # columns alone would drop the w coordinate.
        p = tmp_path / "set.json"
        p.write_text(json.dumps({"semiring": semiring, "generators": [
            {"x": "1", "w": "1"}]}), encoding="utf-8")
        code, out, err = run(capsys, "render", "--format", fmt, "--vars",
                             variables, "--set-json", str(p))
        assert (code, out) == (2, "")
        message = "set mentions 'w', not a declared variable"
        if fmt == "json":
            assert json.loads(err) == {"error": message, "kind": "usage"}
        else:
            assert err == f"error: {message}\n"

    def test_empty_term_is_parse_error(self, capsys):
        # given, not absent: the same parse error as eval's
        got = run(capsys, "render", "--vars", "x", "")
        assert got == run(capsys, "eval", "--vars", "x", "")
        code, out, err = got
        assert (code, out) == (2, "")
        assert err.startswith("error: expected a term")

    def test_empty_set_path_is_file_error(self, capsys):
        code, out, err = run(capsys, "render", "--set-json", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: no such file")

    @pytest.mark.parametrize("data", [
        {"generators": [{"x": "1"}]},
        {"semiring": None, "generators": [{"x": "1"}]},
        {"semiring": ["qplus"], "generators": [{"x": "1"}]}])
    def test_set_json_without_semiring_string_refused(self, capsys,
                                                      tmp_path, data):
        p = tmp_path / "set.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "render", "--set-json", str(p))
        assert (code, out) == (2, "")
        assert err == "error: ConvexSet JSON needs a 'semiring' string\n"


class TestEvalRenderAgree:
    """``render TERM`` prints the plot that ``eval TERM`` prints: eval's
    text adds its generators line, its JSON adds ``set``, and render's
    JSON of a generators plot adds the ``generators`` list."""

    @pytest.fixture(params=["bool", "qplus", "nat"])
    def semiring(self, request):
        return request.param

    @pytest.fixture(params=["x", "x,y", "x,y,z"])
    def variables(self, request):
        return request.param

    @pytest.fixture(params=["x", "bot", "0", "x | 0", "0.bot + x", "LAST"])
    def term(self, request, variables):
        # LAST: the join of every declared variable
        if request.param == "LAST":
            return " | ".join(variables.split(","))
        return request.param

    def both(self, capsys, fmt, semiring, variables, term):
        argv = ["--semiring", semiring, "--format", fmt, "--vars",
                variables, term]
        code, ev, err = run(capsys, "eval", *argv)
        assert (code, err) == (0, "")
        code, rd, err = run(capsys, "render", *argv)
        assert (code, err) == (0, "")
        return ev, rd

    def test_text(self, capsys, semiring, variables, term):
        ev, rd = self.both(capsys, "text", semiring, variables, term)
        lines = ev.splitlines(keepends=True)
        assert lines[0].startswith("generators: ")
        assert rd == (ev if len(lines) == 1 else "".join(lines[1:]))
        assert len(lines) == 1 + (semiring == "qplus" and variables != "x,y,z")

    def test_csv(self, capsys, semiring, variables, term):
        ev, rd = self.both(capsys, "csv", semiring, variables, term)
        assert rd == ev

    def test_json(self, capsys, semiring, variables, term):
        ev, rd = self.both(capsys, "json", semiring, variables, term)
        ev, rd = json.loads(ev), json.loads(rd)
        assert list(ev)[-1] == "set"
        the_set = ev.pop("set")
        if rd["kind"] == "generators":
            assert list(rd)[-1] == "generators"
            assert rd.pop("generators") == the_set["generators"]
        assert list(rd.items()) == list(ev.items())


class TestFileInput:
    """``delta --phi`` and ``render --set-json`` read their file alike:
    input that is no JSON document is a one-line usage error."""

    @pytest.fixture(params=["not_utf8", "directory", "deeply_nested"])
    def bad_input(self, request, tmp_path):
        p = tmp_path / "input.json"
        if request.param == "not_utf8":
            p.write_bytes(b'{"weights": "\xff\xfe"}')
        elif request.param == "directory":
            p.mkdir()
        else:
            p.write_text("[" * 200_000, encoding="utf-8")
        return request.param, str(p)

    @pytest.mark.parametrize("flag", [("delta", "--phi"),
                                      ("render", "--set-json")],
                             ids=["delta", "render"])
    def test_usage_error(self, capsys, bad_input, flag):
        kind, path = bad_input
        code, out, err = run(capsys, *flag, path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert {"not_utf8": "not UTF-8 text",
                "directory": "cannot read",
                "deeply_nested": "nests too deeply"}[kind] in err

    def test_json_diagnostic(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "--format", "json",
                           "--set-json", str(tmp_path))
        assert code == 2
        assert json.loads(err) == {
            "error": f"cannot read {tmp_path}: Is a directory",
            "kind": "usage"}


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "x"])
        assert exc.value.code == 2

    def test_blank_vars_list(self, capsys):
        code, _, err = run(capsys, "eval", "--vars", ",", "x")
        assert code == 2
        assert "empty variable list" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--vars", "", "x"],
        ["eq", "--vars", "", "x", "x"],
        ["render", "--vars", "", "x"],
    ], ids=["eval", "eq", "render"])
    def test_empty_vars_string_refused(self, capsys, argv):
        """``--vars ""`` is given and empty, not absent: no command
        answers that it needs --vars."""
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: empty variable list\n")

    def test_empty_vars_string_with_set_json(self, capsys, tmp_path):
        """Only a missing --vars falls back to the set's support; an
        empty one is refused, where it used to plot the support."""
        p = tmp_path / "set.json"
        p.write_text(json.dumps({
            "semiring": "qplus", "generators": [{"x": "1"}, {"y": "2"}],
        }), encoding="utf-8")
        code, out, err = run(capsys, "render", "--set-json", str(p),
                             "--vars", "")
        assert (code, out, err) == (2, "", "error: empty variable list\n")
        code, out, _ = run(capsys, "render", "--set-json", str(p))
        assert (code, out) == (0, "polygon: (0, 2) (1, 0)\n")

    @pytest.mark.parametrize("argv, entry", [
        (["eval", "x", "--vars", "x,"], "entry 2 of --vars 'x,'"),
        (["eval", "x | y", "--vars", "x,,y"], "entry 2 of --vars 'x,,y'"),
        (["eval", "x | y", "--vars", "x, ,y"], "entry 2 of --vars 'x, ,y'"),
        (["eval", "x", "--vars", ",x"], "entry 1 of --vars ',x'"),
        (["eval", "x", "--vars", "x,,x"], "entry 2 of --vars 'x,,x'"),
        (["eq", "--vars", "x,y,", "x", "y"], "entry 3 of --vars 'x,y,'"),
        (["render", "--vars", "x,,y", "x | y"], "entry 2 of --vars 'x,,y'"),
    ], ids=["eval_trailing", "eval_double", "eval_blank", "eval_leading",
            "eval_before_duplicate", "eq", "render"])
    def test_empty_var_name_rejected(self, capsys, argv, entry):
        """An empty name is refused, not dropped: the run used to go on
        as if the entry had never been given."""
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: empty variable name: {entry}\n"

    def test_empty_var_name_in_render_set_json(self, capsys, tmp_path):
        p = tmp_path / "set.json"
        p.write_text(json.dumps({
            "semiring": "qplus", "generators": [{"x": "2"}, {"y": "5"}],
        }), encoding="utf-8")
        code, out, err = run(capsys, "render", "--set-json", str(p),
                             "--vars", "x,y,", "--format", "json")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "empty variable name: entry 3 of --vars 'x,y,'",
            "kind": "usage"}

    @pytest.mark.parametrize("argv, name", [
        (["eval", "x", "--vars", "x,x"], "x"),
        (["eval", "x | 2.y", "--vars", "y,x,y"], "y"),
        (["eq", "--vars", "x,y,x", "x", "x"], "x"),
        (["render", "--vars", "x,x", "x | 2.x"], "x"),
    ], ids=["eval", "eval_polygon", "eq", "render"])
    def test_duplicate_var_rejected(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: duplicate variable '{name}' in --vars\n"

    def test_duplicate_var_json_diagnostic(self, capsys):
        code, out, err = run(capsys, "eval", "x", "--vars", "x, x",
                             "--format", "json")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "duplicate variable 'x' in --vars", "kind": "usage"}

    def test_duplicate_var_in_render_set_json(self, capsys, tmp_path):
        p = tmp_path / "set.json"
        p.write_text(json.dumps({
            "semiring": "qplus",
            "generators": [{"x": "2"}, {"y": "5"}],
        }), encoding="utf-8")
        code, out, err = run(capsys, "render", "--set-json", str(p),
                             "--vars", "y,y")
        assert code == 2
        assert out == ""
        assert err == "error: duplicate variable 'y' in --vars\n"

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CONVEXMOD_SEED", "not-a-number")
        code, _, err = run(capsys, "laws", "--suite", "appendixA")
        assert code == 2
        assert "CONVEXMOD_SEED" in err

    def test_env_seed_is_read_by_laws_only(self, capsys, monkeypatch):
        monkeypatch.setenv("CONVEXMOD_SEED", "abc")
        assert run(capsys, "eval", "--vars", "x", "x") == (
            0, "generators: {x: 1}\ninterval: [1, 1]\n", "")

    @pytest.mark.parametrize("argv", [
        ["eval", "--seed", "1", "--vars", "x", "x"],
        ["delta", "--seed", "1", "--phi", "-"],
        ["render", "--seed", "1", "--vars", "x", "x"]],
        ids=["eval", "delta", "render"])
    def test_seed_only_on_laws(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_argv_identical_output(self, capsys):
        argv = ["laws", "--suite", "pentagon", "--trials", "8",
                "--seed", "3", "--format", "json"]
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("semiring", ["bool", "nat"])
    def test_env_seed_leaves_an_enumeration_alone(self, capsys, monkeypatch,
                                                  semiring):
        argv = ["laws", "--suite", "weakdist", "--semiring", semiring]
        monkeypatch.delenv("CONVEXMOD_SEED", raising=False)
        plain = run(capsys, *argv)
        monkeypatch.setenv("CONVEXMOD_SEED", "5")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        base = ["laws", "--suite", "pentagon", "--trials", "8",
                "--format", "json"]
        monkeypatch.setenv("CONVEXMOD_SEED", "5")
        main(base + ["--seed", "0"])
        with_env = capsys.readouterr().out
        monkeypatch.delenv("CONVEXMOD_SEED")
        main(base + ["--seed", "5"])
        plain = capsys.readouterr().out
        assert with_env == plain

    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "convexmod", "laws", "--suite",
               "weakdist", "--semiring", "qplus", "--trials", "10",
               "--format", "json"]
        env = subprocess_env(PYTHONHASHSEED="0")
        a = subprocess.run(cmd, capture_output=True, cwd=PKG_ROOT, env=env)
        env2 = subprocess_env(PYTHONHASHSEED="12345")
        b = subprocess.run(cmd, capture_output=True, cwd=PKG_ROOT, env=env2)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestClosedStdout:
    """A reader that closes stdout early ends the run quietly, with
    exit code 141 (128 + SIGPIPE) instead of a traceback."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--vars", "x", "x|2.x"],
        ["laws", "--suite", "weakdist", "--semiring", "bool", "--xsize",
         "3", "--format", "json"]], ids=["eval", "laws"])
    def test_closed_pipe(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "convexmod", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=PKG_ROOT,
            env=subprocess_env())
        proc.stdout.close()  # the only read end: every write fails
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_in_process(self, capsys, monkeypatch):
        class Closed(io.StringIO):  # no file descriptor, like capsys
            def write(self, _text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", Closed())
        assert main(["eq", "--vars", "x", "x", "x"]) == 141
        assert capsys.readouterr().err == ""


class TestConsoleEntry:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "convexmod", "eq", "--vars", "x,y",
             "x|y", "y|x"],
            capture_output=True, text=True, cwd=PKG_ROOT,
            env=subprocess_env())
        assert out.returncode == 0
        assert out.stdout == "equal\n"


DEMOS = sorted(glob.glob(os.path.join(PKG_ROOT, "demos", "*.py")))


class TestDemos:
    """Every demo script runs on the public API and prints something."""

    @pytest.mark.parametrize("path", DEMOS, ids=[
        os.path.basename(p) for p in DEMOS])
    def test_runs(self, path):
        out = subprocess.run([sys.executable, path], capture_output=True,
                             text=True, cwd=PKG_ROOT, env=subprocess_env(),
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout
