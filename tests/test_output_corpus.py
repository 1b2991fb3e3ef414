"""Pinned CLI outputs: every answer the command line gives stays as it is.

``CORPUS`` is a deterministic list of argv vectors over every
subcommand (eval, eq, render, delta, laws), the three semirings, the
three output formats and the usage-error paths.  Each entry runs
in-process through ``cli.main`` at a terminal width of 80 columns,
whatever the terminal, so argparse wraps its usage text as pinned;
the sha256 of its stdout and of its stderr, and its exit code, must
equal the values pinned in ``output_digests.json``.

A change that alters an output on purpose re-pins with

    PYTHONPATH=src python tests/test_output_corpus.py --write

and says in its change notes which entries moved and why.  With
``--check`` instead of ``--write`` it lists the entries that are new,
moved or dropped without writing, and exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from convexmod.cli import main

PINS = Path(__file__).resolve().parent / "output_digests.json"


def _padded_qplus_set() -> dict:
    """Five extreme points over x, y, z (a simplex's four corners and
    one point beyond its far face) followed by 60 convex combinations
    of them, some on edges and faces, most inside."""
    corners = [{}, {"x": Fraction(2)}, {"y": Fraction(3)},
               {"z": Fraction(5, 2)},
               {"x": Fraction(1), "y": Fraction(1), "z": Fraction(1)}]
    gens = [{k: str(v) for k, v in c.items()} for c in corners]
    for k in range(60):
        weights = [(k * (i + 2) + i) % 5 for i in range(5)]
        weights[k % 5] += 1
        total = sum(weights)
        point = {s: sum(w * c.get(s, 0) for w, c in zip(weights, corners))
                 / total for s in "xyz"}
        gens.append({s: str(v) for s, v in point.items() if v})
    return {"semiring": "qplus", "generators": gens}


SEMIRINGS = ("qplus", "bool", "nat")
FORMATS = ("text", "json", "csv")

# Input files the entries name by relative path; every run writes them
# into a fresh directory and runs from there.
FILES = {
    "phi_two_sets.json": json.dumps({"weights": [
        {"set": ["x", "y"], "value": "1"},
        {"set": ["y", "z"], "value": "1"}]}),
    "phi_weighted.json": json.dumps({"weights": [
        {"set": ["x", "y"], "value": "2"},
        {"set": ["x"], "value": "1"}]}),
    "phi_empty_set.json": json.dumps({"weights": [
        {"set": [], "value": "1"}]}),
    "phi_overlapping.json": json.dumps({"weights": [
        {"set": ["x", "y"], "value": "3"},
        {"set": ["y", "z"], "value": "4"},
        {"set": ["x", "z"], "value": "2"},
        {"set": ["x", "y", "z"], "value": "2"}]}),
    "phi_oversized.json": json.dumps({"weights": [
        {"set": ["x", "y", "z", "u", "v"], "value": "1000"}]}),
    "phi_many_symbols.json": json.dumps({"weights": [
        {"set": [f"s{i}" for i in range(17)], "value": "1"}]}),
    # five disjoint five-symbol sets: 3,125 choices
    "phi_five_by_five.json": json.dumps({"weights": [
        {"set": [f"s{i}{j}" for j in range(5)], "value": "1"}
        for i in range(5)]}),
    "phi_exponent.json": json.dumps({"weights": [
        {"set": ["x"], "value": "1e5000"}]}),
    "phi_bool_float.json": json.dumps({"weights": [
        {"set": ["x", "y"], "value": 1.0}]}),
    "phi_nat_fraction.json": json.dumps({"weights": [
        {"set": ["x", "y"], "value": "4/2"}]}),
    "phi_bad_rational.json": json.dumps({"weights": [
        {"set": ["x", "y"], "value": "x/2"}]}),
    "phi_no_weights.json": json.dumps({"sets": []}),
    "phi_array.json": json.dumps([["x"]]),
    "phi_set_string.json": json.dumps({"weights": [
        {"set": "xy", "value": "1"}]}),
    "phi_set_number.json": json.dumps({"weights": [
        {"set": ["x", 1], "value": "1"}]}),
    "phi_missing_value.json": json.dumps({"weights": [{"set": ["x"]}]}),
    "bad.json": "{not json",
    "set_segment.json": json.dumps({"semiring": "qplus", "generators": [
        {"x": "1", "y": "0"}, {"x": "0", "y": "1"},
        {"x": "1/2", "y": "1/2"}]}),
    "set_bool.json": json.dumps({"semiring": "bool", "generators": [
        {"x": "1"}, {"y": "1"}]}),
    "set_array.json": json.dumps([1, 2]),
    "set_undeclared.json": json.dumps({"semiring": "qplus", "generators": [
        {"x": "1", "w": "2"}]}),
    "set_padded.json": json.dumps(_padded_qplus_set()),
    "set_no_semiring.json": json.dumps({"generators": [{"x": "1"}]}),
}

# (name, vars, term); scalars other than 0 and 1 are parse errors over
# bool, fractions over nat, so those rows also pin the error paths.
EVAL_TERMS = (
    ("var", "x", "x"),
    ("segment", "x", "x|2.x"),
    ("half_sum", "x", "1/2.x+3/2.x"),
    ("square", "x,y", "(x|y)+(x|y)"),
    ("mixed", "x,y", "x|y|(1/2.x+1/2.y)"),
    ("triangle", "x,y,z", "x|y|z"),
    ("zero_join", "x,y", "0|x+y"),
    ("bot", "x", "bot"),
    ("scaled_bot", "x", "0.bot+x"),
    ("unmapped", "x", "x|y"),
    ("parse_error", "x", "x|+"),
)

EQ_PAIRS = (
    ("commute", "x,y", "x|y", "y|x"),
    ("convexity", "x,y", "x|y", "x|y|(1/2.x+1/2.y)"),
    ("segment_vs_point", "x", "x|2.x", "x"),
    ("point_vs_segment", "x", "x", "x|3.x"),
    ("left_bot", "x", "bot", "x"),
    ("right_bot", "x", "x", "bot"),
    ("both_bot", "x", "bot", "bot"),
    ("sum_vs_join", "x,y", "x+y", "x|y"),
    ("join_closed", "x,y", "x|y", "x|y|x+y"),
)

RENDER_TERMS = (
    ("interval", "x", "x|3.x"),
    ("polygon", "x,y", "x|y|x+y"),
    ("generators", "x,y,z", "x|y+z"),
    ("empty", "x,y", "bot"),
)

DELTA_PHIS = ("phi_two_sets.json", "phi_weighted.json",
              "phi_empty_set.json")
DELTA_ERRORS = ("phi_no_weights.json", "phi_array.json",
                "phi_set_string.json", "phi_set_number.json",
                "phi_missing_value.json", "bad.json", "no_such_file.json",
                "phi_exponent.json")


def _build_corpus() -> list[tuple[str, list[str]]]:
    out: list[tuple[str, list[str]]] = []

    def add(name, *argv):
        out.append((name, list(argv)))

    for sr in SEMIRINGS:
        for fmt in FORMATS:
            for name, vs, term in EVAL_TERMS:
                add(f"eval-{sr}-{fmt}-{name}", "eval", "--semiring", sr,
                    "--format", fmt, "--vars", vs, term)
            for name, vs, t1, t2 in EQ_PAIRS:
                add(f"eq-{sr}-{fmt}-{name}", "eq", "--semiring", sr,
                    "--format", fmt, "--vars", vs, t1, t2)
            for name, vs, term in RENDER_TERMS:
                add(f"render-{sr}-{fmt}-{name}", "render", "--semiring", sr,
                    "--format", fmt, "--vars", vs, term)
            for phi in DELTA_PHIS:
                add(f"delta-{sr}-{fmt}-{phi[:-5]}", "delta", "--semiring",
                    sr, "--format", fmt, "--phi", phi)
            add(f"delta-{sr}-{fmt}-compare", "delta", "--semiring", sr,
                "--format", fmt, "--phi", "phi_two_sets.json",
                "--compare-bruteforce")
        # sets that share symbols: nat's enumeration folds their
        # compositions into one set of sums; over qplus most of the 24
        # choices lie inside the hull of the other ones
        for fmt in FORMATS if sr != "bool" else ():
            add(f"delta-{sr}-{fmt}-phi_overlapping", "delta", "--semiring",
                sr, "--format", fmt, "--phi", "phi_overlapping.json")
    for fmt in FORMATS:
        for name in ("set_segment", "set_bool", "set_array"):
            add(f"render-json-{fmt}-{name}", "render", "--format", fmt,
                "--set-json", f"{name}.json")
        add(f"render-json-{fmt}-vars", "render", "--format", fmt,
            "--vars", "y,x", "--set-json", "set_segment.json")
    # a qplus set padded with 60 redundant generators
    for fmt in ("text", "json"):
        add(f"render-json-{fmt}-set_padded", "render", "--format", fmt,
            "--set-json", "set_padded.json")
    for fmt in ("text", "json"):
        for phi in DELTA_ERRORS:
            add(f"delta-error-{fmt}-{phi[:-5]}", "delta", "--format", fmt,
                "--phi", phi)

    # law suites: every suite x semiring x format, sizes kept small;
    # only qplus runs draw random trials
    sizes = {("weakdist", "bool"): "2", ("weakdist", "nat"): "1",
             ("pentagon", "bool"): "1"}
    for suite in ("weakdist", "naturality", "pentagon"):
        for sr in SEMIRINGS:
            trials = ("--trials", "6") if sr == "qplus" else ()
            for fmt in FORMATS:
                add(f"laws-{suite}-{sr}-{fmt}", "laws", "--suite", suite,
                    "--semiring", sr, "--format", fmt, "--xsize",
                    sizes.get((suite, sr), "2"), *trials)
    for fmt in FORMATS:
        add(f"laws-appendixA-{fmt}", "laws", "--suite", "appendixA",
            "--format", fmt)
    add("laws-appendixA-bool", "laws", "--suite", "appendixA",
        "--semiring", "bool", "--xsize", "2")
    add("laws-weakdist-default", "laws", "--suite", "weakdist",
        "--trials", "4")
    add("laws-naturality-seed", "laws", "--suite", "naturality",
        "--trials", "4", "--seed", "7")
    add("laws-pentagon-seed", "laws", "--suite", "pentagon", "--trials",
        "4", "--seed", "11", "--format", "json")
    add("laws-weakdist-nat-bound", "laws", "--suite", "weakdist",
        "--semiring", "nat", "--xsize", "1", "--value-bound", "3")

    # usage errors
    add("error-xsize-zero", "laws", "--suite", "weakdist", "--xsize", "0")
    add("error-xsize-seven", "laws", "--suite", "naturality", "--xsize",
        "7", "--format", "json")
    add("error-trials-zero", "laws", "--suite", "pentagon", "--trials",
        "0")
    add("error-value-bound", "laws", "--suite", "weakdist", "--semiring",
        "nat", "--value-bound", "0")
    add("error-weakdist-nat-oversized", "laws", "--suite", "weakdist",
        "--semiring", "nat", "--value-bound", "30")
    add("error-weakdist-bool-oversized", "laws", "--suite", "weakdist",
        "--semiring", "bool", "--xsize", "4")
    add("error-pentagon-bool-oversized", "laws", "--suite", "pentagon",
        "--semiring", "bool", "--xsize", "3")
    # above xsize 3 the refusal states a lower bound on the count
    for fmt in ("text", "json"):
        add(f"error-pentagon-bool-xsize4-{fmt}", "laws", "--suite",
            "pentagon", "--semiring", "bool", "--xsize", "4", "--format",
            fmt)
    add("error-delta-nat-oversized", "delta", "--semiring", "nat", "--phi",
        "phi_oversized.json")
    add("error-delta-bool-compare-oversized", "delta", "--semiring", "bool",
        "--phi", "phi_many_symbols.json", "--compare-bruteforce")
    add("error-naturality-oversized", "laws", "--suite", "naturality",
        "--xsize", "5")
    add("error-delta-qplus-choices-oversized", "delta", "--semiring", "qplus",
        "--phi", "phi_five_by_five.json")
    add("error-appendixA-xsize", "laws", "--suite", "appendixA",
        "--xsize", "5")
    add("error-duplicate-vars", "eval", "--vars", "x,y,x", "x")
    add("error-duplicate-vars-json", "eq", "--format", "json", "--vars",
        "x,x", "x", "x")
    add("error-empty-vars", "eval", "--vars", ",", "x")
    add("error-render-nothing", "render", "--vars", "x")
    add("error-render-no-vars", "render", "x")
    add("error-unknown-semiring", "eval", "--semiring", "real", "--vars",
        "x", "x")
    add("error-unknown-suite", "laws", "--suite", "monoid")
    add("error-missing-subcommand")
    add("error-appendixA-qplus", "laws", "--suite", "appendixA",
        "--semiring", "qplus")
    add("error-appendixA-nat-json", "laws", "--suite", "appendixA",
        "--semiring", "nat", "--format", "json")
    # options a run would not read: enumerations draw no random trials,
    # and only weakdist over nat has a value bound
    add("error-weakdist-bool-trials", "laws", "--suite", "weakdist",
        "--semiring", "bool", "--xsize", "1", "--trials", "1")
    add("error-pentagon-bool-trials-json", "laws", "--suite", "pentagon",
        "--semiring", "bool", "--trials", "6", "--format", "json")
    add("error-weakdist-nat-seed", "laws", "--suite", "weakdist",
        "--semiring", "nat", "--seed", "99")
    add("error-weakdist-qplus-value-bound", "laws", "--suite", "weakdist",
        "--value-bound", "3")
    add("error-naturality-nat-value-bound", "laws", "--suite",
        "naturality", "--semiring", "nat", "--value-bound", "3")
    add("error-eval-seed", "eval", "--vars", "x", "x", "--seed", "1")
    add("error-delta-bool-float", "delta", "--semiring", "bool", "--phi",
        "phi_bool_float.json")
    add("error-render-semiring-mismatch", "render", "--semiring", "nat",
        "--set-json", "set_bool.json")
    add("error-weakdist-qplus-trials-oversized", "laws", "--suite",
        "weakdist", "--semiring", "qplus", "--trials", "10000000")
    # a JSON literal each reader refuses: a fraction over nat, and a
    # rational with a non-digit numerator
    add("error-delta-nat-fraction", "delta", "--semiring", "nat", "--phi",
        "phi_nat_fraction.json")
    add("error-delta-qplus-bad-literal", "delta", "--phi",
        "phi_bad_rational.json")
    # a set with a symbol outside --vars: refused in every kind and
    # format, where the CSV of the declared columns used to drop it
    for fmt in FORMATS:
        add(f"error-render-undeclared-{fmt}", "render", "--format", fmt,
            "--vars", "x,y,z", "--set-json", "set_undeclared.json")
    add("error-render-undeclared-bool-csv", "render", "--format", "csv",
        "--vars", "x", "--set-json", "set_bool.json")
    # an empty name in --vars is refused, where it used to be dropped
    add("error-empty-var-name-eval", "eval", "--vars", "x,", "x")
    add("error-empty-var-name-eq-json", "eq", "--format", "json", "--vars",
        "x,,y", "x", "y")
    add("error-empty-var-name-render", "render", "--vars", "x, ,y", "x | y")
    # an empty --vars is given, not absent: refused, where render of a
    # set file used to plot the set's support instead
    add("error-empty-vars-string-eval", "eval", "--vars", "", "x")
    add("error-empty-vars-string-eq-json", "eq", "--format", "json",
        "--vars", "", "x", "x")
    add("error-empty-vars-string-render", "render", "--vars", "", "x")
    add("error-empty-vars-string-render-set", "render", "--vars", "",
        "--set-json", "set_segment.json")
    # a term and a set file together are refused before the file is
    # read, where the term used to be dropped and the file plotted
    for fmt in ("text", "json"):
        add(f"error-render-term-and-set-{fmt}", "render", "--format", fmt,
            "--vars", "x", "--set-json", "set_segment.json", "5.x")
        add(f"error-render-unparsable-term-and-set-{fmt}", "render",
            "--format", fmt, "--set-json", "no_such_file.json", "((((")
    # an empty term or set path is given, not absent: the term is a
    # parse error and the path a file error, where both used to be
    # refused as missing
    add("error-render-empty-term", "render", "--vars", "x", "")
    add("error-render-empty-set-path", "render", "--set-json", "")
    # a set file without a semiring field is refused by name, where its
    # semiring used to be read as 'None'
    add("error-render-set-no-semiring", "render", "--set-json",
        "set_no_semiring.json")
    # the interval algebra over more random families than the
    # six-trial entries draw
    for fmt in ("text", "json"):
        add(f"laws-pentagon-interval-pool-{fmt}", "laws", "--suite",
            "pentagon", "--trials", "300", "--seed", "5", "--format", fmt)
    return out


CORPUS = _build_corpus()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# argparse wraps usage text at ``shutil.get_terminal_size()``, which
# reads ``COLUMNS`` first; the pins hold the 80-column fallback.
USAGE_COLUMNS = "80"


def run_entry(argv: list[str]) -> dict:
    """Run one argv through ``cli.main`` in the current directory, with
    usage text wrapped at ``USAGE_COLUMNS``, and digest what it
    printed."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=USAGE_COLUMNS), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": list(argv), "exit": code,
            "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def _run_corpus() -> dict:
    """Every entry's digests, run in a fresh directory of input files."""
    os.environ.pop("CONVEXMOD_SEED", None)
    pinned = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, argv in CORPUS:
                pinned[name] = run_entry(argv)
        finally:
            os.chdir(here)
    return pinned


def _changes(before: dict, pinned: dict) -> list[str]:
    """One line for each entry that is new, moved or dropped."""
    digest = ("exit", "stdout", "stderr")
    lines = []
    for name, pin in pinned.items():
        if name not in before:
            lines.append(f"new: {name}")
        elif [pin[k] for k in digest] != [before[name].get(k) for k in digest]:
            lines.append(f"moved: {name}")
    lines.extend(f"dropped: {name}" for name in before if name not in pinned)
    return lines


# The entry point runs before pytest is imported, so ``--check`` and
# ``--write`` work on an interpreter without pytest.
if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit("usage: python tests/test_output_corpus.py --write|--check")
    pinned = _run_corpus()
    before = (json.loads(PINS.read_text(encoding="utf-8"))
              if PINS.exists() else {})
    changes = _changes(before, pinned)
    if sys.argv[1] == "--write":
        PINS.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
        print(f"pinned {len(pinned)} entries in {PINS}")
    print("\n".join(changes) if changes else "no entry is new, moved or dropped")
    sys.exit(1 if changes and sys.argv[1] == "--check" else 0)

import pytest  # noqa: E402


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_files(directory)
    return directory


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_corpus_is_pinned(pins):
    assert list(pins) == [name for name, _ in CORPUS]
    assert [p["argv"] for p in pins.values()] == [a for _, a in CORPUS]


@pytest.mark.parametrize("name,argv", CORPUS, ids=[n for n, _ in CORPUS])
def test_output_pinned(name, argv, pins, corpus_dir, monkeypatch):
    monkeypatch.delenv("CONVEXMOD_SEED", raising=False)
    monkeypatch.chdir(corpus_dir)
    assert run_entry(argv) == pins[name]


def test_usage_wraps_at_pinned_width(pins, corpus_dir, monkeypatch):
    """A wide terminal does not move the pinned usage text, and its
    ``COLUMNS`` is back in place after the entry."""
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.delenv("CONVEXMOD_SEED", raising=False)
    monkeypatch.chdir(corpus_dir)
    argv = dict(CORPUS)["error-unknown-suite"]
    assert run_entry(argv) == pins["error-unknown-suite"]
    assert os.environ["COLUMNS"] == "200"
