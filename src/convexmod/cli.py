"""Command line front end.

Subcommands:

* ``eval``    parse a term, evaluate it over declared variables, print
              the canonical generators plus an interval or polygon
              rendering when the variable count is one or two.
* ``eq``      decide semantic equality of two terms; on inequality a
              witness generator lying in one side only is printed.
* ``laws``    run a law suite (weakdist, pentagon, naturality,
              appendixA) and stream one report per line; the exit
              status is 0 exactly when every report matches its
              expected outcome, so a suite built around a known
              counterexample passes by exhibiting it.
* ``delta``   apply the distributive law to a set weighting read from
              JSON; ``--compare-bruteforce`` cross-checks the two
              independent routes over bool.
* ``render``  plot data (vertices or endpoints) for a term or a
              ConvexSet JSON file.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 internal
error (a broken invariant of the package, never the input's fault),
141 (128 + SIGPIPE, as a shell reports it) when the reader closed
stdout early; that run ends quietly, with no traceback.
With ``--format json`` diagnostics go to stderr as one JSON object.
Identical (argv, CONVEXMOD_SEED) runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .convex import (ConvexSet, cs_compare, cs_equal, cs_from_json,
                     cs_to_csv, member)
from .distlaw import (
    SYMBOL_POOL,
    Relation,
    check_naturality,
    check_pentagon_law,
    check_weak_law,
    composition_count,
    delta_bruteforce,
    delta_hull,
    pentagon_instance_count,
    set_weighting,
    trivialE_extend,
    trivial_lifting_fixed_points,
    weak_law_instance_count,
    weightings_over,
)
from .errors import ConvexmodError, InternalError, ParseError
from .report import MODE_BOUNDED, MODE_EXHAUSTIVE, FAIL, PASS, LawReport
from .semiring import HULL_EXACT_LP, get_semiring
from .terms import (
    eval_term,
    parse,
    render_interval,
    render_polygon,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141

SUITES = ("weakdist", "pentagon", "naturality", "appendixA")
# appendixA checks all 2^(2^xsize) families of subsets: 65,536 at
# xsize 4 (under a second), 2^32 at xsize 5.
APPENDIX_A_MAX_XSIZE = 4
# pentagon over bool enumerates 5,672 instances at xsize 2 (seconds)
# and 28,158,761 at xsize 3 (hours).
PENTAGON_MAX_INSTANCES = 100_000
# weakdist over bool checks 1,424 instances at xsize 3 (about a second)
# and 18,940 at xsize 4, with larger sets (unfinished after 20 s).  Over
# nat it counts the value bound too: 2,435 at the defaults (xsize 2,
# bound 2), 753,997 at bound 30.
WEAK_LAW_MAX_INSTANCES = 10_000
# delta over nat folds the compositions of each set's weight: 840
# combinations for three two-element sets weighted 5, 9 and 13, about
# 4.2e10 for one weight of 1000 on five symbols.
DELTA_MAX_COMPOSITIONS = 100_000
# delta --compare-bruteforce over bool walks every subset of the n
# symbols: 16,384 at n = 14 (about a second), 65,536 at n = 16 (about
# 5 s).
DELTA_MAX_SUBSETS = 2 ** 16
# A count beyond 10^30 is reported as a bound, not computed in full.
_SHOWN_COUNT_DIGITS = 30
_SHOWN_COUNT_MAX = 10 ** _SHOWN_COUNT_DIGITS


def _parse_vars(arg: str | None) -> list[str]:
    if not arg:
        return []
    out = []
    for name in arg.split(","):
        name = name.strip()
        if name in out:
            raise ConvexmodError(f"duplicate variable {name!r} in --vars")
        if name:
            out.append(name)
    if not out:
        raise ConvexmodError("empty variable list")
    return out


def _fmt_gen(g, sr) -> str:
    fmt = sr.format_scalar
    return "{" + ", ".join([f"{k}: {fmt(v)}" for k, v in g.entries]) + "}"


def _describe_set(A: ConvexSet, variables: list[str]) -> dict:
    """Rendering payload: kind picked from the variable count, with
    the canonical set always included."""
    sr = A.semiring
    d: dict = {"semiring": sr.id, "variables": list(variables)}
    plotted = sr.hull_membership == HULL_EXACT_LP
    if len(variables) == 1 and plotted:
        d["kind"] = "interval"
        iv = render_interval(A, variables)
        if iv is None:
            d["min"] = None
            d["max"] = None
        else:
            d["min"] = sr.format_scalar(iv[0])
            d["max"] = sr.format_scalar(iv[1])
    elif len(variables) == 2 and plotted:
        d["kind"] = "polygon"
        vs = render_polygon(A, variables)
        d["vertices"] = None if vs is None else [
            [sr.format_scalar(x), sr.format_scalar(y)] for x, y in vs]
    else:
        d["kind"] = "generators"
    d["set"] = A.to_json_dict()
    return d


def _plot_csv(d: dict, A: ConvexSet, variables: list[str]) -> str:
    if d["kind"] == "interval":
        if d["min"] is None:
            return "min,max\n"
        return f"min,max\n{d['min']},{d['max']}\n"
    if d["kind"] == "polygon":
        header = ",".join(variables)
        rows = d["vertices"] or []
        return "\n".join([header] + [",".join(v) for v in rows]) + "\n"
    return cs_to_csv(A, variables or None)


def _plot_text(d: dict, A: ConvexSet) -> str:
    sr = A.semiring
    if d["kind"] == "interval":
        body = "empty" if d["min"] is None else f"[{d['min']}, {d['max']}]"
        return f"interval: {body}"
    if d["kind"] == "polygon":
        if d["vertices"] is None:
            return "polygon: empty"
        body = " ".join(f"({x}, {y})" for x, y in d["vertices"])
        return f"polygon: {body}"
    if A.is_empty():
        return "generators: none (empty set)"
    return "generators: " + " ".join(_fmt_gen(g, sr) for g in A.generators)


def _cmd_eval(args, out) -> int:
    sr = get_semiring(args.semiring)
    variables = _parse_vars(args.vars)
    if not variables:
        raise ConvexmodError("eval needs --vars")
    A = eval_term(parse(args.term, sr), sr, variables)
    d = _describe_set(A, variables)
    if args.format == "json":
        print(json.dumps(d), file=out)
    elif args.format == "csv":
        out.write(_plot_csv(d, A, variables))
    else:
        print(_plot_text(dict(d, kind="generators"), A), file=out)
        if d["kind"] != "generators":
            print(_plot_text(d, A), file=out)
    return EXIT_OK


def _cmd_eq(args, out) -> int:
    sr = get_semiring(args.semiring)
    variables = _parse_vars(args.vars)
    if not variables:
        raise ConvexmodError("eq needs --vars")
    A = eval_term(parse(args.term1, sr), sr, variables)
    B = eval_term(parse(args.term2, sr), sr, variables)
    if cs_equal(A, B):
        if args.format == "json":
            print(json.dumps({"equal": True}), file=out)
        elif args.format == "csv":
            print("equal,side,witness\ntrue,,", file=out)
        else:
            print("equal", file=out)
        return EXIT_OK
    side, witness = cs_compare(A, B)
    text = _fmt_gen(witness, sr)
    if args.format == "json":
        print(json.dumps({"equal": False, "side": side,
                          "witness": witness.to_json_dict()}), file=out)
    elif args.format == "csv":
        print(f"equal,side,witness\nfalse,{side},\"{text}\"", file=out)
    else:
        print(f"unequal: the {side} side has {text}, the other does not",
              file=out)
    return EXIT_CHECK_FAILED


def _appendix_a_reports(xsize: int) -> list[LawReport]:
    """The naive forward-image extension: the frozen inclusion pair
    showing its image depends on more than the input set, and the
    lifting idempotent whose fixed points are exactly singletons."""
    R = Relation((0, 1, 2), (0, 1, 2), ((0, 1),))
    S = Relation((0, 1, 2), (0, 1, 2), ((0, 1), (0, 2)))
    img_r = trivialE_extend(R)[(0,)]
    img_s = trivialE_extend(S)[(0,)]
    ok = (set(R.pairs) < set(S.pairs)
          and img_r == (1,) and img_s == (1, 2) and img_r != img_s)
    frozen = LawReport(
        name="appendixA:forward_image", semiring="bool",
        status=PASS if ok else FAIL, mode=MODE_EXHAUSTIVE,
        detail="E(R)({0}) = {1} differs from E(S)({0}) = {1, 2} for R in S",
        counterexample=None if ok else {"img_r": img_r, "img_s": img_s},
        meta={"expected": PASS})
    return [frozen, trivial_lifting_fixed_points(xsize)]


def _report_lines(reports, fmt) -> list[str]:
    if fmt == "json":
        return [json.dumps(r.to_json_dict()) for r in reports]
    if fmt == "csv":
        lines = ["name,semiring,status,mode,detail"]
        for r in reports:
            detail = str(r.detail).replace('"', "'")
            lines.append(
                f'{r.name},{r.semiring},{r.status},{r.mode},"{detail}"')
        return lines
    lines = []
    for r in reports:
        expected = r.meta.get("expected", PASS)
        mark = "ok " if r.status == expected else "BAD"
        line = f"{mark} {r.status:4s} {r.name} [{r.semiring}/{r.mode}]"
        if r.detail:
            line += f" {r.detail}"
        lines.append(line)
        if r.counterexample is not None:
            lines.append(f"    counterexample: {r.counterexample}")
    return lines


def _refuse_oversized(what: str, count: int, cap: int,
                      unit: str = "instances") -> None:
    """Usage error, before any enumeration, for a run that would walk
    more than ``cap`` instances."""
    if count > cap:
        shown = (f"{count:,}" if count <= _SHOWN_COUNT_MAX
                 else f"more than 10^{_SHOWN_COUNT_DIGITS}")
        raise ConvexmodError(
            f"{what} enumerates {shown} {unit}; at most {cap:,} are allowed")


def _cmd_laws(args, out) -> int:
    if args.suite == "appendixA" and args.semiring not in (None, "bool"):
        raise ConvexmodError(
            f"appendixA runs over bool only; got --semiring {args.semiring}")
    sr = get_semiring(args.semiring or "qplus")
    seed = args.seed
    if args.suite == "weakdist":
        xsize = args.xsize or 2
        if sr.enumeration == MODE_EXHAUSTIVE:
            _refuse_oversized(f"weakdist over {sr.id} at xsize {xsize}",
                              weak_law_instance_count(xsize),
                              WEAK_LAW_MAX_INSTANCES)
        elif sr.enumeration == MODE_BOUNDED:
            _refuse_oversized(
                f"weakdist over {sr.id} at xsize {xsize} and value bound "
                f"{args.value_bound}",
                weak_law_instance_count(xsize, sr, args.value_bound),
                WEAK_LAW_MAX_INSTANCES)
        reports = check_weak_law(sr, xsize=xsize,
                                 trials=args.trials, seed=seed,
                                 value_bound=args.value_bound)
    elif args.suite == "pentagon":
        xsize = args.xsize or 2
        if sr.enumeration == MODE_EXHAUSTIVE:
            _refuse_oversized(f"pentagon over {sr.id} at xsize {xsize}",
                              pentagon_instance_count(sr, xsize),
                              PENTAGON_MAX_INSTANCES)
        reports = check_pentagon_law(sr, xsize=xsize,
                                     trials=args.trials, seed=seed)
    elif args.suite == "naturality":
        reports = check_naturality(sr, xsize=args.xsize or 3,
                                   trials=args.trials, seed=seed)
    elif args.suite == "appendixA":
        xsize = args.xsize or 3
        if xsize > APPENDIX_A_MAX_XSIZE:
            raise ConvexmodError(
                f"appendixA enumerates 2^(2^xsize) families; xsize must "
                f"be at most {APPENDIX_A_MAX_XSIZE}")
        reports = _appendix_a_reports(xsize)
    else:
        raise ConvexmodError(f"unknown suite {args.suite!r}")
    for line in _report_lines(reports, args.format):
        print(line, file=out)
    met = all(r.status == r.meta.get("expected", PASS) for r in reports)
    return EXIT_OK if met else EXIT_CHECK_FAILED


def _read_json(path: str | None):
    """The JSON document in the file at ``path``, or on stdin for None.
    Every way the input can fail to be one is a usage error."""
    name = "stdin" if path is None else path
    try:
        if path is None:
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConvexmodError(f"no such file: {exc.filename}") from None
    except OSError as exc:
        raise ConvexmodError(f"cannot read {name}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConvexmodError(f"bad JSON: {exc}") from None
    except UnicodeDecodeError:
        raise ConvexmodError(f"{name} is not UTF-8 text") from None
    except ValueError:  # an int literal past the int-string limit
        raise ConvexmodError(
            f"bad JSON: {name} has a number longer than "
            f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ConvexmodError(f"bad JSON: {name} nests too deeply") from None


def _load_phi(path: str, sr):
    data = _read_json(None if path == "-" else path)
    weights = data.get("weights") if isinstance(data, dict) else None
    if not isinstance(weights, list):
        raise ConvexmodError("weighting JSON needs a 'weights' array")
    items = []
    for w in weights:
        if not isinstance(w, dict) or "set" not in w or "value" not in w:
            raise ConvexmodError(
                "each weight needs 'set' and 'value' fields")
        if not isinstance(w["set"], list):
            raise ConvexmodError("each weight's 'set' must be an array")
        if not all(isinstance(s, str) for s in w["set"]):
            raise ConvexmodError(
                "each weight's 'set' must hold symbol names (strings)")
        items.append((tuple(w["set"]),
                      sr.scalar_from_json(w["value"])))
    return set_weighting(sr, items)


def _cmd_delta(args, out) -> int:
    sr = get_semiring(args.semiring)
    Phi = _load_phi(args.phi, sr)
    if not sr.is_semifield:
        _refuse_oversized(
            f"delta over {sr.id}",
            composition_count(Phi, limit=_SHOWN_COUNT_MAX),
            DELTA_MAX_COMPOSITIONS, unit="combinations of compositions")
        gens = delta_bruteforce(Phi)
        hull = None
    else:
        hull = delta_hull(Phi)
        gens = list(hull.generators)
    status = EXIT_OK
    compare = None
    if args.compare_bruteforce:
        if hull is None or sr.enumeration is None:
            raise ConvexmodError(
                "--compare-bruteforce needs the bool semiring, where both "
                "routes are enumerable")
        symbols = sorted({x for A in Phi.support() for x in A})
        _refuse_oversized(f"delta --compare-bruteforce over {sr.id} on "
                          f"{len(symbols)} symbols", 2 ** len(symbols),
                          DELTA_MAX_SUBSETS, unit="subsets")
        brute = delta_bruteforce(Phi)
        closure = [psi for psi in weightings_over(sr, symbols, len(symbols),
                                                  None)
                   if member(hull, psi)]
        same = set(closure) == set(brute)
        compare = {"bruteforce_count": len(brute),
                   "closure_count": len(closure),
                   "agree": same}
        if not same:
            status = EXIT_CHECK_FAILED
    if args.format == "json":
        d = {"kind": "generators", "semiring": sr.id,
             "generators": [g.to_json_dict() for g in gens]}
        if compare is not None:
            d["compare"] = compare
        print(json.dumps(d), file=out)
    elif args.format == "csv":
        symbols = sorted({x for g in gens for x in g.support()})
        lines = [",".join(symbols)]
        for g in gens:
            lines.append(",".join(sr.format_scalar(g.value(s))
                                  for s in symbols))
        print("\n".join(lines), file=out)
        if compare is not None:
            print(f"compare,{str(compare['agree']).lower()}", file=out)
    else:
        for g in gens:
            print(_fmt_gen(g, sr), file=out)
        if compare is not None:
            verdict = "agree" if compare["agree"] else "DISAGREE"
            print(f"bruteforce comparison: {verdict} "
                  f"({compare['bruteforce_count']} brute, "
                  f"{compare['closure_count']} in hull)", file=out)
    return status


def _cmd_render(args, out) -> int:
    if args.set_json:
        A = cs_from_json(_read_json(args.set_json))
        sr = A.semiring
        variables = _parse_vars(args.vars) or sorted(
            {x for g in A.generators for x in g.support()})
    elif args.term:
        sr = get_semiring(args.semiring)
        variables = _parse_vars(args.vars)
        if not variables:
            raise ConvexmodError("render needs --vars with a term")
        A = eval_term(parse(args.term, sr), sr, variables)
    else:
        raise ConvexmodError("render needs a term or --set-json")
    d = _describe_set(A, variables)
    del d["set"]
    if d["kind"] == "generators":
        d["generators"] = [g.to_json_dict() for g in A.generators]
    if args.format == "json":
        print(json.dumps(d), file=out)
    elif args.format == "csv":
        out.write(_plot_csv(d, A, variables))
    else:
        print(_plot_text(d, A), file=out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one; parsing leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="convexmod",
        description="convex sets of semiring weightings: evaluate terms, "
                    "decide equality, check laws, apply the distributive "
                    "law, emit plot data")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, semiring="qplus"):
        p.add_argument("--semiring", choices=("bool", "qplus", "nat"),
                       default=semiring)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--seed", type=int, default=0,
                       help="randomized suites replay from this "
                            "(CONVEXMOD_SEED overrides)")

    p = sub.add_parser("eval", help="evaluate a term to a convex set")
    common(p)
    p.add_argument("--vars", required=True, help="comma-separated variables")
    p.add_argument("term")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("eq", help="decide semantic equality of two terms")
    common(p)
    p.add_argument("--vars", required=True)
    p.add_argument("term1")
    p.add_argument("term2")
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("laws", help="run a law suite")
    # None: each suite takes its own default (qplus, or bool for
    # appendixA, which runs over bool only)
    common(p, semiring=None)
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--xsize", type=int, default=None,
                   help="symbol count (default: suite-specific)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--value-bound", type=int, default=2,
                   help="scalar bound for bounded nat enumeration")
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("delta", help="apply the law to a set weighting")
    common(p)
    p.add_argument("--phi", required=True,
                   help="weighting JSON path, or - for stdin")
    p.add_argument("--compare-bruteforce", action="store_true")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("render", help="plot data for a term or set")
    common(p)
    p.add_argument("--vars", default=None)
    p.add_argument("--set-json", default=None,
                   help="ConvexSet JSON path instead of a term")
    p.add_argument("term", nargs="?")
    p.set_defaults(func=_cmd_render)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    env_seed = os.environ.get("CONVEXMOD_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            _diagnose(args, f"CONVEXMOD_SEED is not an integer: {env_seed!r}")
            return EXIT_USAGE
    if getattr(args, "trials", 1) < 1:
        _diagnose(args, "trials must be at least 1")
        return EXIT_USAGE
    xsize = getattr(args, "xsize", None)
    if xsize is not None and not 1 <= xsize <= len(SYMBOL_POOL):
        _diagnose(args, f"xsize must be between 1 and {len(SYMBOL_POOL)}")
        return EXIT_USAGE
    try:
        code = args.func(args, sys.stdout)
        # Inside the try, so a reader that closed stdout is met here.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _detach_stdout()
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        _diagnose(args, str(exc), kind="parse")
        return EXIT_USAGE
    except ConvexmodError as exc:
        _diagnose(args, str(exc))
        return EXIT_USAGE
    except InternalError as exc:
        _diagnose(args, str(exc), kind="internal")
        return EXIT_INTERNAL


def _detach_stdout() -> None:
    """Point file descriptor 1 at devnull, so the interpreter's flush
    at exit meets no closed pipe (the SIGPIPE recipe in the ``signal``
    module documentation).  A stdout with no descriptor is left as it
    is."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _diagnose(args, message: str, kind: str = "usage"):
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)
    else:
        label = "internal error" if kind == "internal" else "error"
        print(f"{label}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
