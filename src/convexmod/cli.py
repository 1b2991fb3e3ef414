"""Command line front end.

Subcommands:

* ``eval``    parse a term, evaluate it over declared variables, print
              the canonical generators plus an interval or polygon
              rendering when the variable count is one or two.
* ``eq``      decide semantic equality of two terms; on inequality a
              witness generator lying in one side only is printed.
* ``laws``    run a law suite (``distlaw.SUITES``) and stream one
              report per line; the exit status is 0 exactly when
              every report matches its expected outcome, so a suite
              built around a known counterexample passes by
              exhibiting it.  An option the run would not read is a
              usage error.
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

from .convex import ConvexSet, cs_compare, cs_from_json
from .distlaw import SUITES, run_delta, run_laws, set_weighting
from .errors import ConvexmodError, InternalError, ParseError
from .semiring import HULL_EXACT_LP, get_semiring
from .terms import (
    check_declared,
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


def _parse_vars(arg: str) -> list[str]:
    """The names in a given ``--vars``; an empty list is refused."""
    names = [name.strip() for name in arg.split(",")]
    if not any(names):
        raise ConvexmodError("empty variable list")
    out = []
    for entry, name in enumerate(names, start=1):
        if not name:
            raise ConvexmodError(
                f"empty variable name: entry {entry} of --vars {arg!r}")
        if name in out:
            raise ConvexmodError(f"duplicate variable {name!r} in --vars")
        out.append(name)
    return out


def _fmt_gen(g, sr) -> str:
    fmt = sr.format_scalar
    return "{" + ", ".join([f"{k}: {fmt(v)}" for k, v in g.entries]) + "}"


def _csv(header, rows) -> str:
    return "\n".join([",".join(row) for row in [header, *rows]]) + "\n"


def _generators_csv(gens, sr, columns) -> str:
    """One row per generator under a header of ``columns``: the
    generator's value on each column, zero where it has none."""
    return _csv(columns, [[sr.format_scalar(g.value(c)) for c in columns]
                          for g in gens])


def _generators_line(A: ConvexSet) -> str:
    gens = " ".join([_fmt_gen(g, A.semiring) for g in A.generators])
    return f"generators: {gens or 'none (empty set)'}"


def _plot(A: ConvexSet, variables: list[str]) -> dict:
    """The plot record: an exact-LP set over one or two variables is
    an interval (formatted endpoints) or a polygon (formatted
    vertices); any other set is shown by its generators."""
    sr = A.semiring
    fmt = sr.format_scalar
    d = {"semiring": sr.id, "variables": variables, "kind": "generators"}
    plotted = sr.hull_membership == HULL_EXACT_LP
    if len(variables) == 1 and plotted:
        iv = render_interval(A, variables)
        lo, hi = (None, None) if iv is None else map(fmt, iv)
        d.update(kind="interval", min=lo, max=hi)
    elif len(variables) == 2 and plotted:
        vs = render_polygon(A, variables)
        d.update(kind="polygon", vertices=None if vs is None else
                 [[fmt(x), fmt(y)] for x, y in vs])
    return d


def _write_plot(plot: dict, A: ConvexSet, fmt: str, out) -> None:
    """A plot record's text line or CSV table."""
    kind = plot["kind"]
    if kind == "generators":
        if fmt == "csv":
            out.write(_generators_csv(A.generators, A.semiring,
                                      plot["variables"]))
        else:
            print(_generators_line(A), file=out)
        return
    if kind == "interval":
        header = ["min", "max"]
        rows = [] if plot["min"] is None else [[plot["min"], plot["max"]]]
    else:
        header, rows = plot["variables"], plot["vertices"] or []
    if fmt == "csv":
        out.write(_csv(header, rows))
    else:
        pattern = "[{}, {}]" if kind == "interval" else "({}, {})"
        body = " ".join([pattern.format(*row) for row in rows])
        print(f"{kind}: {body or 'empty'}", file=out)


def _cmd_eval(args, out) -> int:
    sr = get_semiring(args.semiring)
    variables = _parse_vars(args.vars)
    A = eval_term(parse(args.term, sr), sr, variables)
    plot = _plot(A, variables)
    if args.format == "json":
        print(json.dumps(dict(plot, set=A.to_json_dict())), file=out)
    else:
        # text: the generators line, then the plot if it is another line
        if args.format == "text" and plot["kind"] != "generators":
            print(_generators_line(A), file=out)
        _write_plot(plot, A, args.format, out)
    return EXIT_OK


def _cmd_eq(args, out) -> int:
    sr = get_semiring(args.semiring)
    variables = _parse_vars(args.vars)
    # One memo for both sides: a subterm of both is computed once.
    memo: dict = {}
    A = eval_term(parse(args.term1, sr), sr, variables, memo)
    B = eval_term(parse(args.term2, sr), sr, variables, memo)
    differ = cs_compare(A, B)
    if differ is None:
        if args.format == "json":
            print(json.dumps({"equal": True}), file=out)
        elif args.format == "csv":
            print("equal,side,witness\ntrue,,", file=out)
        else:
            print("equal", file=out)
        return EXIT_OK
    side, witness = differ
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
        mark = "ok " if r.met else "BAD"
        line = f"{mark} {r.status:4s} {r.name} [{r.semiring}/{r.mode}]"
        if r.detail:
            line += f" {r.detail}"
        lines.append(line)
        if r.counterexample is not None:
            lines.append(f"    counterexample: {r.counterexample}")
    return lines


def _cmd_laws(args, out) -> int:
    env_seed = os.environ.get("CONVEXMOD_SEED")
    try:
        seed_override = None if env_seed is None else int(env_seed)
    except ValueError:
        raise ConvexmodError(
            f"CONVEXMOD_SEED is not an integer: {env_seed!r}") from None
    given = {name: getattr(args, name)
             for name in ("xsize", "trials", "seed", "value_bound")
             if getattr(args, name) is not None}
    reports = run_laws(args.suite, args.semiring, seed_override, **given)
    for line in _report_lines(reports, args.format):
        print(line, file=out)
    return EXIT_OK if all(r.met for r in reports) else EXIT_CHECK_FAILED


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
        raise ConvexmodError(f"no such file: {exc.filename!r}") from None
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
    gens, compare = run_delta(_load_phi(args.phi, sr), args.compare_bruteforce)
    if args.format == "json":
        d = {"kind": "generators", "semiring": sr.id,
             "generators": [g.to_json_dict() for g in gens]}
        if compare is not None:
            d["compare"] = compare
        print(json.dumps(d), file=out)
    elif args.format == "csv":
        symbols = sorted({x for g in gens for x in g.support()})
        out.write(_generators_csv(gens, sr, symbols))
        if compare is not None:
            print(f"compare,{str(compare['agree']).lower()}", file=out)
    else:
        out.write("".join([_fmt_gen(g, sr) + "\n" for g in gens]))
        if compare is not None:
            verdict = "agree" if compare["agree"] else "DISAGREE"
            print(f"bruteforce comparison: {verdict} "
                  f"({compare['bruteforce_count']} brute, "
                  f"{compare['closure_count']} in hull)", file=out)
    agreed = compare is None or compare["agree"]
    return EXIT_OK if agreed else EXIT_CHECK_FAILED


def _cmd_render(args, out) -> int:
    if args.term is not None and args.set_json is not None:
        raise ConvexmodError("render takes a term or --set-json, not both")
    if args.set_json is not None:
        A = cs_from_json(_read_json(args.set_json))
        sr = A.semiring
        if args.semiring not in (None, sr.id):
            raise ConvexmodError(f"--semiring {args.semiring} does not match "
                                 f"the {sr.id} set in {args.set_json}")
        variables = (list(A.support()) if args.vars is None
                     else _parse_vars(args.vars))
        check_declared(A, variables)
    elif args.term is not None:
        sr = get_semiring(args.semiring or "qplus")
        if args.vars is None:
            raise ConvexmodError("render needs --vars with a term")
        variables = _parse_vars(args.vars)
        A = eval_term(parse(args.term, sr), sr, variables)
    else:
        raise ConvexmodError("render needs a term or --set-json")
    plot = _plot(A, variables)
    if args.format == "json":
        if plot["kind"] == "generators":
            plot["generators"] = [g.to_json_dict() for g in A.generators]
        print(json.dumps(plot), file=out)
    else:
        _write_plot(plot, A, args.format, out)
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
    # None: not given; distlaw.run_laws picks every default and refuses
    # what the run would not read
    common(p, semiring=None)
    p.add_argument("--seed", type=int, default=None,
                   help="randomized suites replay from this "
                        "(CONVEXMOD_SEED overrides)")
    p.add_argument("--suite", choices=tuple(SUITES), required=True)
    p.add_argument("--xsize", type=int, default=None,
                   help="symbol count (default: suite-specific)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--value-bound", type=int, default=None,
                   help="scalar bound for bounded nat enumeration")
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("delta", help="apply the law to a set weighting")
    common(p)
    p.add_argument("--phi", required=True,
                   help="weighting JSON path, or - for stdin")
    p.add_argument("--compare-bruteforce", action="store_true")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("render", help="plot data for a term or set")
    common(p, semiring=None)  # a term is read over qplus by default
    p.add_argument("--vars", default=None)
    p.add_argument("--set-json", default=None,
                   help="ConvexSet JSON path instead of a term")
    p.add_argument("term", nargs="?")
    p.set_defaults(func=_cmd_render)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
