"""Benchmark-side tracing of the convexmod layers.

``Tracer.install()`` wraps the public functions listed in ``LAYERS`` by
rebinding each name in every ``convexmod`` module that holds it, so calls
between library modules, within one module and from the benchmark (which
looks functions up on their modules) go through the wrapper while
``src/`` stays untouched.

Each wrapped call records a span: name, start, end, parent span and the
id of the verdict being computed.  Spans stay in memory in flat arrays
and are written out once, at the end.  Counts that a later optimisation
is expected to move (LP columns and infeasible answers, canonicalize
generators in and out, repeated canonicalize inputs) are taken at the
same boundaries.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

# module -> public functions traced in it
LAYERS = {
    "exactlp": ("feasible",),
    "convex": ("hull_canonicalize", "member", "cs_add", "cs_join_all"),
    "freemod": ("finsupp", "fs_add", "fs_scale"),
    "composite": ("alpha", "pc_mult", "kleisli_compose"),
    "distlaw": ("pentagon_check", "choice_set", "delta_hull",
                "delta_bruteforce"),
    "terms": ("parse", "eval_term", "term_equal", "render_interval",
              "render_polygon"),
    "cli": ("main",),
}

# which spans also report self time
SELF_TIME = {
    "exactlp.feasible", "convex.hull_canonicalize", "composite.alpha",
    "composite.pc_mult", "composite.kleisli_compose",
    "distlaw.pentagon_check", "distlaw.choice_set", "distlaw.delta_hull",
    "distlaw.delta_bruteforce", "cli.main",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name_id = array("H")
        self.verdict_id = array("i")
        self.verdict = -1
        self._stack: list[int] = []
        self.lp_columns = 0
        self.lp_infeasible = 0
        self.gens_in = 0
        self.gens_out = 0
        self.hull_repeats = 0
        self._hull_seen: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "convexmod"
                                         or name.startswith("convexmod."))]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"convexmod.{mod_name}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, value))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, value in reversed(self._restore):
            setattr(m, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        start, end, parent = self.start, self.end, self.parent
        name_id, verdict_id, stack = self.name_id, self.verdict_id, self._stack
        prepare = observe = None
        if name == "convex.hull_canonicalize":
            prepare, observe = self._hull_prepare, self._hull_observe
        elif name == "exactlp.feasible":
            observe = self._lp_observe

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            idx = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            verdict_id.append(self.verdict)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counts at the boundaries -------------------------------------------

    def _hull_prepare(self, args):
        gens = list(args[0])
        sr = args[1] if len(args) > 1 else None
        key = hash((getattr(sr, "id", None) if not gens else None,
                    frozenset(gens)))
        if key in self._hull_seen:
            self.hull_repeats += 1
        else:
            self._hull_seen.add(key)
        self.gens_in += len(gens)
        return (gens,) + tuple(args[1:])

    def _hull_observe(self, args, result):
        self.gens_out += len(result.generators)

    def _lp_observe(self, args, result):
        self.lp_columns += len(args[0].columns)
        if result is None:
            self.lp_infeasible += 1

    # -- results --------------------------------------------------------------

    def metrics(self, speed_factor: float = 1.0) -> dict:
        """Per-layer metrics, as {name: (value, unit)}; times are divided
        by speed_factor, the machine's mean slow-down during the pass."""
        n = len(self.start)
        start, end, parent, name_id = (self.start, self.end, self.parent,
                                       self.name_id)
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls = [0] * k
        incl = [0] * k
        self_ns = [0] * k
        open_depth = [0] * k
        # inclusive time counts only the outermost span of each name
        closing: list[int] = []
        for i in range(n):
            while closing and end[closing[-1]] <= start[i]:
                open_depth[name_id[closing.pop()]] -= 1
            nid = name_id[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_ns[nid] += dur - child[i]
            if open_depth[nid] == 0:
                incl[nid] += dur
            open_depth[nid] += 1
            closing.append(i)
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.time_s"] = (incl[nid] / 1e9 / speed_factor, "s")
            if name in SELF_TIME:
                out[f"{name}.self_s"] = (
                    self_ns[nid] / 1e9 / speed_factor, "s")
        lp = self.names.index("exactlp.feasible")
        lp_calls = calls[lp]
        out["exactlp.feasible.us_per_call"] = (
            incl[lp] / 1e3 / lp_calls / speed_factor if lp_calls else 0.0,
            "us")
        out["exactlp.feasible.columns"] = (
            self.lp_columns / lp_calls if lp_calls else 0.0, "count")
        out["exactlp.feasible.infeasible_ratio"] = (
            self.lp_infeasible / lp_calls if lp_calls else 0.0, "ratio")
        hull_calls = calls[self.names.index("convex.hull_canonicalize")]
        out["convex.hull_canonicalize.gens_in"] = (self.gens_in, "count")
        out["convex.hull_canonicalize.gens_out"] = (self.gens_out, "count")
        out["convex.hull_canonicalize.repeat_ratio"] = (
            self.hull_repeats / hull_calls if hull_calls else 0.0, "ratio")
        return out

    def write_spans(self, path: str):
        """Spans as one JSON header line, then the five arrays in order
        (start and end in ns, int64; parent and verdict int32; name id
        uint16), native byte order."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["start:q", "end:q", "parent:i", "verdict:i",
                             "name_id:H"], "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.parent, self.verdict_id,
                        self.name_id):
                arr.tofile(fh)
