"""The three benchmark workloads: corpus generation and verdicts.

Each workload turns a seed into an endless, deterministic stream of
verdict specs, and checks every verdict against an answer that does not
come from the code under test: a law that holds by theorem, a
hand-written golden, or a count fixed by the arithmetic of the input.
The generator recipes are
copies of the acceptance-test recipes (c05, c09, c10, c13), kept here so
that a change to ``tests/`` cannot shift the corpus.

Library functions are looked up on their modules at call time
(``convex.hull_canonicalize`` rather than a name bound at import), so the
tracer's rebinding of module attributes reaches every call made here.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction as F

from convexmod import cli, composite, convex, distlaw, freemod
from convexmod.semiring import BOOL, QPLUS

# Instances whose raw size bound exceeds this are redrawn.  Above it the
# c05 recipe's per-instance cost runs into tens of seconds (68 s seen),
# which no time-boxed run can average; at or below it the maximum stays
# under about 0.3 s while LP solves still dominate.
MONAD_SIZE_CAP = 16
KLEISLI_EVERY = 2          # one c10 Kleisli instance after every two c05 ones

THREE_SETS = [(["x", "y"], 5), (["y", "z"], 9), (["a", "b"], 13)]

# Hand-written interval endpoints for the twenty golden terms; the
# expected stdout line is "interval: [lo, hi]" or "interval: empty".
INTERVAL_GOLDENS = [
    ("x", "[1, 1]"),
    ("bot", "empty"),
    ("0.bot", "[0, 0]"),
    ("3.bot", "empty"),
    ("x + bot", "empty"),
    ("x | 0", "[0, 1]"),
    ("(1.x | 2.x) + (5.x | 6.x)", "[6, 8]"),
    ("1/2.(x | 3.x)", "[1/2, 3/2]"),
    ("x + (0 | x)", "[1, 2]"),
    ("0 | bot", "[0, 0]"),
    ("2.x | 5.x", "[2, 5]"),
    ("1.x | 5.x", "[1, 5]"),
    ("x + x", "[2, 2]"),
    ("1/3.x + 1/3.x", "[2/3, 2/3]"),
    ("(x | 0) + (x | 0)", "[0, 2]"),
    ("2.(x | 3.x)", "[2, 6]"),
    ("0.x", "[0, 0]"),
    ("bot | bot", "empty"),
    ("x | x", "[1, 1]"),
    ("1/2.x | 2.x", "[1/2, 2]"),
]

# delta over qplus on THREE_SETS: one pick per set, weights pushed
# forward.  All eight choices are extreme points of their hull.
DELTA_QPLUS_LINES = {
    "{a: 13, x: 5, y: 9}", "{a: 13, x: 5, z: 9}", "{a: 13, y: 5, z: 9}",
    "{a: 13, y: 14}", "{b: 13, x: 5, y: 9}", "{b: 13, x: 5, z: 9}",
    "{b: 13, y: 5, z: 9}", "{b: 13, y: 14}",
}


def canonical_text(A) -> str:
    """Canonical form of a symbol-keyed convex set, for the digest."""
    return json.dumps(A.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# monad_laws_qplus: c05 qplus instances plus a slice of c10 Kleisli ones
# ---------------------------------------------------------------------------

def _monad_raw(rng: random.Random):
    """One c05 instance as plain data: three level-1 generator lists,
    three level-2 lists of family weightings (level-1 index, weight) and
    the outer list of weightings (level-2 index, weight)."""
    symbols = ["x", "y", "z"]

    def rand_phi():
        ks = rng.sample(symbols, rng.randint(0, 3))
        return [(k, F(rng.randint(1, 4), rng.randint(1, 3))) for k in ks]

    level1 = [[rand_phi() for _ in range(rng.randint(0, 3))]
              for _ in range(3)]
    level2 = [[[(j, F(rng.randint(1, 3)))
                for j in rng.sample(range(3), rng.randint(0, 3))]
               for _ in range(rng.randint(0, 3))] for _ in range(3)]
    outer = [[(j, F(rng.randint(1, 3)))
              for j in rng.sample(range(3), rng.randint(0, 3))]
             for _ in range(rng.randint(0, 3))]
    return level1, level2, outer


def _monad_size(level1, level2, outer) -> int:
    """Upper bound on the Minkowski products the associativity check
    forms, from raw generator counts (canonical forms only shrink them)."""
    a = [len(gens) for gens in level1]
    k = [len(gens) for gens in level2]
    m = [sum(math.prod(a[j] for j, _ in theta) for theta in level2[i])
         for i in range(3)]
    via_inner = sum(sum(m[i] for i, _ in psi) + math.prod(m[i] for i, _ in psi)
                    for psi in outer)
    flat = (sum(math.prod(k[i] for i, _ in psi) for psi in outer)
            * math.prod(max(x, 1) for x in a))
    return max(via_inner, flat)


def _kleisli_raw(rng: random.Random):
    """c10 recipe: f1, f2 : {x} -> {u, v} and g : {u, v} -> {t}, each a
    table of up to two random generators per input."""
    def table(vars_in, vars_out):
        out = {}
        for x in vars_in:
            gens = []
            for _ in range(rng.randint(0, 2)):
                support = rng.sample(vars_out, rng.randint(0, len(vars_out)))
                gens.append([(y, F(rng.randint(1, 4), rng.randint(1, 2)))
                             for y in support])
            out[x] = gens
        return out
    return (table(["x"], ["u", "v"]), table(["x"], ["u", "v"]),
            table(["u", "v"], ["t"]))


def monad_stream(seed: int):
    rng = random.Random(seed)
    accepted = 0
    while True:
        raw = _monad_raw(rng)
        if _monad_size(*raw) > MONAD_SIZE_CAP:
            continue
        yield ("c05", raw)
        accepted += 1
        if accepted % KLEISLI_EVERY == 0:
            yield ("c10", _kleisli_raw(rng))


def _hull(gens, sr):
    return convex.hull_canonicalize(gens, sr)


def _unit_laws_hold(sr, A) -> bool:
    fam = freemod.finsupp(sr, [(A, 1)])
    if not convex.cs_equal(composite.pc_mult(_hull([fam], sr)), A):
        return False
    mapped = [freemod.finsupp(sr, [(composite.pc_unit(sr, x), phi.value(x))
                                   for x in phi.support()])
              for phi in A.generators]
    return convex.cs_equal(composite.pc_mult(_hull(mapped, sr)), A)


def _assoc(sr, outer):
    """Both legs of the associativity square; they must be equal."""
    via_inner = composite.pc_mult(_hull(
        [freemod.finsupp(sr, [(composite.pc_mult(K), w)
                              for K, w in psi.items()])
         for psi in outer.generators], sr))
    return via_inner, composite.pc_mult(composite.pc_mult(outer))


def _c05_verdict(raw):
    l1raw, l2raw, oraw = raw
    sr = QPLUS
    level1 = [_hull([freemod.finsupp(sr, g) for g in gens], sr)
              for gens in l1raw]
    unit_ok = _unit_laws_hold(sr, level1[0])
    level2 = [_hull([freemod.finsupp(sr, [(level1[j], w) for j, w in theta])
                     for theta in gens], sr) for gens in l2raw]
    outer = _hull([freemod.finsupp(sr, [(level2[j], w) for j, w in psi])
                   for psi in oraw], sr)
    left, right = _assoc(sr, outer)
    ok = unit_ok and convex.cs_equal(left, right)
    return ok, canonical_text(level1[0]) + canonical_text(left)


def _monad_verdict(spec):
    kind, raw = spec
    return _c05_verdict(raw) if kind == "c05" else _c10_verdict(raw)


def _arrow(sr, vars_in, vars_out, raw_table):
    table = {x: _hull([freemod.finsupp(sr, g) for g in gens], sr)
             for x, gens in raw_table.items()}
    return composite.arrow(sr, vars_in, vars_out, table)


def _c10_verdict(raw):
    sr = QPLUS
    f1 = _arrow(sr, ["x"], ["u", "v"], raw[0])
    f2 = _arrow(sr, ["x"], ["u", "v"], raw[1])
    g = _arrow(sr, ["u", "v"], ["t"], raw[2])
    left = composite.kleisli_compose(g, composite.kleisli_join(f1, f2))
    right = composite.kleisli_join(composite.kleisli_compose(g, f1),
                                   composite.kleisli_compose(g, f2))
    return (composite.kleisli_equal(left, right),
            json.dumps(left.to_json_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# coherence_bool: exhaustive bool pentagon and c05 bool associativity
# ---------------------------------------------------------------------------

class BoolPools:
    """The small fixed carriers every bool instance draws from."""

    def __init__(self):
        sr = BOOL
        # pentagon carrier: every convex set of bool weightings over {x, y}
        phis = [freemod.finsupp(sr, [(s, 1) for s in sub])
                for r in range(3)
                for sub in itertools.combinations(["x", "y"], r)]
        self.carrier = self._all_hulls(phis)
        # c05 level 1: every convex set over {p, q}
        phis = [freemod.finsupp(sr, [(s, 1) for s in sub])
                for r in range(3)
                for sub in itertools.combinations(["p", "q"], r)]
        self.level1 = self._all_hulls(phis)
        self.w2 = [freemod.finsupp(sr, [(K, 1) for K in sub])
                   for r in range(3)
                   for sub in itertools.combinations(self.level1, r)]
        pool = {}
        for w in self.w2:
            K = _hull([w], sr)
            pool[K] = K
        empty = _hull([], sr)
        pool[empty] = empty
        self.p2 = sorted(pool)

    @staticmethod
    def _all_hulls(phis):
        seen = {}
        for r in range(len(phis) + 1):
            for sub in itertools.combinations(phis, r):
                A = _hull(list(sub), BOOL)
                seen[A] = A
        return sorted(seen)


def bool_instances(pools: BoolPools) -> list:
    """The 22,915 bounded-exhaustive instances: 5,672 pentagon families
    (as in check_pentagon_law(BOOL, xsize=2)) and the c05 bool unit and
    associativity instances."""
    ncar = len(pools.carrier)
    families = [()] + [fam for r in (1, 2)
                       for fam in itertools.combinations(range(ncar), r)]
    specs = [("pentagon", tuple(families[i] for i in sub)) for r in range(3)
             for sub in itertools.combinations(range(len(families)), r)]
    specs += [("unit", i) for i in range(len(pools.level1))]
    specs += [("assoc_level2", sub) for r in range(3)
              for sub in itertools.combinations(range(len(pools.w2)), r)]
    specs += [("assoc_outer", sub) for r in range(3)
              for sub in itertools.combinations(range(len(pools.p2)), r)]
    specs += [("assoc_pair", pair) for pair in
              itertools.combinations(range(len(pools.p2) + 1), 2)]
    return specs


def bool_stream(seed: int, instances: list):
    """Seeded shuffles of the exhaustive instance set, one after another."""
    for n in itertools.count():
        order = list(instances)
        random.Random(f"{seed}:{n}").shuffle(order)
        yield from order


def _bool_verdict(spec, pools: BoolPools):
    kind, data = spec
    sr = BOOL
    if kind == "pentagon":
        Phi = distlaw.set_weighting(
            sr, [([pools.carrier[i] for i in fam], 1) for fam in data])
        report = distlaw.pentagon_check("free", Phi)
        return report.passed, canonical_text(report.meta["left"])
    if kind == "unit":
        A = pools.level1[data]
        return _unit_laws_hold(sr, A), canonical_text(A)
    if kind == "assoc_level2":
        K = _hull([pools.w2[i] for i in data], sr)
        outer = _hull([freemod.finsupp(sr, [(K, 1)])], sr)
    elif kind == "assoc_outer":
        outer = _hull([freemod.finsupp(sr, [(pools.p2[i], 1) for i in data])],
                      sr)
    else:
        singles = [freemod.finsupp(sr, [(pools.p2[i - 1], 1)]) if i
                   else freemod.finsupp(sr, []) for i in data]
        outer = _hull(singles, sr)
    left, right = _assoc(sr, outer)
    return convex.cs_equal(left, right), canonical_text(left)


# ---------------------------------------------------------------------------
# cli_calculator: in-process cli.main requests
# ---------------------------------------------------------------------------

def _random_term(rng: random.Random, depth: int = 3) -> str:
    """c09 recipe, printed fully parenthesized in the CLI's syntax."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(6)
        if pick == 0:
            return "bot"
        if pick == 1:
            return "0"
        return rng.choice(("x", "y", "z"))
    pick = rng.randrange(3)
    if pick == 0:
        lam = F(rng.randrange(0, 7), rng.randrange(1, 5))
        return f"{lam}.({_random_term(rng, depth - 1)})"
    op = "+" if pick == 1 else "|"
    return (f"({_random_term(rng, depth - 1)} {op} "
            f"{_random_term(rng, depth - 1)})")


def _padded_sets(rng: random.Random):
    """c13 recipe: a random generator list and the same list padded
    with twenty random convex combinations of it, shuffled."""
    symbols = ["x", "y", "z"]
    gens = []
    for _ in range(rng.randint(1, 5)):
        sup = rng.sample(symbols, rng.randint(0, 3))
        gens.append({s: F(rng.randint(0, 5), rng.randint(1, 4)) for s in sup})
    padded = list(gens)
    for _ in range(20):
        chosen = rng.sample(gens, rng.randint(1, len(gens)))
        raw = [rng.randint(1, 6) for _ in chosen]
        total = sum(raw)
        combo = {}
        for g, a in zip(chosen, raw):
            for s, v in g.items():
                combo[s] = combo.get(s, 0) + F(a, total) * v
        padded.append(combo)
    rng.shuffle(padded)

    def as_json(gs):
        return {"semiring": "qplus",
                "generators": [{s: str(v) for s, v in sorted(g.items()) if v}
                               for g in gs]}
    return as_json(gens), as_json(padded)


def write_phi(workdir: str) -> str:
    path = os.path.join(workdir, "three_sets.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"weights": [{"set": s, "value": v}
                               for s, v in THREE_SETS]}, fh)
    return path


def cli_stream(seed: int, workdir: str, phi_path: str):
    """Request specs (argv, check), round after round.  Each round writes
    its two set files to workdir before yielding the requests that read
    them."""
    rng = random.Random(seed)
    for n in itertools.count():
        t1, t2 = _random_term(rng), _random_term(rng)
        alpha = F(rng.randint(0, 8), 8)
        lhs = f"({t1} | {t2})"
        rhs = f"({lhs} | ({alpha}.({t1}) + {1 - alpha}.({t2})))"
        term, want = INTERVAL_GOLDENS[rng.randrange(len(INTERVAL_GOLDENS))]
        paths = []
        for tag, data in zip(("base", "padded"), _padded_sets(rng)):
            path = os.path.join(workdir, f"set{n:06d}_{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            paths.append(path)
        yield ["eval", lhs, "--vars", "x,y,z"], ("record", None)
        yield ["eval", rhs, "--vars", "x,y,z"], ("same", None)
        yield ["eq", lhs, rhs, "--vars", "x,y,z"], ("exact", "equal\n")
        yield ["eval", term, "--vars", "x"], ("last_line", f"interval: {want}")
        yield ["render", "--set-json", paths[0]], ("record", None)
        yield ["render", "--set-json", paths[1]], ("same", None)
        if n % 2 == 0:
            sr = "nat" if n % 4 == 0 else "qplus"
            yield (["delta", "--semiring", sr, "--phi", phi_path],
                   ("delta_" + sr, None))


def _delta_nat_ok(lines) -> bool:
    """840 distinct weightings: one composition of each set weight,
    x + y + z = 14 with x <= 5 and z <= 9, a + b = 13."""
    if len(lines) != 840 or len(set(lines)) != 840:
        return False
    for line in lines:
        vals = {"x": 0, "y": 0, "z": 0, "a": 0, "b": 0}
        for part in line.strip("{}").split(", "):
            key, value = part.split(": ")
            if key not in vals:
                return False
            vals[key] = int(value)
        if (vals["x"] + vals["y"] + vals["z"] != 14 or vals["x"] > 5
                or vals["z"] > 9 or vals["a"] + vals["b"] != 13):
            return False
    return True


class CliChecker:
    """Runs one request through cli.main with stdout captured and checks
    it; a "same" request must print exactly what the last "record" did."""

    def __init__(self):
        self.recorded = None

    def __call__(self, spec):
        argv, (check, want) = spec
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        out = buf.getvalue()
        lines = out.splitlines()
        if check == "record":
            self.recorded = out
            ok = rc == 0 and bool(lines)
        elif check == "same":
            ok = rc == 0 and out == self.recorded
        elif check == "exact":
            ok = rc == 0 and out == want
        elif check == "last_line":
            ok = rc == 0 and bool(lines) and lines[-1] == want
        elif check == "delta_nat":
            ok = rc == 0 and _delta_nat_ok(lines)
        else:
            ok = rc == 0 and set(lines) == DELTA_QPLUS_LINES \
                and len(lines) == len(DELTA_QPLUS_LINES)
        return ok, out


# ---------------------------------------------------------------------------
# common interface
# ---------------------------------------------------------------------------

class Workload:
    """A seeded spec stream and the verdict function for its specs.

    Construction is the set-up: fixed pools are built and fixed input
    files written; the per-verdict inputs come from ``specs()``, a
    generator run between verdicts.  ``run(spec)`` returns (ok, text):
    whether the verdict matched its known answer, and the canonical
    output that feeds the digest.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        if name == "monad_laws_qplus":
            self.specs = lambda: monad_stream(seed)
            self.run = _monad_verdict
        elif name == "coherence_bool":
            pools = BoolPools()
            instances = bool_instances(pools)
            self.specs = lambda: bool_stream(seed, instances)
            self.run = lambda spec: _bool_verdict(spec, pools)
        elif name == "cli_calculator":
            phi_path = write_phi(workdir)
            self.specs = lambda: cli_stream(seed, workdir, phi_path)
            self.run = CliChecker()
        else:
            raise ValueError(f"unknown workload {name!r}")
