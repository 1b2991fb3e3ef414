#!/usr/bin/env python3
"""Time the c05 instances that the monad_laws_qplus benchmark redraws.

    python3 scripts/c05_tail.py --seed 1 --count 25 [--root DIR]

Draws the c05 recipe of ``perfbench/bench_workloads.py`` from a fresh
``Random(seed)`` and keeps the first COUNT draws whose raw size bound
exceeds ``MONAD_SIZE_CAP``: instances of the kind the benchmark
redraws.  Each runs through the benchmark's own c05 verdict in this
interpreter.
Prints one JSON object: per instance the size bound, wall seconds,
``exactlp.feasible`` calls and total columns, whether the laws held,
and the sha256 of the canonical output; then the maximum and the p95
(inclusive quantile) of the times and the totals.

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are
imported (default: the one holding this script), so one copy of the
script can measure two checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path


def tail_draws(bw, seed: int, count: int) -> list:
    """The first ``count`` draws of the c05 recipe from a fresh
    ``Random(seed)`` whose raw size bound exceeds the cap."""
    rng = random.Random(seed)
    tail = []
    while len(tail) < count:
        raw = bw._monad_raw(rng)
        if bw._monad_size(*raw) > bw.MONAD_SIZE_CAP:
            tail.append(raw)
    return tail


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--root", type=Path,
                   default=Path(__file__).resolve().parent.parent)
    args = p.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import bench_workloads as bw
    from convexmod import convex

    lp = {"calls": 0, "columns": 0}
    feasible = convex.feasible

    def counted(system, *rest, **kwargs):
        lp["calls"] += 1
        lp["columns"] += len(system.columns)
        return feasible(system, *rest, **kwargs)

    convex.feasible = counted
    rows = []
    for k, raw in enumerate(tail_draws(bw, args.seed, args.count)):
        before = dict(lp)
        t0 = time.perf_counter()
        ok, text = bw._c05_verdict(raw)
        seconds = time.perf_counter() - t0
        rows.append({
            "index": k, "size_bound": bw._monad_size(*raw),
            "seconds": round(seconds, 4), "laws_hold": ok,
            "lp_calls": lp["calls"] - before["calls"],
            "lp_columns": lp["columns"] - before["columns"],
            "sha256": hashlib.sha256(text.encode()).hexdigest()})
    times = [r["seconds"] for r in rows]
    print(json.dumps({
        "seed": args.seed, "count": args.count,
        "max_s": max(times),
        "p95_s": round(statistics.quantiles(times, n=20,
                                            method="inclusive")[18], 4),
        "total_s": round(sum(times), 3),
        "lp_calls": lp["calls"], "lp_columns": lp["columns"],
        "instances": rows}, indent=1))


if __name__ == "__main__":
    main()
