#!/usr/bin/env python3
"""convexmod benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
        One closed-loop client in this interpreter sends the workload's
        seeded verdicts one after another for S seconds (and at least
        MIN_SAMPLES verdicts), checks every verdict, and prints the
        end-to-end metrics.  setup_s is the median of SETUP_REPEATS fresh
        interpreters timed from start to the point where the first
        verdict could be sent.

    python3 perfbench/run.py --workload NAME --seed N --trace 1
        Runs the first TRACE_VERDICTS[NAME] verdicts of the same stream
        twice, each in a fresh interpreter: once plain, once with every
        layer boundary traced.  Prints the per-layer metrics and
        trace_overhead_ratio, and writes the spans to perfbench/out/.

    python3 perfbench/run.py --self-check [--workload NAME] [--seed N]
        Runs the traced prefix in two processes with different hash
        seeds and the plain prefix in a third, and fails unless the
        output digests and the deterministic per-layer counts agree.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's
details (seed, held-out seed, sample count, error rate, digest).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("monad_laws_qplus", "coherence_bool", "cli_calculator")
# A seed never used while writing a change, for confirming a claim on
# inputs the change was not tuned on.
HELD_OUT_SEED = 9001
SETUP_REPEATS = 7
MIN_SAMPLES = 400           # keeps at least 20 samples beyond p95
CAL_INTERVAL = 0.2          # s of timed phase between reference kernels
REF_NOMINAL_S = 0.0021      # reference kernel time on the quiet machine
TRACE_VERDICTS = {"monad_laws_qplus": 600, "coherence_bool": 4000,
                  "cli_calculator": 600}
# per-layer counts that must repeat exactly for one seed
DETERMINISTIC = (".calls", ".gens_in", ".gens_out", ".columns",
                 ".infeasible_ratio", ".repeat_ratio")


def import_library():
    """Put this checkout's src/ first on the path and import from it."""
    sys.path.insert(0, str(SRC))
    import convexmod
    if Path(convexmod.__file__).resolve().parent != SRC / "convexmod":
        sys.exit(f"perfbench: imported convexmod from {convexmod.__file__}")
    import bench_workloads
    return bench_workloads


def make_workload(name, seed):
    """The set-up: import, fixed pools, fixed input files."""
    bench_workloads = import_library()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return bench_workloads.Workload(name, seed, str(workdir)), workdir


def run_verdict(workload, spec):
    try:
        return workload.run(spec)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, "raised"


def script_cmd(args, *extra):
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def child(args, *extra, env=None):
    """Run this script in a fresh interpreter; its last stdout line is
    JSON."""
    proc = subprocess.run(script_cmd(args, *extra), stdout=subprocess.PIPE,
                          text=True, env=env, check=False, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(extra)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(args) -> float:
    """Wall time from spawning a fresh interpreter until it reports that
    its set-up is done."""
    t0 = time.perf_counter()
    with subprocess.Popen(script_cmd(args, "--probe-setup"),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if code != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed ({code})")
    return t1 - t0


def probe_setup(args):
    workload, workdir = make_workload(args.workload, args.seed)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def percentile_rank(n, q):
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, -(-n * q // 100))


def percentile(sorted_values, q):
    return sorted_values[percentile_rank(len(sorted_values), q) - 1]


def reference_kernel() -> float:
    """Seconds taken by a fixed stretch of Fraction arithmetic and dict
    updates, the instruction mix convexmod spends its time on.  It uses
    no convexmod code, so only the machine changes its duration."""
    t0 = time.perf_counter()
    s, d = Fraction(0), {}
    for i in range(1, 800):
        s += Fraction(i % 7 + 1, i % 97 + 1)
        d[(i % 13, i % 11)] = s
    return time.perf_counter() - t0


class SpeedProbe:
    """Machine speed along the timed phase, from the reference kernel run
    every CAL_INTERVAL seconds.  The speed of this shared box drifts by
    up to 1.7x within seconds, for reasons outside the benchmark; times
    divided by ``factor_at`` read as if the machine had run at
    REF_NOMINAL_S per kernel throughout."""

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []
        self.spent = 0.0
        self.next_due = 0.0

    def maybe_run(self, now: float):
        if now >= self.next_due:
            dur = reference_kernel()
            self.times.append(now)
            self.factors.append(dur / REF_NOMINAL_S)
            self.spent += dur
            self.next_due = now + dur + CAL_INTERVAL

    def factor_at(self, t: float) -> float:
        """Mean of the two kernel runs around time t."""
        j = bisect.bisect_right(self.times, t)
        around = self.factors[max(j - 1, 0):j + 1]
        return sum(around) / len(around)

    def mean(self) -> float:
        return statistics.fmean(self.factors)


def measure_setup_scaled(args) -> tuple[float, float]:
    """One set-up time, raw and scaled by the machine speed measured
    right before and right after it."""
    before = reference_kernel()
    raw = measure_setup(args)
    factor = (before + reference_kernel()) / 2 / REF_NOMINAL_S
    return raw, raw / factor


def end_to_end(args):
    setups = [measure_setup_scaled(args) for _ in range(SETUP_REPEATS)]
    workload, workdir = make_workload(args.workload, args.seed)
    prefix = TRACE_VERDICTS[args.workload]
    digest = hashlib.sha256()
    prefix_digest = None
    starts, latencies = [], []
    failed = 0
    speed = SpeedProbe()
    try:
        t_start = time.perf_counter()
        deadline = t_start + args.seconds
        for spec in workload.specs():
            speed.maybe_run(time.perf_counter())
            t0 = time.perf_counter()
            ok, text = run_verdict(workload, spec)
            t1 = time.perf_counter()
            starts.append(t0)
            latencies.append(t1 - t0)
            failed += not ok
            if len(latencies) <= prefix:
                digest.update(text.encode())
                if len(latencies) == prefix:
                    prefix_digest = digest.hexdigest()
            if t1 >= deadline and len(latencies) >= MIN_SAMPLES:
                break
        speed.maybe_run(t1)
        wall = t1 - t_start - speed.spent
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(latencies)
    scaled = sorted(lat / speed.factor_at(t)
                    for t, lat in zip(starts, latencies))
    raw = sorted(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "verdicts_per_s": (n * speed.mean() / wall, "1/s"),
        "verdict_ms_p50": (percentile(scaled, 50) * 1e3, "ms"),
        "verdict_ms_p95": (percentile(scaled, 95) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = {"workload": args.workload, "seed": args.seed,
               "held_out_seed": HELD_OUT_SEED, "samples": n,
               "samples_beyond_p95": n - percentile_rank(n, 95),
               "timed_s": wall, "error_rate": failed / n,
               "busy_share": sum(latencies) / wall,
               "speed_factor_mean": speed.mean(),
               "speed_factor_range": [min(speed.factors), max(speed.factors)],
               "raw": {"setup_s": statistics.median(r for r, _ in setups),
                       "verdicts_per_s": n / wall,
                       "verdict_ms_p50": percentile(raw, 50) * 1e3,
                       "verdict_ms_p95": percentile(raw, 95) * 1e3},
               "prefix_verdicts": prefix, "prefix_digest": prefix_digest}
    emit(details, failed == 0, n, failed, metrics)


def fixed_pass(args):
    """The first TRACE_VERDICTS verdicts, plain or traced; prints one
    JSON line with wall time, digest and (traced) per-layer metrics.
    Times are scaled by the pass's mean machine speed, as in
    end_to_end."""
    workload, workdir = make_workload(args.workload, args.seed)
    tracer = None
    if args.fixed_pass == "traced":
        import bench_trace
        tracer = bench_trace.Tracer()
        tracer.install()
    digest = hashlib.sha256()
    failed = 0
    count = TRACE_VERDICTS[args.workload]
    speed = SpeedProbe()
    try:
        specs = workload.specs()
        t_start = time.perf_counter()
        for i in range(count):
            spec = next(specs)
            speed.maybe_run(time.perf_counter())
            if tracer is not None:
                tracer.verdict = i
            ok, text = run_verdict(workload, spec)
            failed += not ok
            digest.update(text.encode())
        t_end = time.perf_counter()
        speed.maybe_run(t_end)
        wall = t_end - t_start - speed.spent
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"wall_s": wall / speed.mean(), "raw_wall_s": wall,
              "digest": digest.hexdigest(), "failed": failed,
              "verdicts": count}
    if tracer is not None:
        result["metrics"] = tracer.metrics(speed.mean())
        result["spans"] = len(tracer.start)
        path = OUT / f"spans-{args.workload}-{args.seed}.bin"
        tracer.write_spans(str(path))
        result["spans_file"] = str(path.relative_to(HERE.parent))
    print(json.dumps(result))


def traced(args):
    plain = child(args, "--fixed-pass", "plain")
    trace = child(args, "--fixed-pass", "traced")
    metrics = {k: tuple(v) for k, v in trace["metrics"].items()}
    metrics["trace_overhead_ratio"] = (trace["wall_s"] / plain["wall_s"],
                                       "ratio")
    same = plain["digest"] == trace["digest"]
    details = {"workload": args.workload, "seed": args.seed,
               "held_out_seed": HELD_OUT_SEED, "verdicts": trace["verdicts"],
               "digest": trace["digest"], "plain_digest_matches": same,
               "plain_wall_s": plain["wall_s"],
               "traced_wall_s": trace["wall_s"],
               "raw_wall_s": [plain["raw_wall_s"], trace["raw_wall_s"]],
               "spans": trace["spans"],
               "spans_file": trace["spans_file"]}
    failed = trace["failed"] + plain["failed"]
    emit(details, same and failed == 0, 2 * trace["verdicts"], failed,
         metrics)


def self_check(args):
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        args.workload = name
        runs = [child(args, "--fixed-pass", "traced",
                      env=dict(os.environ, PYTHONHASHSEED=str(h)))
                for h in (0, 1)]
        plain = child(args, "--fixed-pass", "plain")
        counts = [{k: v[0] for k, v in r["metrics"].items()
                   if k.endswith(DETERMINISTIC)} for r in runs]
        digests = {plain["digest"]} | {r["digest"] for r in runs}
        failed = plain["failed"] + sum(r["failed"] for r in runs)
        good = len(digests) == 1 and counts[0] == counts[1] and failed == 0
        ok = ok and good
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        print(json.dumps({"workload": name, "seed": args.seed,
                          "digest": runs[0]["digest"],
                          "digests_agree": len(digests) == 1,
                          "counts_agree": not diff, "count_diffs": diff,
                          "failed": failed, "counts": counts[0]}))
    print("self-check " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def emit(details, correct, attempted, failed, metrics):
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--fixed-pass", choices=("plain", "traced"),
                   help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (SRC / "convexmod" / "__init__.py").is_file():
        sys.exit(f"perfbench: no convexmod sources under {SRC}")
    if args.self_check:
        return self_check(args)
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.probe_setup:
        return probe_setup(args)
    if args.fixed_pass:
        return fixed_pass(args)
    if args.trace:
        return traced(args)
    return end_to_end(args)


if __name__ == "__main__":
    main()
