"""Benchmark for tanglekh: one workload per process, jobs in a closed loop.

Run from the root of a checkout (the package is imported from ``src``):

    python3 bench/run.py --workload kh-fields --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1   # each in its own process
    python3 bench/run.py --smoke       # every workload once, small inputs
    python3 bench/run.py --self-test   # every check rejects a corrupted result

A run sets up (imports the package, generates the seeded inputs and writes
them under ``.bench_work/``) several times and keeps the median, then runs
whole rounds of the workload's jobs, one job at a time, while the next
round is expected to end within ``--seconds``.  Each job's output is
checked against the oracles in ``oracles.py`` before it counts as done.
With ``--trace 1`` untraced and traced rounds alternate; the traced ones
give the per-layer figures, and their difference the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUPS = 5
MODULES = ("cli", "complex", "persistence", "ingest", "diagram", "algebra")


def import_package():
    """Import tanglekh afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules
                 if m == "tanglekh" or m.startswith("tanglekh.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"tanglekh.{m}") for m in MODULES}
    where = Path(sys.modules["tanglekh"].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"tanglekh imported from {where}, not {ROOT}/src")
    return types.SimpleNamespace(**mods)


def set_up(name, seed, small):
    """One set-up: import, generate and write inputs.  Returns the jobs."""
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pkg = import_package()
    return workloads.WORKLOADS[name](pkg, seed, str(work), small), pkg


class Runner:
    """Runs rounds of jobs and keeps the tallies of one process."""

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.job_times = {}   # label -> untraced wall times, failed too

    def round(self, traced):
        total = 0.0
        done = {}
        for job in self.jobs:
            gc.collect()
            self.attempted += 1
            failure = None
            t0 = time.perf_counter()
            try:
                result = (self.tracer.run_job(job.label, job.run) if traced
                          else job.run())
            except (Exception, SystemExit):
                failure = traceback.format_exc()
            dt = time.perf_counter() - t0
            total += dt
            if not traced:
                self.job_times.setdefault(job.label, []).append(dt)
            if failure:
                self.failed += 1
                print(f"job {job.label} failed:\n{failure}", file=sys.stderr)
                continue
            try:
                counts = job.check(result, done)
            except Exception:   # a malformed output fails its check too
                self.errors.append(job.label)
                print(f"check failed on {job.label}:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
                continue
            if traced:
                for key, n in (counts or {}).items():
                    self.tracer.count(key, n)
                self.tracer.count("io.output_bytes", sum(
                    os.path.getsize(f) for f in job.outputs))
        return total


def run_workload(args):
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        jobs, pkg = set_up(args.workload, args.seed, small=False)
        setups.append(time.perf_counter() - t0)

    tracer = Tracer() if args.trace else None
    runner = Runner(jobs, tracer)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        trace_now = bool(args.trace) and len(plain) > len(traced)
        if trace_now:
            tracer.install(pkg)
        try:
            (traced if trace_now else plain).append(runner.round(trace_now))
        finally:
            if trace_now:
                tracer.uninstall()
        last = time.perf_counter() - r0
        if args.trace and not traced:
            continue
        if time.perf_counter() - start + last > args.seconds:
            break

    if args.trace:
        metrics = layer_metrics(tracer, plain, traced)
        out = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(out)
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "job_p50_s": (statistics.median(
                statistics.median(t) for t in runner.job_times.values()),
                "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    rounds = len(plain) + len(traced)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of "
          f"{len(jobs)} jobs, {runner.attempted} attempted, "
          f"{runner.failed} failed, {len(runner.errors)} failed checks")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    return {"correct": not runner.errors,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def layer_metrics(tracer, plain, traced):
    """Per-layer figures per traced round.  The self times, other.self_s
    and trace.count_s add up to trace.wall_s, the mean traced round."""
    n = len(traced)
    self_s = tracer.self_times()
    c = tracer.counts

    def per(x):
        return x / n

    def s(key):
        return per(self_s.get(key, 0.0))

    def calls(name):
        return per(tracer.calls(name))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    reduce_s = self_s.get("reduce.rank_only_s", 0.0) + \
        self_s.get("reduce.with_reps_s", 0.0)
    m = {
        "resolve.calls": (calls("resolve"), "count"),
        "resolve.busy_s": (s("resolve.busy_s"), "s"),
        "assemble.calls": (calls("assemble"), "count"),
        "assemble.self_s": (s("assemble.self_s"), "s"),
        "assemble.generators": (per(c.get("assemble.generators", 0)),
                                "count"),
        "assemble.nnz": (per(c.get("assemble.nnz", 0)), "count"),
        "assemble.us_per_gen": (ratio(self_s.get("assemble.self_s", 0.0),
                                      c.get("assemble.generators", 0), 1e6),
                                "us"),
        "reduce.calls": (calls("reduce.rank_only")
                         + calls("reduce.with_reps"), "count"),
        "reduce.blocks": (per(c.get("reduce.blocks", 0)), "count"),
        "reduce.largest_block": (c.get("reduce.largest_block", 0), "count"),
        "reduce.us_per_gen": (ratio(reduce_s, c.get("reduce.generators", 0),
                                    1e6), "us"),
        "reduce.rank_only_s": (s("reduce.rank_only_s"), "s"),
        "reduce.with_reps_s": (s("reduce.with_reps_s"), "s"),
        "persist.chain_maps": (calls("persist.chain_map"), "count"),
        "persist.chain_map_s": (s("persist.chain_map_s"), "s"),
        "persist.induced_calls": (calls("persist.induced"), "count"),
        "persist.induced_s": (s("persist.induced_s"), "s"),
        "persist.rank_calls": (calls("persist.rank"), "count"),
        "persist.rank_s": (s("persist.rank_s"), "s"),
        "persist.bars": (per(c.get("persist.bars", 0)), "count"),
        "persist.build_useful_ratio": (ratio(c.get("builds.distinct", 0),
                                             c.get("builds", 0)), "ratio"),
        "ingest.segments": (per(c.get("ingest.segments", 0)), "count"),
        "ingest.segment_pairs": (per(c.get("ingest.segment_pairs", 0)),
                                 "count_computed"),
        "ingest.crossings": (per(c.get("ingest.crossings", 0)), "count"),
        "ingest.detect_s": (s("ingest.detect_s"), "s"),
        "ingest.events": (per(c.get("ingest.events", 0)), "count"),
        "ingest.radii_s": (s("ingest.radii_s"), "s"),
        "ingest.clips": (calls("ingest.clip"), "count"),
        "ingest.clip_s": (s("ingest.clip_s"), "s"),
        "ingest.match_s": (s("ingest.match_s"), "s"),
        "io.parse_s": (s("io.parse_s"), "s"),
        "io.write_s": (s("io.write_s"), "s"),
        "io.output_bytes": (per(c.get("io.output_bytes", 0)), "bytes"),
        "other.self_s": (s("other.self_s"), "s"),
        "trace.count_s": (s("trace.count_s"), "s"),
        "trace.wall_s": (statistics.mean(traced), "s"),
        "trace.overhead_s": (statistics.mean(traced)
                             - statistics.mean(plain), "s"),
    }
    return m


def smoke():
    """Every workload once, at small size, with all checks."""
    ok = True
    for name in workloads.WORKLOADS:
        jobs, pkg = set_up(name, 1, small=True)
        runner = Runner(jobs)
        wall = runner.round(False)
        good = not runner.errors and not runner.failed
        ok &= good
        print(f"smoke {name}: {len(jobs)} jobs in {wall:.2f} s, "
              f"{runner.failed} failed, {len(runner.errors)} failed checks")
    return 0 if ok else 1


def run_all(args):
    """Every workload, each in its own process, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tanglekh" / "__init__.py").is_file():
        print(f"error: no tanglekh sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        import selftest
        work = ROOT / ".bench_work" / "self-test"
        shutil.rmtree(work, ignore_errors=True)
        return selftest.main(import_package(), str(work))
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
