"""Layered benchmark for ethroot: one workload per run, metrics as JSON.

    python3 layerbench/run.py --workload crt_large --seed 1 --seconds 40 --trace 0

The job list of a workload is built from --seed and run again, unchanged,
pass after pass until --seconds runs out. A job's time is its best over the
passes, so a slow stretch inside the run moves no metric (see
README.md). With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 untraced and traced passes
alternate and it carries the per-layer metrics, trace.overhead being traced
over untraced time. Earlier lines, starting with '#', hold the host record
and diagnostics. Exit code 2 means the library sources are missing; a
failing root never aborts a run.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5  # fewest set-ups timed in one untraced run
SETUP_SHARE = 0.2  # share of an untraced run's time that repeated set-ups may take


def _calibration_s() -> float:
    """Seconds of a fixed pure-Python loop; recorded, never used to scale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _host() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "calibration_s": _calibration_s(),
    }


def _run_pass(jobs, failures: dict) -> dict:
    """Time each job of one pass, then check the results outside the timing."""
    results, wall, cpu = [], [], []
    for job in jobs:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            results.append(job.run())
        except Exception as exc:  # a failed call is counted, never fatal
            results.append(exc)
            traceback.print_exc(file=sys.stderr)
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
    failed = 0
    for job, res in zip(jobs, results):
        kind = type(res).__name__ if isinstance(res, Exception) else None
        if kind is None and not job.check(res):
            kind = "WrongRoot"
        if kind is not None:
            failed += 1
            failures[kind] = failures.get(kind, 0) + 1
    return {"wall": wall, "cpu": cpu, "failed": failed}


def _per_job_best(passes, key) -> list:
    return [min(col) for col in zip(*(p[key] for p in passes))]


def _repeat(seconds: float, step, between=None) -> list:
    """Call step() until another call would overrun seconds; at least once.

    between(elapsed), if given, runs after each call, inside the time budget.
    """
    start = time.perf_counter()
    out, took = [], []
    while True:
        t0 = time.perf_counter()
        out.append(step())
        took.append(time.perf_counter() - t0)
        if between is not None:
            between(time.perf_counter() - start)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return out


def _cold_import_s() -> float:
    """Seconds that `import ethroot` (numpy and mpmath with it) takes in a
    fresh interpreter; the child is waited for."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); import ethroot; "
            "print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


class _SetUps:
    """Fresh set-ups of a workload, each timed, spread over the whole run.

    One set-up is a cold import of the library in a child interpreter, then
    the workload's fields built and warmed in this process. The host's speed
    drifts in phases of seconds to minutes, so set-ups made back to back
    would all land in one phase.
    """

    def __init__(self, workload, warm_up):
        self.workload, self.warm_up, self.times = workload, warm_up, []

    def once(self):
        import_s = _cold_import_s()
        t0 = time.perf_counter()
        fields = self.workload.fields()
        self.warm_up(fields)
        self.times.append(import_s + time.perf_counter() - t0)
        return fields

    def between_passes(self, elapsed: float):
        if sum(self.times) < SETUP_SHARE * elapsed:
            self.once()

    def top_up(self):
        while len(self.times) < SETUP_REPS:
            self.once()


def _tail(latencies: list) -> dict:
    """Highest whole percentile with at least ten calls beyond it."""
    n = len(latencies)
    if n < 20:
        return {"calls": n, "max_s": max(latencies)}
    q = math.floor(100 * (1 - 10 / n))
    return {"calls": n, f"p{q}_s": statistics.quantiles(latencies, n=100)[q - 1]}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny job lists and one set-up, for the self-tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "ethroot" / "__init__.py").is_file():
        print(f"ethroot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ethroot
    import_s = time.perf_counter() - t0
    if Path(ethroot.__file__).resolve().parent != SRC / "ethroot":
        print(f"imported ethroot from {ethroot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print("# host " + json.dumps(_host()), flush=True)

    setups = _SetUps(workload, warm_up)
    jobs = workload.jobs(setups.once(), args.seed, args.smoke)

    failures: dict = {}
    consistent = True
    if args.trace:
        metrics, passes, consistent = _traced(jobs, args.seconds, failures, spans)
    else:
        passes = _repeat(args.seconds, lambda: _run_pass(jobs, failures),
                         None if args.smoke else setups.between_passes)
        if not args.smoke:
            setups.top_up()
    attempted = len(jobs) * len(passes)
    failed = sum(p["failed"] for p in passes)
    if not args.trace:
        per_job = _per_job_best(passes, "wall")
        metrics = {
            "wall_s": _metric(sum(per_job), "s"),
            "cpu_s": _metric(sum(_per_job_best(passes, "cpu")), "s"),
            "call_p50_s": _metric(statistics.median(per_job), "s"),
            "setup_s": _metric(statistics.median(setups.times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
        }
    print("# run " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "call_tail": _tail([t for p in passes for t in p["wall"]]),
        "fail_frac": failed / attempted,
        "failures": failures,
        "pass_wall_s": [sum(p["wall"]) for p in passes],
        "import_s": import_s,
        "setup_reps_s": setups.times,
        "work_counts_repeat": consistent,
    }), flush=True)
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _traced(jobs, seconds, failures, spans):
    """Alternate untraced and traced passes; per-layer medians and counts."""
    tracer = spans.Tracer()

    def pair():
        plain = _run_pass(jobs, failures)
        tracer.reset()
        tracer.install()
        try:
            traced = _run_pass(jobs, failures)
        finally:
            tracer.uninstall()
        return plain, traced, tracer.metrics(sum(traced["wall"]))

    pairs = _repeat(seconds, pair)
    layers = [m for _, _, m in pairs]
    consistent = True
    metrics = {}
    for name, unit in spans.metric_units().items():
        if name == "trace.overhead":
            untraced_s = sum(_per_job_best([p for p, _, _ in pairs], "wall"))
            traced_s = sum(_per_job_best([t for _, t, _ in pairs], "wall"))
            metrics[name] = _metric(traced_s / untraced_s, unit)
            continue
        values = [m[name] for m in layers]
        if spans.is_work_count(name, unit):
            consistent &= all(v == values[0] for v in values)
            metrics[name] = _metric(values[0], unit)
        else:
            metrics[name] = _metric(statistics.median(values), unit)
    passes = [p for plain, traced, _ in pairs for p in (plain, traced)]
    return metrics, passes, consistent


if __name__ == "__main__":
    sys.exit(main())
