"""Closed-loop benchmark of mono.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mono is imported from ./src.  One
client runs the workload's jobs one after another, each starting when
the previous one ends, in passes over the same jobs until --seconds are
used up.  Every job's output is checked (see workloads.py).

Every pass runs the same jobs, and a job's latency is its best over the
run's passes: other processes on the machine stall whole passes for
seconds at a time, and the best of several passes is the job's cost
without them.  --trace 0 reports the end-to-end metrics: pass_s (the
sum of the jobs' latencies), job_p50_ms, job_tail_ms, setup_s (the
median of several set-ups, in this process and in fresh interpreters)
and peak_rss_mb.  --trace 1 alternates plain passes with passes traced
by tracer.py, and reports the per-layer metrics per pass, with
trace.overhead_s, the traced minus the plain pass_s.

Lines before the last describe the run; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every job passed its check, 1 when some failed, and 2
when mono cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import json
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
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120
MIN_PASSES = 2
SHOWN_FAILURES = 5

UNITS = {
    "pass_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def die(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def set_up(workload: str, seed: int):
    """Import mono and build the workload's jobs; returns (module, jobs, seconds)."""
    if not (SRC / "mono" / "__init__.py").is_file():
        die(f"no mono package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import workloads

        jobs = workloads.SETUP[workload](seed)
    except Exception:
        traceback.print_exc()
        die(f"set-up of {workload} failed")
    elapsed = time.perf_counter() - t0
    mono_file = Path(sys.modules["mono"].__file__).resolve()
    if SRC.resolve() not in mono_file.parents:
        die(f"mono was imported from {mono_file}, not from {SRC}")
    return workloads, jobs, elapsed


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        die(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


class Loop:
    """Runs passes over the jobs and keeps every latency and failure."""

    def __init__(self, workloads, jobs):
        self.workloads = workloads
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self) -> tuple[float, list[float]]:
        latencies = []
        t_pass = time.perf_counter()
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                job.run()
            except self.workloads.CheckFailed as exc:
                self.failures.append(f"{job.name}: {exc}")
            except Exception as exc:
                self.failures.append(f"{job.name}: raised {type(exc).__name__}: {exc}")
            latencies.append(1e3 * (time.perf_counter() - t0))
            self.attempted += 1
        return time.perf_counter() - t_pass, latencies

    def passes(self, budget_s: float) -> list[list[float]]:
        """Whole passes while the next one, as long as the last, fits the
        budget; returns each pass's job latencies in ms."""
        passes: list[list[float]] = []
        start = time.perf_counter()
        while True:
            pass_s, latencies = self.one_pass()
            passes.append(latencies)
            used = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and used + pass_s > budget_s:
                return passes


def best_of_passes(passes: list[list[float]]) -> list[float]:
    """Each job's lowest latency over the passes."""
    return [min(job) for job in zip(*passes)]


def tail(latencies: list[float], percentile: int) -> tuple[float, float]:
    """Latency at the percentile (nearest rank), lowered to the highest
    percentile that leaves ten samples beyond it when there are too few."""
    lat = sorted(latencies)
    n = len(lat)
    rank = max(1, min(-(-percentile * n // 100), n - 10))
    return lat[rank - 1], 100.0 * rank / n


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "mono").glob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_mono_lines": source_lines(),
    }


def report(loop: Loop, metrics: dict[str, float], units: dict[str, str]) -> int:
    failed = len(loop.failures)
    for line in loop.failures[:SHOWN_FAILURES]:
        print(f"FAILED {line}")
    print(f"error_rate {failed / loop.attempted:.4g} ({failed} failed / {loop.attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def end_to_end(args, workloads, jobs, setup_s: float) -> int:
    setups = [setup_s]
    setups += [setup_in_fresh_interpreter(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    loop = Loop(workloads, jobs)
    passes = loop.passes(args.seconds)
    best = best_of_passes(passes)
    samples = len(best) * len(passes)
    # each job's best latency stands for all of its samples
    tail_ms, pct = tail([b for b in best for _ in passes], workloads.TAIL_PERCENTILE[args.workload])
    metrics = {
        "pass_s": sum(best) / 1e3,
        "job_p50_ms": statistics.median(best),
        "job_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = statistics.median(sum(p) for p in passes) / 1e3
    notes = {
        "pass_s": f"sum of each job's best over {len(passes)} passes (median pass wall time {wall:.6g} s)",
        "job_p50_ms": f"median of {len(best)} jobs' best latencies, {samples} samples",
        "job_tail_ms": f"p{pct:.4g} of the same {samples} samples",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, value in metrics.items():
        print(f"{name:<12} {value:12.6g} {UNITS[name]:<3} {notes[name]}")
    return report(loop, metrics, UNITS)


def per_layer(args, workloads, jobs) -> int:
    import tracer as tracing

    # Plain and traced passes alternate, so that both see the same
    # machine and the difference between them is the tracing overhead.
    loop = Loop(workloads, jobs)
    tracer = tracing.Tracer()
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    per_pass: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(loop.one_pass()[1])
        missing = tracer.install()
        try:
            traced.append(loop.one_pass()[1])
        finally:
            tracer.uninstall()
        per_pass.append(tracer.summary())
        tracer.reset()
        now = time.perf_counter()
        if len(traced) >= MIN_PASSES and now - start + (now - t0) > args.seconds:
            break
    if missing:
        print(f"not traced (not found in mono): {', '.join(missing)}")
    plain_s = sum(best_of_passes(plain)) / 1e3
    traced_s = sum(best_of_passes(traced)) / 1e3
    metrics = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = traced_s - plain_s
    counts = {k: per_pass[0][k] for k in tracing.DETERMINISTIC}
    for i, p in enumerate(per_pass[1:], start=2):
        differ = {k: p[k] for k in tracing.DETERMINISTIC if p[k] != counts[k]}
        if differ:
            loop.failures.append(f"traced pass {i}: work counts differ from pass 1: {differ}")
    print(f"pass_s {plain_s:.6g} s plain, {traced_s:.6g} s traced (sum of each job's best "
          f"over {len(traced)} passes each)")
    print(f"counts per pass {json.dumps(counts)}")
    units = {name: tracing.unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name:<34} {value:14.6g} {units[name]}")
    return report(loop, metrics, units)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["group-w5", "words-w19", "roots-w19"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this interpreter, print the seconds and exit")
    args = ap.parse_args(argv)

    workloads, jobs, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(f"{setup_s!r}")
        return 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}: {len(jobs)} jobs per pass, closed loop, one client")
    print(f"env {json.dumps(environment())}")
    if args.trace:
        return per_layer(args, workloads, jobs)
    return end_to_end(args, workloads, jobs, setup_s)


if __name__ == "__main__":
    sys.exit(main())
