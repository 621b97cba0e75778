"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py [--workloads A,B] [--seeds 1-10] [--traced-runs 2] > baseline.json

For each workload, runs bench/run.py once per seed with --trace 0, then
--traced-runs times with --trace 1 on the first seed, one run at a time.
Prints one JSON object: for each workload and metric the values of all
runs, their median, quartiles and spread (the distance between the
quartiles as a share of the median), the jobs attempted and failed, the
descriptive lines of the first run, and whether every traced run
printed the same work counts.  Run length is run_seconds from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS_PREFIX = "counts per pass "


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run(workload: str, seed: int, trace: int, seconds: float) -> tuple[list[str], dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]),
          file=sys.stderr)
    return lines[:-1], result


def section(runs: list[tuple[list[str], dict]]) -> dict:
    results = [r for _, r in runs]
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "first_run": runs[0][0],
        "metrics": {
            name: {"unit": m["unit"], **summarise([r["metrics"][name]["value"] for r in results])}
            for name, m in results[0]["metrics"].items()
        },
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-runs", type=int, default=2)
    args = ap.parse_args()
    seeds = seed_range(args.seeds)
    seconds = bench["run_seconds"]

    out = {}
    for workload in args.workloads.split(","):
        out[workload] = {"seeds": args.seeds,
                         "end_to_end": section([run(workload, s, 0, seconds) for s in seeds])}
        if args.traced_runs:
            traced = [run(workload, seeds[0], 1, seconds) for _ in range(args.traced_runs)]
            counts = [next(line for line in lines if line.startswith(COUNTS_PREFIX))
                      for lines, _ in traced]
            out[workload]["per_layer"] = section(traced)
            out[workload]["per_layer"]["traced_seed"] = seeds[0]
            out[workload]["per_layer"]["counts_reproduced"] = len(set(counts)) == 1
            out[workload]["per_layer"]["counts"] = json.loads(counts[0][len(COUNTS_PREFIX):])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
