"""The benchmark's workloads must pass their own output checks.

Each workload is built at seed 1 and every job is run once, as in one
pass of bench/run.py, so a check the program no longer meets (for
example max_residual < 1e-12 on a tracked word) fails here before it
fails in the benchmark.  The tracked steps and the contours counted per
pass are pinned too: neither the step law nor the subdivision has any
randomness, so a change to them is a change of behaviour, not noise.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# accepted and rejected root-steps per seed-1 pass (each root keeps its own
# step schedule); roots-w19 does no tracking
STEPS = {"group-w5": (1216, 0), "words-w19": (1927, 0), "roots-w19": (0, 0)}
# count_roots calls and refused or unsettled contours per seed-1 pass;
# words-w19 locates its roots in set-up, outside the pass
CONTOURS = {"group-w5": (7, 0), "words-w19": (0, 0), "roots-w19": (24, 0)}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    yield tracer, workloads
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", list(STEPS))
def test_workload_jobs_pass_their_checks(bench, workload):
    tracer, workloads = bench
    jobs = workloads.SETUP[workload](1)
    assert jobs
    t = tracer.Tracer()
    try:
        assert t.install() == []
        t.reset()
        for job in jobs:
            job.run()  # raises workloads.CheckFailed on a wrong output
        summary = t.summary()
    finally:
        t.uninstall()
    steps = (summary["tracking.steps_accepted"], summary["tracking.steps_rejected"])
    assert steps == STEPS[workload]
    contours = (summary["rootwindow.count_roots.calls"], summary["rootwindow.count_roots.failed"])
    assert contours == CONTOURS[workload]
