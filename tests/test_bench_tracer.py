"""The benchmark's tracer must find every function it wraps.

A traced function that was renamed or reshaped in mono is only reported
as "not traced" by bench/run.py, and its per-layer metric silently
reads 0; this test makes that a failure instead.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_installs_every_name(tracer_module):
    from mono import cli, equation

    main = cli.main
    t = tracer_module.Tracer()
    try:
        assert t.install() == []
        assert cli.main is not main
    finally:
        t.uninstall()
    assert cli.main is main
    assert "eval" not in vars(equation.FAMILY)



@pytest.mark.parametrize(
    "im_max, roots, refused",
    [(18.0, 5, 1), (6.0, 3, 1)],
    ids=["W5", "W3"],
)
def test_tracer_sees_internal_count_roots_calls(
    tracer_module, monkeypatch, im_max, roots, refused
):
    # find_roots calls count_roots through the module global the tracer
    # rebinds.  Its seed grid would place every root of W3 and W5 with no
    # cut, so every grid of two or more roots is made to fail, and the
    # windows are cut down to one-root cells.  W3 (10 x 12) is
    # halved across Im at its centre: the cut Im z = 0 runs through the
    # real root, and the first half's contour on it is refused and counted
    # as a failed call; the next ladder rung cuts clear of it.  W5 (10 x 24)
    # is halved at Im z = 6, and its lower half is W3 itself, so it sees the
    # same one refusal.
    from mono import rootwindow
    from mono.rootsets import Window

    locate = rootwindow._locate
    monkeypatch.setattr(
        rootwindow, "_locate", lambda w, a, n, discs: discs if n > 1 else locate(w, a, n, discs)
    )
    t = tracer_module.Tracer()
    try:
        assert t.install() == []
        t.reset()
        found = rootwindow.find_roots(0j, Window(-5.0, 5.0, -6.0, im_max))
        summary = t.summary()
    finally:
        t.uninstall()
    assert len(found) == roots
    assert summary["rootwindow.find_roots.calls"] == 1
    assert summary["rootwindow.count_roots.calls"] > 0
    assert summary["rootwindow.count_roots.failed"] == refused
