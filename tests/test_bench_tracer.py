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
