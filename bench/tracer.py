"""Per-layer tracing of mono from outside the package.

``Tracer.install`` rebinds mono's public functions to wrappers in every
mono module that holds them (``mono.rootwindow.find_roots`` and
``mono.cli.find_roots`` alike), so calls made inside the package are
seen too.  A wrapper records a span (id, parent id, name, start, end)
in memory; a layer's self time is its spans' duration minus that of
their direct children.  ``FAMILY.eval`` and ``FAMILY.deriv`` are
counted, not timed: they run close to a million times a second, and a span each
would distort the times around them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter

from mono import cli, equation, lambertw, paths, permutation, rootwindow, tracking
from mono.errors import BoundaryTooCloseError, ResidualTooLargeError

# Work counts that must repeat exactly between passes over the same jobs.
DETERMINISTIC = (
    "tracking.track_bundle.calls",
    "tracking.steps_accepted",
    "tracking.steps_rejected",
    "tracking.step_control.calls",
    "equation.eval.calls",
    "equation.deriv.calls",
    "rootwindow.find_roots.calls",
    "rootwindow.count_roots.calls",
    "rootwindow.count_roots.failed",
    "lambertw.lambert_w.calls",
    "paths.winding_number.calls",
    "permutation.group_order.explored",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


class _Tally:
    """A call counter whose wrapper only advances a C-level itertools.count,
    cheap enough for FAMILY.eval and FAMILY.deriv."""

    def __init__(self):
        self._count = itertools.count()
        self.tick = self._count.__next__
        self._mark = self.tick()

    def take(self) -> int:
        """Calls since the last take; each take itself advances the count once."""
        now = self.tick()
        calls, self._mark = now - self._mark - 1, now
        return calls


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id or None, name, start, end]
        self.counts: Counter = Counter()
        self._tallies: dict[str, _Tally] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, name: str, fn, on_return=None, on_raise=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        tally = self._tallies[name] = _Tally()

        def wrapper(z, _tick=tally.tick, _fn=fn):
            _tick()
            return _fn(z)

        return wrapper

    def _rebind(self, fn, wrapper) -> None:
        """Replace fn by wrapper wherever a mono module binds it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mono" or mod_name.startswith("mono.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> list[str]:
        """Wrap every traced function; returns the names not found in mono."""
        counts = self.counts
        missing = []

        def absorbed(exc):
            if isinstance(exc, (BoundaryTooCloseError, ResidualTooLargeError)):
                counts["rootwindow.count_roots.failed"] += 1

        def steps(result):
            report = result[1]
            counts["tracking.steps_accepted"] += report.steps_accepted
            counts["tracking.steps_rejected"] += report.steps_rejected

        def explored(result):
            counts["permutation.group_order.explored"] += result.explored

        functions = [
            (cli, "main", "cli.main", None, None),
            (rootwindow, "find_roots", "rootwindow.find_roots", None, None),
            (rootwindow, "count_roots", "rootwindow.count_roots", None, absorbed),
            (lambertw, "oracle_roots", "lambertw.oracle_roots", None, None),
            (lambertw, "lambert_w", "lambertw.lambert_w", None, None),
            (tracking, "track_bundle", "tracking.track_bundle", steps, None),
            (tracking, "step_control", "tracking.step_control", None, None),
            (paths, "keyhole_loop", "paths.build", None, None),
            (paths, "composite_loop", "paths.build", None, None),
            (paths, "concat", "paths.build", None, None),
            (permutation, "extract_permutation", "permutation.extract", None, None),
            (permutation, "group_order", "permutation.group_order", explored, None),
        ]
        for module, attr, name, on_return, on_raise in functions:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            self._rebind(fn, self._span(name, fn, on_return, on_raise))
        methods = [
            ("winding_number", "paths.winding_number"),
            ("reverse", "paths.build"),
        ]
        for attr, name in methods:
            if attr not in paths.ParamPath.__dict__:
                missing.append(f"mono.paths.ParamPath.{attr}")
                continue
            self._patch(paths.ParamPath, attr, self._span(name, paths.ParamPath.__dict__[attr]))
        family = equation.FAMILY
        for attr in ("eval", "deriv"):
            self._undo.append((family, attr, None))
            setattr(family, attr, self._counter(f"equation.{attr}.calls", getattr(family, attr)))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        for tally in self._tallies.values():
            tally.take()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since reset."""
        total_ms: Counter = Counter()  # outermost span of each name only
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        child_ms: Counter = Counter()
        for sid, parent, name, t0, t1 in self.spans:
            if parent is not None:
                child_ms[parent] += t1 - t0
        names = [rec[2] for rec in self.spans]
        for sid, parent, name, t0, t1 in self.spans:
            dur = 1e3 * (t1 - t0)
            calls[name] += 1
            self_ms[name] += dur - 1e3 * child_ms[sid]
            ancestor = parent
            while ancestor is not None and names[ancestor] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                total_ms[name] += dur

        c = self.counts + Counter({name: t.take() for name, t in self._tallies.items()})
        accepted, rejected = c["tracking.steps_accepted"], c["tracking.steps_rejected"]
        roots_calls = calls["rootwindow.count_roots"]
        return {
            "tracking.track_bundle.calls": calls["tracking.track_bundle"],
            "tracking.track_bundle.ms": total_ms["tracking.track_bundle"],
            "tracking.steps_accepted": accepted,
            "tracking.steps_rejected": rejected,
            "tracking.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
            "tracking.us_per_step": 1e3 * total_ms["tracking.track_bundle"] / accepted if accepted else 0.0,
            "tracking.step_control.calls": calls["tracking.step_control"],
            "equation.eval.calls": c["equation.eval.calls"],
            "equation.deriv.calls": c["equation.deriv.calls"],
            "rootwindow.find_roots.calls": calls["rootwindow.find_roots"],
            "rootwindow.find_roots.ms": total_ms["rootwindow.find_roots"],
            "rootwindow.find_roots.self_ms": self_ms["rootwindow.find_roots"],
            "rootwindow.count_roots.calls": roots_calls,
            "rootwindow.count_roots.ms": total_ms["rootwindow.count_roots"],
            "rootwindow.count_roots.failed": c["rootwindow.count_roots.failed"],
            "rootwindow.count_roots.ok_ratio": (
                (roots_calls - c["rootwindow.count_roots.failed"]) / roots_calls if roots_calls else 0.0
            ),
            "lambertw.oracle_roots.calls": calls["lambertw.oracle_roots"],
            "lambertw.oracle_roots.ms": total_ms["lambertw.oracle_roots"],
            "lambertw.lambert_w.calls": calls["lambertw.lambert_w"],
            "lambertw.lambert_w.ms": total_ms["lambertw.lambert_w"],
            "paths.winding_number.calls": calls["paths.winding_number"],
            "paths.winding_number.ms": total_ms["paths.winding_number"],
            "paths.build.ms": total_ms["paths.build"],
            "permutation.extract.calls": calls["permutation.extract"],
            "permutation.extract.ms": total_ms["permutation.extract"],
            "permutation.group_order.ms": total_ms["permutation.group_order"],
            "permutation.group_order.explored": c["permutation.group_order.explored"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.ms": total_ms["cli.main"],
            "cli.self_ms": self_ms["cli.main"],
        }
