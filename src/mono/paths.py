"""Parameter-plane paths: segments, loops, and the named constructions.

Paths live in the a-plane of z + e^z = a.  Segments are lines, circular
arcs, or the two analytic traces swept by distinguished root motions:

  vertical_image(n):   a(t) = x(1 - cos t) + i (t - x sin t), t in [0, y_n],
                       the parameter values hit when the root starting at
                       the real root x climbs vertically to x + i t;
  horizontal_image(n): a(s) = s - e^s + i y_n, the values hit when a root
                       at height y_n = (2n+1) pi slides horizontally.

The two traces meet exactly: at s = x the horizontal value is
x - e^x + i y_n = 2x + i y_n (because e^x = -x), which is the endpoint of
the vertical trace.  composite_loop chains vertical out, horizontal out,
a full circle around the critical value a_n, then retraces home.
keyhole_loop reaches the same circle along a rectangular corridor whose
vertical leg runs at re(a) = -2 by default: left of the line re(a) = -1
carrying the critical values, like the composite trace it replaces, so
the two loops are homotopic in the punctured plane and induce the same
permutation.  A corridor right of the line (for instance at re(a) = 0)
is NOT homotopic to it for n >= 1 and conjugates the resulting
transposition; keyhole_loop accepts corridor_re to let callers study
exactly that effect.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .equation import (
    MAX_CRITICAL_INDEX,
    critical_height,
    critical_value,
    nearest_critical,
    real_root,
    require_finite,
)
from .errors import NumericalError, PathContinuityError, PreconditionError

CONTINUITY_TOL = 1e-12
MIN_LOOP_RADIUS = 0.1
MAX_LOOP_RADIUS = math.pi
DEFAULT_RHO = 0.5
KEYHOLE_CORRIDOR_RE = -2.0
BASEPOINT = 0j
_MAX_REFINE_DEPTH = 42
# sampling step winding_number starts from; it halves until increments settle
_WINDING_STEP = 0.05
_GOLDEN = 2.0 - (1.0 + math.sqrt(5.0)) / 2.0  # 1 - 1/phi = 0.381966...


@dataclass(frozen=True)
class LineSegment:
    z0: complex
    z1: complex
    kind = "line"

    def point(self, t: float) -> complex:
        return self.z0 + t * (self.z1 - self.z0)

    @property
    def start(self) -> complex:
        return self.z0

    @property
    def end(self) -> complex:
        return self.z1

    def reversed(self) -> "LineSegment":
        return LineSegment(self.z1, self.z0)

    def conjugated(self) -> "LineSegment":
        return LineSegment(self.z0.conjugate(), self.z1.conjugate())

    def to_json(self) -> dict:
        return {"kind": "line", "z0": _cj(self.z0), "z1": _cj(self.z1)}


@dataclass(frozen=True)
class ArcSegment:
    """Circular arc center + r e^{i theta}, theta from theta0 to theta1."""

    center: complex
    radius: float
    theta0: float
    theta1: float
    kind = "arc"

    def __post_init__(self):
        if self.radius <= 0:
            raise PreconditionError(f"arc radius must be positive, got {self.radius}")

    def point(self, t: float) -> complex:
        th = self.theta0 + t * (self.theta1 - self.theta0)
        return self.center + self.radius * cmath.exp(1j * th)

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    def reversed(self) -> "ArcSegment":
        return ArcSegment(self.center, self.radius, self.theta1, self.theta0)

    def conjugated(self) -> "ArcSegment":
        return ArcSegment(self.center.conjugate(), self.radius, -self.theta0, -self.theta1)

    def to_json(self) -> dict:
        return {
            "kind": "arc",
            "center": _cj(self.center),
            "radius": self.radius,
            "theta0": self.theta0,
            "theta1": self.theta1,
        }


@dataclass(frozen=True)
class VerticalImageTrace:
    """a(t) = x (1 - cos t) + i (t - x sin t) for t from t0 to t1."""

    x: float
    t0: float
    t1: float
    kind = "vertical-image"

    def point(self, t: float) -> complex:
        tau = self.t0 + t * (self.t1 - self.t0)
        return complex(self.x * (1.0 - math.cos(tau)), tau - self.x * math.sin(tau))

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    def reversed(self) -> "VerticalImageTrace":
        return VerticalImageTrace(self.x, self.t1, self.t0)

    def conjugated(self) -> "VerticalImageTrace":
        # conj(a(tau)) = a(-tau) for this trace
        return VerticalImageTrace(self.x, -self.t0, -self.t1)

    def to_json(self) -> dict:
        return {"kind": "vertical-image", "x": self.x, "t0": self.t0, "t1": self.t1}


@dataclass(frozen=True)
class HorizontalImageTrace:
    """a(s) = s - e^s + i y for s from s0 to s1."""

    y: float
    s0: float
    s1: float
    kind = "horizontal-image"

    def point(self, t: float) -> complex:
        s = self.s0 + t * (self.s1 - self.s0)
        return complex(s - math.exp(s), self.y)

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    def reversed(self) -> "HorizontalImageTrace":
        return HorizontalImageTrace(self.y, self.s1, self.s0)

    def conjugated(self) -> "HorizontalImageTrace":
        return HorizontalImageTrace(-self.y, self.s0, self.s1)

    def to_json(self) -> dict:
        return {"kind": "horizontal-image", "y": self.y, "s0": self.s0, "s1": self.s1}


_SEGMENT_KINDS = {
    "line": LineSegment,
    "arc": ArcSegment,
    "vertical-image": VerticalImageTrace,
    "horizontal-image": HorizontalImageTrace,
}


def _cj(z: complex) -> list[float]:
    return [z.real, z.imag]


def segment_from_json(d: dict):
    kind = d.get("kind")
    if kind == "line":
        return LineSegment(complex(*d["z0"]), complex(*d["z1"]))
    if kind == "arc":
        return ArcSegment(complex(*d["center"]), d["radius"], d["theta0"], d["theta1"])
    if kind == "vertical-image":
        return VerticalImageTrace(d["x"], d["t0"], d["t1"])
    if kind == "horizontal-image":
        return HorizontalImageTrace(d["y"], d["s0"], d["s1"])
    raise PreconditionError(f"unknown segment kind {kind!r}")


@dataclass(frozen=True)
class ParamPath:
    """Piecewise path in the parameter plane.

    Consecutive segments must join within CONTINUITY_TOL; a closed path
    must return to its start to the same tolerance.  encircles, when
    set, records (n, rho): the path is a declared loop around the single
    critical value a_n at radius rho >= 0.1, which exempts that one
    critical value from clearance checks.
    """

    segments: tuple
    closed: bool = False
    encircles: tuple[int, float] | None = None

    def __post_init__(self):
        if not self.segments:
            raise PreconditionError("path needs at least one segment")
        for s0, s1 in zip(self.segments, self.segments[1:]):
            gap = abs(s1.start - s0.end)
            if gap > CONTINUITY_TOL:
                raise PathContinuityError(
                    f"segments join with gap {gap:.3g} > {CONTINUITY_TOL:g}"
                )
        if self.closed:
            gap = abs(self.end - self.start)
            if gap > CONTINUITY_TOL:
                raise PathContinuityError(
                    f"closed path fails to close: gap {gap:.3g}"
                )

    @property
    def start(self) -> complex:
        return self.segments[0].start

    @property
    def end(self) -> complex:
        return self.segments[-1].end

    def sample(self, max_step: float) -> list[complex]:
        """Polyline along the path with consecutive spacing <= max_step.

        Adaptive chord bisection per segment; for a closed path the
        first and last points coincide.
        """
        if max_step <= 0:
            raise PreconditionError(f"max_step must be positive, got {max_step}")
        pts: list[complex] = [self.start]

        def refine(seg, t0, t1, p0, p1, depth):
            # Endpoint chord alone cannot be trusted: a full-turn arc has
            # coincident endpoints.  Neither can the midpoint: a two-turn
            # arc revisits its start there.  Probe at an irrational
            # fraction of the span, which no whole number of turns maps
            # back onto an endpoint.
            tg = t0 + _GOLDEN * (t1 - t0)
            pg = seg.point(tg)
            flat = (
                abs(p1 - p0) <= max_step
                and abs(pg - p0) <= max_step
                and abs(p1 - pg) <= max_step
                and abs(pg - (p0 + _GOLDEN * (p1 - p0))) <= 0.25 * max_step
            )
            if flat or depth >= _MAX_REFINE_DEPTH:
                pts.append(p1)
                return
            tm = 0.5 * (t0 + t1)
            pm = seg.point(tm)
            refine(seg, t0, tm, p0, pm, depth + 1)
            refine(seg, tm, t1, pm, p1, depth + 1)

        for seg in self.segments:
            refine(seg, 0.0, 1.0, seg.point(0.0), seg.point(1.0), 0)
        return pts

    def reverse(self) -> "ParamPath":
        return ParamPath(
            tuple(s.reversed() for s in reversed(self.segments)),
            closed=self.closed,
            encircles=self.encircles,
        )

    def conjugate(self) -> "ParamPath":
        enc = self.encircles
        if enc is not None:
            # conj(a_n) = a_m with m = -n - 1
            enc = (-enc[0] - 1, enc[1])
        return ParamPath(
            tuple(s.conjugated() for s in self.segments),
            closed=self.closed,
            encircles=enc,
        )

    def concat(self, other: "ParamPath") -> "ParamPath":
        gap = abs(other.start - self.end)
        if gap > CONTINUITY_TOL:
            raise PathContinuityError(
                f"concat endpoints disagree by {gap:.3g} > {CONTINUITY_TOL:g}"
            )
        segs = self.segments + other.segments
        closed = abs(other.end - self.start) <= CONTINUITY_TOL
        return ParamPath(segs, closed=closed, encircles=None)

    def winding_number(self, point: complex) -> int:
        """Winding of the closed path around point, by summed phase increments."""
        if not self.closed:
            raise PreconditionError("winding number needs a closed path")
        point = require_finite(point, "point")
        step = _WINDING_STEP
        for _ in range(14):
            pts = self.sample(step)
            rel = [p - point for p in pts]
            if min(abs(r) for r in rel) < 1e-9:
                raise PreconditionError("point lies on the path")
            incs = [cmath.phase(rel[j + 1] / rel[j]) for j in range(len(rel) - 1)]
            if max(abs(i) for i in incs) < 0.5 * math.pi:
                total = sum(incs) / (2.0 * math.pi)
                w = round(total)
                if abs(total - w) > 1e-6:
                    raise NumericalError(f"non-integer winding {total!r}")
                return int(w)
            step *= 0.5
        raise NumericalError("winding number did not resolve under refinement")

    def min_distance_to(self, point: complex, *, max_step: float = 0.01) -> float:
        return min(abs(p - point) for p in self.sample(max_step))

    def critical_clearance(self) -> tuple[float, int]:
        """Distance from the sampled path to the nearest critical value.

        The declared encircled critical value, if any, is skipped.
        Returns (distance, index of the nearest non-exempt critical value).
        """
        skip = self.encircles[0] if self.encircles is not None else None
        best_d, best_n = math.inf, 0
        for p in self.sample(0.02):
            n, d = nearest_critical(p)
            if n == skip:
                for m in (n - 1, n + 1):
                    dm = abs(p - critical_value(m))
                    if dm < best_d:
                        best_d, best_n = dm, m
                continue
            if d < best_d:
                best_d, best_n = d, n
        return best_d, best_n

    def to_json(self) -> dict:
        d = {
            "segments": [s.to_json() for s in self.segments],
            "closed": self.closed,
        }
        if self.encircles is not None:
            d["encircles"] = {"n": self.encircles[0], "radius": self.encircles[1]}
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ParamPath":
        enc = d.get("encircles")
        return cls(
            tuple(segment_from_json(s) for s in d["segments"]),
            closed=d.get("closed", False),
            encircles=(enc["n"], enc["radius"]) if enc else None,
        )


def _validate_rho(rho: float) -> float:
    rho = float(rho)
    if not (MIN_LOOP_RADIUS <= rho < MAX_LOOP_RADIUS):
        raise PreconditionError(
            f"loop radius must lie in [{MIN_LOOP_RADIUS}, pi), got {rho}"
        )
    return rho


def _validate_index(n: int) -> int:
    if not isinstance(n, int):
        raise PreconditionError(f"critical index must be an int, got {type(n).__name__}")
    if abs(n) > MAX_CRITICAL_INDEX:
        raise PreconditionError(f"critical index |n| = {abs(n)} out of range")
    return n


def vertical_image(n: int) -> ParamPath:
    """Trace of a(t) as the root x + i t climbs from the real root to z_n.

    Defined for n >= 0 (the climb moves upward); mirror with
    ParamPath.conjugate for negative n.  Starts at 0, ends at
    2x + i y_n, which lies left of the critical line re(a) = -1 since
    x < -1/2.
    """
    n = _validate_index(n)
    if n < 0:
        raise PreconditionError("vertical_image needs n >= 0; conjugate for n < 0")
    x = real_root()
    return ParamPath((VerticalImageTrace(x, 0.0, critical_height(n)),))


def horizontal_stop(rho: float) -> float:
    """The s < 0 with s - e^s = -(1 + rho): where the horizontal trace
    meets the circle of radius rho around a critical value, approaching
    from the left."""
    rho = _validate_rho(rho)
    target = -(1.0 + rho)
    lo, hi = -(2.0 + rho), 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid - math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    for _ in range(4):
        s -= (s - math.exp(s) - target) / (1.0 - math.exp(s))
    return s


def horizontal_image(
    n: int,
    s_start: float | None = None,
    s_end: float | None = None,
    *,
    rho: float = DEFAULT_RHO,
) -> ParamPath:
    """Trace of a(s) = s - e^s + i y_n as a root slides at height y_n.

    Defaults run from s = x (the endpoint of the vertical trace, an
    exact join since x - e^x = 2x) to the s where the trace meets the
    radius-rho circle around a_n.
    """
    n = _validate_index(n)
    if s_start is None:
        s_start = real_root()
    if s_end is None:
        s_end = horizontal_stop(rho)
    if not (s_start < 0.0 and s_end < 0.0):
        raise PreconditionError("horizontal trace needs s < 0 throughout")
    return ParamPath((HorizontalImageTrace(critical_height(n), s_start, s_end),))


def circle_path(center: complex, rho: float, turns: int = 1, *, theta0: float = math.pi) -> ParamPath:
    """turns full circles of radius rho around center, starting at angle theta0.

    Positive turns run counterclockwise.  Not flagged as encircling a
    critical value; use loop_around for that.
    """
    center = require_finite(center, "center")
    if not isinstance(turns, int):
        raise PreconditionError("turns must be an int")
    arc = ArcSegment(center, float(rho), theta0, theta0 + 2.0 * math.pi * turns)
    return ParamPath((arc,), closed=True)


def loop_around(n: int, rho: float, turns: int = 1) -> ParamPath:
    """Closed circle(s) of radius rho around the critical value a_n.

    Starts at a_n - rho (angle pi, reached from the left) and runs
    counterclockwise for positive turns, clockwise for negative.
    """
    n = _validate_index(n)
    rho = _validate_rho(rho)
    if not isinstance(turns, int):
        raise PreconditionError("turns must be an int")
    a_n = critical_value(n)
    arc = ArcSegment(a_n, rho, math.pi, math.pi + 2.0 * math.pi * turns)
    return ParamPath(
        (arc,),
        closed=True,
        encircles=(n, rho) if turns != 0 else None,
    )


def composite_loop(n: int, rho: float = DEFAULT_RHO) -> ParamPath:
    """Vertical trace out, horizontal trace out, circle around a_n, retrace home.

    Closed loop based at 0 that encircles exactly a_n once,
    counterclockwise.  For n < 0 the loop reflects the one for -n - 1
    through the real axis; reflection reverses orientation, so the
    traversal order is flipped back to keep the winding at +1.
    """
    n = _validate_index(n)
    rho = _validate_rho(rho)
    if n < 0:
        return composite_loop(-n - 1, rho).conjugate().reverse()
    x = real_root()
    y = critical_height(n)
    s_rho = horizontal_stop(rho)
    v = VerticalImageTrace(x, 0.0, y)
    h = HorizontalImageTrace(y, x, s_rho)
    circle = ArcSegment(critical_value(n), rho, math.pi, 3.0 * math.pi)
    return ParamPath(
        (v, h, circle, h.reversed(), v.reversed()),
        closed=True,
        encircles=(n, rho),
    )


def keyhole_loop(
    n: int,
    rho: float = DEFAULT_RHO,
    *,
    corridor_re: float = KEYHOLE_CORRIDOR_RE,
) -> ParamPath:
    """Rectangular corridor from 0 to height y_n, circle around a_n, return.

    The corridor runs along re(a) = corridor_re; the default -2 keeps
    clearance exactly 1 from the critical line re(a) = -1 and stays on
    its left, making the loop homotopic to composite_loop(n, rho) in the
    plane punctured at the critical values.  corridor_re = 0 gives the
    right-side variant, which for n >= 1 induces a conjugated
    permutation instead.  Works for negative n directly (the corridor
    descends).
    """
    n = _validate_index(n)
    rho = _validate_rho(rho)
    corridor_re = float(corridor_re)
    if abs(corridor_re + 1.0) < rho + 0.05:
        raise PreconditionError(
            f"corridor at re = {corridor_re} would cut the radius-{rho} circle "
            f"around the critical line re = -1"
        )
    y = critical_height(n)
    a_n = critical_value(n)
    side = -1.0 if corridor_re < -1.0 else 1.0
    landing = a_n + side * rho
    theta0 = math.pi if side < 0 else 0.0
    out: list = []
    if corridor_re != 0.0:
        out.append(LineSegment(BASEPOINT, complex(corridor_re, 0.0)))
    out.append(LineSegment(complex(corridor_re, 0.0), complex(corridor_re, y)))
    out.append(LineSegment(complex(corridor_re, y), landing))
    circle = ArcSegment(a_n, rho, theta0, theta0 + 2.0 * math.pi)
    home = [seg.reversed() for seg in reversed(out)]
    return ParamPath(
        tuple(out) + (circle,) + tuple(home),
        closed=True,
        encircles=(n, rho),
    )


def concat(first: ParamPath, *rest: ParamPath) -> ParamPath:
    out = first
    for p in rest:
        out = out.concat(p)
    return out

