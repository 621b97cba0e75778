"""Parameter-plane paths: segments, loops, and the named constructions.

Paths live in the a-plane of z + e^z = a.  A segment is a line, a
circular arc, or an ImageSegment: f(z) = z + e^z applied to a z-plane
line, the parameter values along which one root moves exactly along
that line.  Every segment bounds how far a strays within a piece of it
(reach), and nothing else here judges that: reach sizes a certified
tracking step, spaces the points of sample, and certifies each piece
whose change of argument winding_number sums.  composite_loop joins
two image segments.  The first is the image of the upward line from the real root x to x + i y_n, y_n = (2n+1) pi,
which starts at a = 0 and ends at 2x + i y_n, since e^x = -x and
e^{i y_n} = -1.  The second is the image of the height-y_n line going
left, a(s) = s - e^s + i y_n, up to the radius-rho circle around the
critical value a_n.  The loop circles a_n once and retraces both images.
For n < 0 the same construction runs at y_n < 0, so the first line runs
downward and the loop mirrors composite_loop(-n - 1) through the real
axis, with its circle still run counterclockwise.
keyhole_loop reaches the same circle along a rectangular corridor whose
vertical leg runs at re(a) = -2 by default: left of the line re(a) = -1
carrying the critical values, like the composite loop, so the two loops
are homotopic in the punctured plane and induce the same permutation.
A corridor right of the line (for instance at re(a) = 0) is NOT
homotopic to it for n >= 1 and conjugates the resulting transposition;
keyhole_loop accepts corridor_re to let callers study that effect.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import attrgetter

from .equation import (
    critical_height,
    critical_value,
    real_root,
    require_finite,
    solve_increasing,
)
from .errors import PathContinuityError, PreconditionError

CONTINUITY_TOL = 1e-12
MIN_LOOP_RADIUS = 0.1
MAX_LOOP_RADIUS = math.pi
DEFAULT_RHO = 0.5
KEYHOLE_CORRIDOR_RE = -2.0
BASEPOINT = 0j
# a piece shorter than this that still cannot clear a point puts it on the path
_ON_PATH_TOL = 1e-9
# sets a field of a segment, whose own __setattr__ refuses
_set = object.__setattr__


class _Segment:
    """An immutable record whose _fields are its kind's __slots__, read as
    fast as plain attributes by the tracker's per-step point and reach.
    It equals, and hashes as, the tuple of its fields, but only within its
    kind: tracking._blocks keys a dict by segment, and a line and an image
    segment can share their end points."""

    __slots__ = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self._fields, self._values(self))
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    def to_json(self) -> dict:
        return {"kind": self.kind, **dict(zip(self._fields, self._values(self)))}


class LineSegment(_Segment):
    __slots__ = _fields = ("z0", "z1")
    _values = attrgetter(*_fields)
    kind = "line"

    def __init__(self, z0: complex, z1: complex):
        _set(self, "z0", z0)
        _set(self, "z1", z1)

    def point(self, t: float) -> complex:
        return self.z0 + t * (self.z1 - self.z0)

    def reach(self, t0: float, t1: float) -> float:
        """sup |a(t) - a(u)| over t, u in [t0, t1]: the chord, on a line."""
        return abs(t1 - t0) * abs(self.z1 - self.z0)

    @property
    def start(self) -> complex:
        return self.z0

    @property
    def end(self) -> complex:
        return self.z1

    def reversed(self) -> "LineSegment":
        return type(self)(self.z1, self.z0)


class ArcSegment(_Segment):
    """Circular arc center + r e^{i theta}, theta from theta0 to theta1."""

    __slots__ = _fields = ("center", "radius", "theta0", "theta1")
    _values = attrgetter(*_fields)
    kind = "arc"

    def __init__(self, center: complex, radius: float, theta0: float, theta1: float):
        if not 0.0 < radius < math.inf:
            raise PreconditionError(f"arc radius must be finite and positive, got {radius}")
        _set(self, "center", center)
        _set(self, "radius", radius)
        _set(self, "theta0", theta0)
        _set(self, "theta1", theta1)

    def point(self, t: float) -> complex:
        th = self.theta0 + t * (self.theta1 - self.theta0)
        return self.center + self.radius * cmath.exp(1j * th)

    def reach(self, t0: float, t1: float) -> float:
        """sup |a(t) - a(u)| over t, u in [t0, t1].

        Two points of the arc an angle phi <= pi apart are 2 r sin(phi/2)
        apart, which grows with phi: up to a half turn the chord is the
        sup.  A longer piece holds antipodal points, so the sup is 2 r.
        """
        phi = min(math.pi, abs(t1 - t0) * abs(self.theta1 - self.theta0))
        return 2.0 * self.radius * math.sin(0.5 * phi)

    def reversed(self) -> "ArcSegment":
        return ArcSegment(self.center, self.radius, self.theta1, self.theta0)


class ImageSegment(LineSegment):
    """f(z) = z + e^z applied to the z-plane line from z0 to z1: a line's
    fields, but its own kind, and its ends are images like any point."""

    __slots__ = ()
    kind = "image"
    start, end = _Segment.start, _Segment.end

    def point(self, t: float) -> complex:
        z = self.z0 + t * (self.z1 - self.z0)
        return z + cmath.exp(z)

    def reach(self, t0: float, t1: float) -> float:
        """Bound on sup |a(t) - a(u)| over t, u in [t0, t1].

        a(t) - a(u) is the integral of f'(z) dz along the z-line piece
        from w0 = z(t0) to w1 = z(t1), so it is at most |w1 - w0| times
        the max of |f'(z)| = |1 + e^z| there.  Two bounds on that max
        hold, and the smaller is taken: 1 + e^{max re z}, where re z,
        linear along the line, peaks at an end; and
        |1 + e^{w0}| + |e^{w0}| (e^{|w1 - w0|} - 1), since
        |e^z - e^{w0}| = |e^{w0}| |e^{z - w0} - 1| <= |e^{w0}| (e^{|z - w0|} - 1).
        The second is close to the arc length on short pieces.  The chord
        alone is no bound: the image of a vertical line winds around a
        circle, and a piece can stray far from its chord.
        """
        w0 = self.z0 + t0 * (self.z1 - self.z0)
        w1 = self.z0 + t1 * (self.z1 - self.z0)
        dz = abs(w1 - w0)
        coarse = 1.0 + math.exp(max(w0.real, w1.real))
        if dz >= 1.0:  # the second bound only helps, and stays finite, on short pieces
            return dz * coarse
        e0 = cmath.exp(w0)
        return dz * min(coarse, abs(1.0 + e0) + abs(e0) * math.expm1(dz))



def _bisect(fits):
    """Halve [0, 1] until fits(t0, t1) holds; the pieces in order."""
    stack = [(0.0, 1.0)]
    while stack:
        t0, t1 = stack.pop()
        if fits(t0, t1):
            yield t0, t1
        else:
            tm = 0.5 * (t0 + t1)
            stack += [(tm, t1), (t0, tm)]


class ParamPath(namedtuple("ParamPath", "segments encircles", defaults=(None,))):
    """Piecewise path in the parameter plane.

    Consecutive segments must join within CONTINUITY_TOL, and the path
    is closed when its end returns to its start to the same tolerance.
    encircles, when set, records (n, rho): the path is a declared loop
    around the single critical value a_n at radius rho >= 0.1.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.segments:
            raise PreconditionError("path needs at least one segment")
        for s0, s1 in zip(self.segments, self.segments[1:]):
            gap = abs(s1.start - s0.end)
            if not gap <= CONTINUITY_TOL:  # a NaN gap fails too
                raise PathContinuityError(
                    f"segments join with gap {gap:.3g} > {CONTINUITY_TOL:g}"
                )
        return self

    @property
    def start(self) -> complex:
        return self.segments[0].start

    @property
    def end(self) -> complex:
        return self.segments[-1].end

    @property
    def closed(self) -> bool:
        return abs(self.end - self.start) <= CONTINUITY_TOL

    def sample(self, max_step: float) -> list[complex]:
        """Polyline along the path with consecutive spacing <= max_step.

        Each segment is bisected until every piece's reach is at most
        max_step; a reach bounds the chord, so the spacing follows.  For
        a closed path the first and last points coincide.
        """
        if max_step <= 0:
            raise PreconditionError(f"max_step must be positive, got {max_step}")
        pts: list[complex] = [self.start]
        for seg in self.segments:
            pieces = _bisect(lambda t0, t1: seg.reach(t0, t1) <= max_step)
            pts += [seg.point(t1) for _, t1 in pieces]
        return pts

    def reverse(self) -> "ParamPath":
        segs = tuple(s.reversed() for s in reversed(self.segments))
        return ParamPath(segs, encircles=self.encircles)

    def winding_number(self, point: complex) -> int:
        """Winding of the closed path around point, from certified pieces.

        Each segment is bisected until a piece's reach is below the
        distance from its start to point.  Such a piece stays inside a
        disc that excludes point, so the principal phase of
        (a(t1) - point) / (a(t0) - point) is exactly its change of
        argument.  A piece that cannot be certified with reach below
        _ON_PATH_TOL means point lies on the path.
        """
        if not self.closed:
            raise PreconditionError("winding number needs a closed path")
        point = require_finite(point, "point")
        total = 0.0
        for seg in self.segments:

            def fits(t0, t1):
                reach = seg.reach(t0, t1)
                if reach < abs(seg.point(t0) - point):
                    return True
                if reach < _ON_PATH_TOL:
                    raise PreconditionError("point lies on the path")
                return False

            for t0, t1 in _bisect(fits):
                total += cmath.phase((seg.point(t1) - point) / (seg.point(t0) - point))
        return round(total / (2.0 * math.pi))

    def to_json(self) -> dict:
        d = {
            "segments": [s.to_json() for s in self.segments],
            "closed": self.closed,
        }
        if self.encircles is not None:
            d["encircles"] = {"n": self.encircles[0], "radius": self.encircles[1]}
        return d


def _validate_rho(rho: float) -> float:
    rho = float(rho)
    if not (MIN_LOOP_RADIUS <= rho < MAX_LOOP_RADIUS):
        raise PreconditionError(
            f"loop radius must lie in [{MIN_LOOP_RADIUS}, pi), got {rho}"
        )
    return rho


def horizontal_stop(rho: float) -> float:
    """The s < 0 with s - e^s = -(1 + rho): where the image of a
    height-y_n line meets the circle of radius rho around a_n, approaching
    from the left."""
    rho = _validate_rho(rho)
    target = -(1.0 + rho)
    return solve_increasing(
        lambda s: s - math.exp(s) - target, lambda s: 1.0 - math.exp(s), -(2.0 + rho), 0.0
    )


def _closed_arc(center: complex, rho: float, turns: int) -> ArcSegment:
    """turns full circles from angle pi, refused when they cannot close.

    The end angle pi + 2 pi turns carries a rounding error that grows
    with turns, and the end point's with the radius too (at radius 0.5,
    10,000 turns close and 20,000 miss by 3.5e-12; at radius 5000 one
    turn misses by 1.2e-12).  A circle that misses its start by more
    than CONTINUITY_TOL is refused here, naming both.
    """
    if not isinstance(turns, int):
        raise PreconditionError("turns must be an int")
    arc = ArcSegment(center, rho, math.pi, math.pi + 2.0 * math.pi * turns)
    gap = abs(arc.end - arc.start)
    if not gap <= CONTINUITY_TOL:
        raise PreconditionError(
            f"radius {rho:g} with turns = {turns} cannot close: the circle "
            f"misses its start by {gap:.3g} in floating point, more than "
            f"{CONTINUITY_TOL:g}; use a smaller radius or fewer turns"
        )
    return arc


def circle_path(center: complex, rho: float, turns: int = 1) -> ParamPath:
    """turns full circles of radius rho around center, starting at angle pi.

    Positive turns run counterclockwise.  Not flagged as encircling a
    critical value; use loop_around for that.
    """
    center = require_finite(center, "center")
    return ParamPath((_closed_arc(center, float(rho), turns),))


def loop_around(n: int, rho: float, turns: int = 1) -> ParamPath:
    """Closed circle(s) of radius rho around the critical value a_n.

    Starts at a_n - rho (angle pi, reached from the left) and runs
    counterclockwise for positive turns, clockwise for negative.
    """
    a_n = critical_value(n)  # refuses a bad index first
    rho = _validate_rho(rho)
    return ParamPath((_closed_arc(a_n, rho, turns),), encircles=(n, rho) if turns != 0 else None)


def composite_loop(n: int, rho: float = DEFAULT_RHO) -> ParamPath:
    """Image of the upward line, image of the height-y_n line, circle, retrace.

    Closed loop based at 0 that encircles exactly a_n once,
    counterclockwise.  For n < 0 the legs descend to y_n < 0 and the
    loop is the mirror image of the one for -n - 1 through the real axis,
    traversed so the winding stays +1: its circle starts at angle -3 pi,
    the mirror of the other circle's end angle 3 pi.
    """
    a_n = critical_value(n)  # refuses a bad index first
    rho = _validate_rho(rho)
    x = real_root()
    y = critical_height(n)
    s_rho = horizontal_stop(rho)
    v = ImageSegment(complex(x, 0.0), complex(x, y))
    h = ImageSegment(complex(x, y), complex(s_rho, y))
    theta0 = math.pi if n >= 0 else -3.0 * math.pi
    circle = ArcSegment(a_n, rho, theta0, theta0 + 2.0 * math.pi)
    return ParamPath((v, h, circle, h.reversed(), v.reversed()), encircles=(n, rho))


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
    a_n = critical_value(n)  # refuses a bad index first
    rho = _validate_rho(rho)
    corridor_re = require_finite(corridor_re, "corridor_re").real
    if abs(corridor_re + 1.0) < rho + 0.05:
        raise PreconditionError(
            f"corridor at re = {corridor_re} would cut the radius-{rho} circle "
            f"around the critical line re = -1"
        )
    y = critical_height(n)
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
    return ParamPath(tuple(out) + (circle,) + tuple(home), encircles=(n, rho))


def concat(*parts: ParamPath) -> ParamPath:
    """Join paths end to start."""
    return ParamPath(tuple(s for p in parts for s in p.segments))

