"""Contour-based root counting and location in rectangular windows.

count_roots gets the number of roots inside the window as the winding
number of f - a around its boundary, certified piece by piece: along a
piece where e^z or z - a is at least twice the other, f - a turns as
that term does; elsewhere discs that an exclusion test proves root-free
cover the piece.  Each edge starts as one piece between two corners,
and only the pieces that fail are halved.  A piece that still fails at
the finest spacing marks a root on or next to an edge: Newton names it,
and the contour is refused.
find_roots counts, then locates, and cuts only where locating fails: a
cell of n roots runs Newton from a (2n+1) x 3 grid, and n disjoint
certified discs strictly inside it hold all n.  Otherwise it is halved
across its long side, the cut moving off roots along a ladder of
offsets until the first half is counted (0 without a contour if the
exclusion test clears it); the second half counts what the first
leaves, and each keeps the discs inside it.  Roots are polished to
equation's residual rule; roots merging at a critical point, which no
cut clears or which a cut isolates within rounding of it, become one
cluster entry there.
This route never consults the closed-form oracle; the two are compared
only in tests and in the CLI cross-check commands.
"""

from __future__ import annotations

import cmath
import math
from operator import itemgetter

from .equation import (
    EXP_RE_MAX,
    critical_point,
    exp_tail,
    nearest_critical,
    newton,
    require_finite,
    rounding_floor,
)
from .errors import (
    BoundaryTooCloseError,
    EvalRangeError,
    NumericalError,
    ResidualTooLargeError,
    SubdivisionError,
)
from .rootsets import NEAR_MERGE_RADIUS, LabeledRootSet, Window, canonical_root_set

BOUNDARY_CLEARANCE = 1e-9
_NEWTON_MAX_ITER = 60
_LOCATE_MAX_ITER = 12  # per seed of a grid that locates n >= 2 roots at once
# a piece no test certifies is halved, at most _HALVINGS times
_HALVINGS = 18
_FINEST = 2**_HALVINGS
# a level with more failed pieces than this is not refined but refused;
# the benchmark's contours fail at most 2 pieces at any level
_COVER_MAX = 1024
# a term that is this many times the other on a whole piece dominates it
_DOMINANCE = 2.0
# in halvings: the a_1 cluster on -1,2,-190,210 is reached at depth 37
_MAX_DEPTH = 64
# |a - a_n| up to which a multi-root cell at z_n that no cut splits is a cluster
_CLUSTER_DIST = 1e-6
_SPLIT_OFFSETS = (0.0, 0.033, -0.033, 0.071, -0.071, 0.137, -0.137)
_JITTER_STEP = 1e-3
_JITTER_TRIES = 10

# a simple root within one finest spacing of an edge is refused by name.
# Only simple roots (|f'| above the floor) are refused, so a pair near a
# critical point still reaches the cluster fallback
_REFUSE_DERIV_MIN = 1e-3


def _ring_samples(zs: list, a: complex) -> list:
    """(z, f - a, e^z) at the boundary points zs; raises if |f - a| is
    under the clearance floor at one."""
    samples = [(z, z + e - a, e) for z, e in zip(zs, map(cmath.exp, zs))]
    z, fz, _ = min(samples, key=lambda s: abs(s[1]))
    if abs(fz) <= BOUNDARY_CLEARANCE:
        raise BoundaryTooCloseError(
            f"|f - a| = {abs(fz):.3g} on window boundary", clearance=abs(fz), location=z
        )
    return samples


def _excluded(z: complex, fz: complex, e: complex, a: complex, r: float) -> bool:
    """True when the closed disc |w - z| <= r provably holds no root.

    The soft exclusion test T0 (Yap, Sagraloff & Sharma, CiE 2013; Becker,
    Sagraloff, Sharma & Yap, J. Symb. Comput. 86, 2018) with the exact
    Taylor tail of f = z + e^z, whose derivatives past the first are all
    e^z: on the disc |f(w) - f(z)| <= |f'(z)| r + exp_tail(|e^z|, r), and
    the computed f(z) - a is within rounding_floor of the true one.  So
    where |f(z) - a| exceeds their sum, f - a maps the disc into a disc
    around the computed f(z) - a that excludes 0.  fz is f(z) - a and e
    is e^z; the caller keeps r <= EXP_RE_MAX, past which e^r overflows.
    """
    ee, fa = abs(e), abs(1.0 + e)
    return abs(fz) > rounding_floor(abs(z), ee, abs(a), fa) + fa * r + exp_tail(ee, r)


def _cell_excluded(win: Window, a: complex) -> bool:
    """_excluded on the disc around the cell's centre through its corners."""
    m = win.center
    r = 0.5 * math.hypot(win.width, win.height)
    e = cmath.exp(m)
    return r <= EXP_RE_MAX and _excluded(m, m + e - a, e, a, r)


def _distance(z: complex, p: complex, q: complex) -> float:
    """Distance from z to the axis-parallel segment pq, by clamping z onto it."""
    return abs(z - complex(min(max(z.real, min(p.real, q.real)), max(p.real, q.real)),
                           min(max(z.imag, min(p.imag, q.imag)), max(p.imag, q.imag))))


def _turn(s0: tuple, s1: tuple, a: complex) -> float | None:
    """The change of arg(f - a) along the piece between the samples s0 and
    s1, each (z, f - a, e^z); None if no test certifies it.

    (R) e^z dominates: exp(min Re) >= 2 max |z - a| (|z - a| is convex, so
    largest at an end).  (L) z - a dominates: dist(a, piece) >= 2 exp(max
    Re), and a is off the piece by the clearance floor even if e^z is 0.
    Then f - a = t g along the piece, t the dominant term, |g - 1| <= 1/2:
    even after rounding g stays in the disc |g - 1| < 1, where |arg g| <
    pi/6, so g turns by the difference of its end args.  arg e^z is Im z
    exactly, and arg(z - a) turns by less than pi along a segment that
    misses a, so by the principal arg of (z1 - a) / (z0 - a).  Otherwise
    _excluded must clear the discs of radius half the piece around both
    ends (one wider than EXP_RE_MAX fails): f - a maps each half of the
    piece into a disc around its end value that excludes 0, and the two
    overlap, so the turn is the principal arg of (f(z1) - a) / (f(z0) - a).
    """
    (z0, f0, e0), (z1, f1, e1) = s0, s1
    if math.exp(min(z0.real, z1.real)) >= _DOMINANCE * max(abs(z0 - a), abs(z1 - a)):
        return z1.imag - z0.imag + cmath.phase(f1 / e1) - cmath.phase(f0 / e0)
    floor = max(_DOMINANCE * math.exp(max(z0.real, z1.real)), BOUNDARY_CLEARANCE)
    if _distance(a, z0, z1) >= floor:
        d0, d1 = z0 - a, z1 - a
        return cmath.phase(d1 / d0) + cmath.phase(f1 / d1) - cmath.phase(f0 / d0)
    r = 0.5 * abs(z1 - z0)
    if r <= EXP_RE_MAX and _excluded(z0, f0, e0, a, r) and _excluded(z1, f1, e1, a, r):
        return cmath.phase(f1 / f0)
    return None


def _refuse_root_at(z0: complex, a: complex, corners: list, ends: list) -> None:
    """Newton from z0; raise if it settles on a simple root within an
    edge's finest sample spacing."""
    hit = newton(z0, a, _NEWTON_MAX_ITER)
    if hit is None or abs(hit[2]) < _REFUSE_DERIV_MIN:
        return
    root = hit[0]
    for p, q in zip(corners, ends):
        dist, finest = _distance(root, p, q), abs(q - p) / _FINEST
        if dist < finest:
            raise BoundaryTooCloseError(
                f"root at {root:.6g} lies {dist:.3g} from the window edge, "
                f"under its finest sample spacing {finest:.3g}",
                clearance=dist,
                location=root,
            )


def count_roots(a: complex, window: Window) -> int:
    """Number of roots of z + e^z = a inside the window, by winding number.

    Each edge starts as one piece, sampled only at the window's corners.
    The winding number is the rounded sum of the turns of arg(f - a) along
    the pieces that _turn certifies: where e^z or z - a is at least twice
    the other (Rouche's theorem piece by piece, as Johnson & Tucker, J.
    Comput. Appl. Math. 228, 2009, certify whole contours), or where the
    exclusion test clears discs around both ends.  A piece that fails is
    halved and only its midpoint evaluated, down to the finest spacing
    edge length / 2^18.  Pieces that still fail there, or a level with
    more than _COVER_MAX failed pieces, end the count: Newton runs from
    their start samples, shortest Newton step |f|/|f'| first, and a
    simple root it finds within one finest spacing of an edge is refused
    with BoundaryTooCloseError, as is a sample where |f - a| dips below
    the clearance floor; the caller should move the contour.  Otherwise
    ResidualTooLargeError.  EvalRangeError for a window reaching past
    EXP_RE_MAX, where e^z overflows, or where |f - a| does on the edge.
    """
    if window.re_max > EXP_RE_MAX:
        raise EvalRangeError(
            f"exp would overflow: window re_max = {window.re_max:.6g} "
            f"exceeds {EXP_RE_MAX:.6g}"
        )
    corners = window.corners()
    ends = corners[1:] + corners[:1]
    try:
        samples = _ring_samples(corners, a)
        pieces = list(zip(samples, samples[1:] + samples[:1]))
        winding = 0.0
        for level in range(_HALVINGS + 1):
            turns = [_turn(s0, s1, a) for s0, s1 in pieces]
            winding += sum(t for t in turns if t is not None)
            failed = [p for p, t in zip(pieces, turns) if t is None]
            if not failed:
                break
            if level == _HALVINGS or len(failed) > _COVER_MAX:
                # shortest Newton step first; 1 + e^z is never 0 in binary64
                starts = [s0 for s0, _ in failed]
                starts.sort(key=lambda s: abs(s[1]) / abs(1.0 + s[2]))
                for z0, _, _ in starts[:_COVER_MAX]:
                    _refuse_root_at(z0, a, corners, ends)
                raise ResidualTooLargeError(
                    f"winding number not certified: {len(failed)} boundary pieces fail "
                    f"at spacing {min(abs(s1[0] - s0[0]) for s0, s1 in failed):.3g} "
                    f"(min |f - a| = {min(abs(s[1]) for s in starts):.3g})"
                )
            mids = _ring_samples([0.5 * (s0[0] + s1[0]) for s0, s1 in failed], a)
            pieces = [p for (s0, s1), m in zip(failed, mids) for p in ((s0, m), (m, s1))]
    except OverflowError:  # |f - a| past 1e308
        winding = math.nan
    if not math.isfinite(winding):  # or f - a near 1e308 overflows a turn
        raise EvalRangeError(f"f - a overflows on the boundary of {window!r}")
    n = round(winding / (2.0 * math.pi))
    if n < 0:
        raise NumericalError(f"negative winding {n}; f is entire")
    return n


def _count_with_jitter(a: complex, window: Window) -> tuple[int, Window]:
    """count_roots, expanding the window slightly when a root sits on or
    too close to the edge for the contour's pieces to certify the count."""
    w = window
    for _ in range(_JITTER_TRIES):
        try:
            return count_roots(a, w), w
        except (BoundaryTooCloseError, ResidualTooLargeError) as exc:
            last = exc
            w = w.expand(_JITTER_STEP)
    raise BoundaryTooCloseError(
        f"could not count roots after {_JITTER_TRIES} expansions of the window "
        f"by {_JITTER_STEP:g}; last cause: {last}",
        clearance=getattr(last, "clearance", None),
        location=getattr(last, "location", None),
    )


def _grid(win: Window, a: complex, n: int) -> tuple[list, float]:
    """Seeds (step, z) at the cell fractions (i + 1/2)/m, 2n+1 along the long side
    and 3 across, shortest Newton step |f - a| / |f'| first; and the shorter spacing."""
    c, long = win.center, sorted(range(-n, n + 1), key=abs)  # 0, -1, 1, -2, 2, ...
    ks, js = (long, (0, -1, 1)) if win.width >= win.height else ((0, -1, 1), long)
    dx, dy = win.width / len(ks), win.height / len(js)
    xs = [c.real + i * dx for i in ks]
    # e^z = e^x (cos y + i sin y): one exp per column, one cos and sin per row
    rows = [(y, math.cos(y), math.sin(y)) for y in (c.imag + j * dy for j in js)]
    seeds = []
    for x, ex in zip(xs, map(math.exp, xs)):
        for y, cy, sy in rows:
            er, ei = ex * cy, ex * sy
            d, f = math.hypot(1.0 + er, ei), math.hypot(x + er - a.real, y + ei - a.imag)
            seeds.append((f / d if d else math.inf, complex(x, y)))
    seeds.sort(key=itemgetter(0))
    return seeds, min(dx, dy)


def _solve_isolated(win: Window, a: complex) -> complex | None:
    """Newton from the 3 x 3 grid at 1/6, 1/2 and 5/6 of each side, shortest
    Newton step first; None if no run ends inside the cell."""
    # basins are strips: a long cell's centre is often in a neighbour's
    for _, z0 in _grid(win, a, 1)[0]:
        polished = newton(z0, a, _NEWTON_MAX_ITER)
        # strict containment: a neighbor cell's root must not be claimed
        if polished is not None and win.contains(polished[0]):
            return polished[0]
    return None


def _holds(win: Window, z: complex, s: float) -> bool:
    """True when the disc |w - z| <= s lies strictly inside the cell."""
    return min(z.real - win.re_min, win.re_max - z.real,
               z.imag - win.im_min, win.im_max - z.imag) > s


def _locate(win: Window, a: complex, n: int, discs: list) -> list:
    """The discs (z, s) given, then those from the cell's grid, up to n.
    Newton from z0 ends at z, whose disc of radius s = 2 rho / |f'(z)|,
    rho = residual + rounding_floor, holds one zero when exp_tail(|e^z|, s) <
    rho (the tracker's step test); it is kept if strictly inside the cell
    and clear of those kept.  Seeds stop at a step past the grid spacing."""
    seeds, spacing = _grid(win, a, n)
    for step, z0 in seeds:
        if len(discs) == n or step > spacing:
            break
        if (hit := newton(z0, a, _LOCATE_MAX_ITER)) is not None:
            z, r, d = hit
            fa, ee = abs(d), math.exp(z.real)
            rho = r + rounding_floor(abs(z), ee, abs(a), fa)
            # no disc of radius 1 or more is kept: expm1 overflows past 709
            s = 2.0 * rho / fa if fa > 2.0 * rho else math.inf
            if (exp_tail(ee, s) < rho and _holds(win, z, s)
                    and all(abs(z - w) > s + t for w, t in discs)):
                discs = discs + [(z, s)]
    return discs


def _split_counted(win: Window, a: complex, expected: int):
    """Halve across the long side, each half with its root count.

    The cut walks the offset ladder (fractions of the long side) away
    from the centre until the first half is counted: 0 if _cell_excluded
    clears it, else by count_roots, which refuses a contour near a root.
    The second half's edges lie on root-free contours or cleared discs
    of the parent and the first half, so its count is exactly the rest;
    a negative rest is a broken certificate: NumericalError.
    """
    for offset in _SPLIT_OFFSETS:
        first, second = win.halves(offset)
        try:
            n = 0 if _cell_excluded(first, a) else count_roots(a, first)
        except (BoundaryTooCloseError, ResidualTooLargeError) as exc:
            last = exc
            continue
        if n > expected:
            raise NumericalError(
                f"the first half of {win!r} counts {n} roots, more than its {expected}"
            )
        return [(first, n), (second, expected - n)]
    raise SubdivisionError(
        f"could not split window around {win.center!r}: its first half refused every "
        f"cut; last cause: {last} (at {getattr(last, 'location', None)})"
    )


def find_roots(a: complex, window: Window) -> LabeledRootSet:
    """All roots of z + e^z = a in the window, canonically labeled.

    A counted cell is located from its seed grid (_locate; one root by
    _solve_isolated) and halved across its long side only if that fails
    (_split_counted), each half keeping the discs inside it.  The grid is
    skipped on a cell longer than 2 pi (n + 1), and on one holding z_n
    when a is near a_n.  Roots are polished by Newton to residual
    max(1e-12, rounding_floor) and checked on return.  A
    cell of multiple roots that no cut splits, around a critical point
    z_n with |a - a_n| <= 1e-6, is a merge cluster: one entry at z_n
    carries the cluster multiplicity and is flagged near-merge.  So is a
    pair that a cut did isolate within 5e-5 of z_n.  Other resolved roots
    closer than 1e-4 are flagged as a pair.

    If a root lands on the window edge the window is expanded in steps of
    1e-3 (up to ten times); the effective window is recorded on the result.
    """
    a = require_finite(a, "a")
    total, w_eff = _count_with_jitter(a, window)
    k, dist = nearest_critical(a)
    z_k = critical_point(k).z
    positions: list[complex] = []
    multiplicities: list[int] = []
    stack: list[tuple[Window, int, int, list]] = [(w_eff, total, 0, [])]
    while stack:
        win, cnt, depth, discs = stack.pop()
        if cnt == 0:
            continue
        if depth > _MAX_DEPTH:
            raise SubdivisionError(
                f"subdivision depth {depth} exceeded near {win.center!r}"
            )
        if cnt == 1 and not discs:
            discs = [(z, 0.0)] if (z := _solve_isolated(win, a)) is not None else []
        # roots lie about 2 pi apart in Im, so a longer cell is mostly empty;
        # roots merging at z_k are left to the cuts and the cluster fallback
        elif (len(discs) < cnt and max(win.width, win.height) <= 2.0 * math.pi * (cnt + 1)
                and not (dist <= _CLUSTER_DIST and win.contains(z_k))):
            discs = _locate(win, a, cnt, discs)
        if len(discs) == cnt:
            positions.extend(z for z, _ in discs)
            multiplicities.extend([1] * cnt)
            continue
        try:
            stack.extend((ch, n, depth + 1, [(z, s) for z, s in discs if _holds(ch, z, s)])
                         for ch, n in _split_counted(win, a, cnt))
        except SubdivisionError:
            # every cut passes too close to roots merging at z_k: one entry there
            if cnt < 2 or dist > _CLUSTER_DIST or not win.contains(z_k):
                raise
            positions.append(z_k)
            multiplicities.append(cnt)

    if dist <= _CLUSTER_DIST:
        # a cut through the pair merging at z_k can isolate it as two
        # "simple" roots within rounding of z_k: they are its cluster too
        near = [abs(z - z_k) < 0.5 * NEAR_MERGE_RADIUS for z in positions]
        if sum(near) > 1:
            cluster = sum(m for m, c in zip(multiplicities, near) if c)
            positions = [z for z, c in zip(positions, near) if not c] + [z_k]
            multiplicities = [m for m, c in zip(multiplicities, near) if not c] + [cluster]
    result = canonical_root_set(a, positions, multiplicities=multiplicities, window=w_eff)
    if result.total_multiplicity() != total:
        raise NumericalError(
            f"located multiplicity {result.total_multiplicity()} != contour count {total}"
        )
    result.validate_residuals()
    return result
