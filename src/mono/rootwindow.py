"""Contour-based root counting and location in rectangular windows.

count_roots gets the number of roots inside the window as the winding
number of f - a around its boundary, certified piece by piece: discs
that an exclusion test proves root-free cover the boundary, and across
each piece so covered arg(f - a) changes by the principal arg of the
ratio of its end values.  All four edges are sampled in one array by
one exp, and only the pieces whose discs fail are cut and sampled
again.  A piece that still fails at the finest spacing marks a root on
or next to an edge: Newton names it, and the contour is refused.
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
import sys
from operator import itemgetter

import numpy as np

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
_EPS = sys.float_info.epsilon
_NEWTON_MAX_ITER = 60
_LOCATE_MAX_ITER = 12  # per seed of a grid that locates n >= 2 roots at once
# first-pass pieces per edge; a piece that fails is cut into _COVER_SPLIT,
# at most _CUTS times, down to the finest spacing edge / _FINEST = edge / 2^18
_EDGE_SAMPLES = 64
_COVER_SPLIT = 8
_CUTS = 4
_FINEST = _EDGE_SAMPLES * _COVER_SPLIT**_CUTS
# sample fractions along an edge, both corners included, and inside a piece
_FIRST_U = np.arange(_EDGE_SAMPLES + 1) / _EDGE_SAMPLES
_CUT_U = np.arange(1, _COVER_SPLIT) / _COVER_SPLIT
# a cut with more failed pieces than this is not refined but refused:
# -5,5,-1e6,1e6 fails 8,192 at its third cut, the benchmark's contours
# at most 64 at any cut
_COVER_MAX = 16 * _EDGE_SAMPLES
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


def _ring_samples(z: np.ndarray, a: complex):
    """f - a and e^z at the boundary points z, from one exp of the array."""
    e = np.exp(z)
    return z + e - a, e


def _check_clearance(z: np.ndarray, fz: np.ndarray) -> None:
    """Raise if |f - a| is under the clearance floor at a sample."""
    mod = np.abs(fz)
    k = mod.argmin()
    if mod.flat[k] <= BOUNDARY_CLEARANCE:
        raise BoundaryTooCloseError(
            f"|f - a| = {mod.flat[k]:.3g} on window boundary",
            clearance=float(mod.flat[k]),
            location=complex(z.flat[k]),
        )


def _excluded(z, fz, e, a: complex, r):
    """True where the closed disc |w - z| <= r provably holds no root.

    The soft exclusion test T0 (Yap, Sagraloff & Sharma, CiE 2013; Becker,
    Sagraloff, Sharma & Yap, J. Symb. Comput. 86, 2018) with the exact
    Taylor tail of f = z + e^z, whose derivatives past the first are all
    e^z: on the disc |f(w) - f(z)| <= |f'(z)| r + exp_tail(|e^z|, r), and
    the computed f(z) - a is within rounding_floor of the true one.  So
    where |f(z) - a| exceeds their sum, f - a maps the disc into a disc
    around the computed f(z) - a that excludes 0.  fz is f(z) - a and e
    is e^z, elementwise on arrays, r too; z enters only through |z|, so a
    bound on |z| serves for a whole array.  Past r = EXP_RE_MAX, e^r
    overflows to inf and the disc fails (under np.errstate for arrays).
    """
    ee, fa = abs(e), abs(1.0 + e)
    zm = abs(z)
    # rounding_floor(zm, ee, |a|, fa) + fa r + exp_tail(ee, r), gathered by
    # modulus so that an array takes few passes
    return abs(fz) > fa * (r + _EPS * zm) + ee * (np.expm1(r) - r + _EPS) + _EPS * (zm + abs(a))


def _cell_excluded(win: Window, a: complex) -> bool:
    """_excluded on the disc around the cell's centre through its corners."""
    m = win.center
    r = 0.5 * math.hypot(win.width, win.height)
    e = cmath.exp(m)
    return r <= EXP_RE_MAX and bool(_excluded(m, m + e - a, e, a, r))


def _refuse_root_at(z0: complex, a: complex, corners: list, edges: list) -> None:
    """Newton from z0; raise if it settles on a simple root within an
    edge's finest sample spacing."""
    hit = newton(z0, a, _NEWTON_MAX_ITER)
    if hit is None or abs(hit[2]) < _REFUSE_DERIV_MIN:
        return
    root = hit[0]
    for c, d in zip(corners, edges):
        t = min(max(((root - c) * d.conjugate()).real / abs(d) ** 2, 0.0), 1.0)
        dist = abs(root - (c + t * d))
        if dist < abs(d) / _FINEST:
            raise BoundaryTooCloseError(
                f"root at {root:.6g} lies {dist:.3g} from the window edge, "
                f"under its finest sample spacing {abs(d) / _FINEST:.3g}",
                clearance=dist,
                location=root,
            )


def count_roots(a: complex, window: Window) -> int:
    """Number of roots of z + e^z = a inside the window, by winding number.

    The boundary is cut into pieces, 64 per edge at first, with both
    corners sampled on each edge.  A piece of length h is certified when
    _excluded clears the discs of radius h/2 around both its end samples:
    f - a maps each half of the piece into a disc around its end value
    that excludes 0, and the two discs overlap, so arg(f - a) changes
    along the piece by the principal arg of f(z1) - a over f(z0) - a.
    The winding number is the rounded sum of those changes over the
    certified pieces.  A piece that fails is cut into _COVER_SPLIT and
    only the new points are evaluated, down to the finest spacing edge
    length / 2^18.

    Pieces that still fail there, or a cut with more than _COVER_MAX
    failed pieces, end the count: Newton runs from their start samples,
    shortest Newton step |f|/|f'| first, and a simple root it finds
    within one finest spacing of an edge is refused with
    BoundaryTooCloseError, as is a sample where |f - a| dips below the
    clearance floor; the caller should move the contour.  Otherwise
    ResidualTooLargeError.  EvalRangeError for a window reaching past
    EXP_RE_MAX, where e^z overflows.
    """
    if window.re_max > EXP_RE_MAX:
        raise EvalRangeError(
            f"exp would overflow: window re_max = {window.re_max:.6g} "
            f"exceeds {EXP_RE_MAX:.6g}"
        )
    corners = window.corners()
    ends = corners[1:] + corners[:1]
    edges = [q - p for p, q in zip(corners, ends)]
    # one row per edge, both of its corners sampled: points z, f - a,
    # e^z, and r, half the row's piece length
    step = np.array(edges)[:, None]
    z = np.array(corners)[:, None] + _FIRST_U * step
    z[:, -1] = ends
    r = abs(step) / (2 * _EDGE_SAMPLES)
    zm = max(map(abs, corners))  # |z| is largest at a corner
    fz, e = _ring_samples(z, a)
    _check_clearance(z, fz)
    winding = 0.0
    # a bound that overflows, as e^r does past r = EXP_RE_MAX, fails its disc
    with np.errstate(over="ignore", invalid="ignore"):
        for cut in range(_CUTS + 1):
            ok = _excluded(zm, fz, e, a, r)
            ratio = fz[:, 1:] / fz[:, :-1]
            turn = np.arctan2(ratio.imag, ratio.real)
            if ok.all():
                winding += float(turn.sum())
                break
            certified = ok[:, :-1] & ok[:, 1:]
            winding += float(turn[certified].sum())
            failed = ~certified
            z0, z1 = z[:, :-1][failed], z[:, 1:][failed]
            f0, f1 = fz[:, :-1][failed], fz[:, 1:][failed]
            e0, e1 = e[:, :-1][failed], e[:, 1:][failed]
            if cut == _CUTS or z0.size > _COVER_MAX:
                order = np.argsort(np.abs(f0) / np.abs(1.0 + e0), kind="stable")
                for z_start in z0[order[:_COVER_MAX]].tolist():
                    _refuse_root_at(z_start, a, corners, edges)
                raise ResidualTooLargeError(
                    f"winding number not certified: {z0.size} boundary pieces "
                    f"fail the exclusion test at spacing {2.0 * float(r.min()):.3g} "
                    f"(min |f - a| = {float(np.abs(f0).min()):.3g})"
                )
            # cut each failed piece; only the new points are evaluated
            zn = z0[:, None] + _CUT_U * (z1 - z0)[:, None]
            fn, en = _ring_samples(zn, a)
            _check_clearance(zn, fn)
            z = np.hstack((z0[:, None], zn, z1[:, None]))
            fz = np.hstack((f0[:, None], fn, f1[:, None]))
            e = np.hstack((e0[:, None], en, e1[:, None]))
            r = np.broadcast_to(r, failed.shape)[failed][:, None] / _COVER_SPLIT
    if not math.isfinite(winding):  # f - a near 1e308 overflows the turn
        raise EvalRangeError(f"f - a overflows on the boundary of {window!r}")
    n = round(winding / (2.0 * math.pi))
    if n < 0:
        raise NumericalError(f"negative winding {n}; f is entire")
    return n


def _count_with_jitter(a: complex, window: Window) -> tuple[int, Window]:
    """count_roots, expanding the window slightly when a root sits on or
    too close to the edge for the disc cover to certify the count."""
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
