"""Contour-based root counting and location in rectangular windows.

count_roots gets the number of roots inside the window as the winding
number of f - a around its boundary, certified piece by piece: discs
that an exclusion test proves root-free cover the boundary, and across
each piece so covered arg(f - a) changes by the principal arg of the
ratio of its end values.  All four edges are sampled in one array by
one exp, and only the pieces whose discs fail are cut and sampled
again.  A piece that still fails at the finest spacing marks a root on
or next to an edge: Newton names it, and the contour is refused.
find_roots recurses down to isolated roots: a cell at least twice as
long as it is wide is halved across its long side, any other cell is
quartered, and the cut lines move off roots along a ladder of offsets
until the children's counts add up.  A child whose circumscribed disc
passes the exclusion test counts 0 without a contour.  Isolated roots
get a Newton polish to equation's residual rule, at any height; roots
merging at a critical point, which no cut clears or which a cut
isolates within rounding of it, become one cluster entry there.
This route never consults the closed-form oracle; the two are compared
only in tests and in the CLI cross-check commands.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .equation import (
    EXP_RE_MAX,
    critical_point,
    nearest_critical,
    newton,
    require_finite,
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
_MAX_DEPTH = 48
# |a - a_n| up to which a multi-root cell at z_n that no cut splits is a cluster
_CLUSTER_DIST = 1e-6
# a cell this many times longer than wide is halved across its long side
_ASPECT_SPLIT = 2.0
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


def _solve_isolated(win: Window, a: complex) -> complex | None:
    """Newton from the center (then quarter points); None if nothing sticks."""
    seeds = [win.center]
    qw, qh = 0.25 * win.width, 0.25 * win.height
    c = win.center
    seeds += [c + complex(sx * qw, sy * qh) for sx in (-1, 1) for sy in (-1, 1)]
    for z0 in seeds:
        polished = newton(z0, a, _NEWTON_MAX_ITER)
        # strict containment: a neighbor cell's root must not be claimed
        if polished is not None and win.contains(polished[0], margin=1e-9):
            return polished[0]
    return None


def _split_candidates(win: Window):
    """The ways to split a cell, in the order they are tried.

    A cell whose long side is at least _ASPECT_SPLIT times its short side
    is halved across the long side; any other is quartered.  The split
    lines walk the offset ladder (fractions of the side) away from the
    centre: along the long side for halves, over both sides for quarters.
    """
    c = win.center
    long_side, short_side = max(win.width, win.height), min(win.width, win.height)
    if long_side >= _ASPECT_SPLIT * short_side:
        mid = c.real if win.width >= win.height else c.imag
        for o in _SPLIT_OFFSETS:
            yield win.split2(mid + o * long_side)
        return
    for ox in _SPLIT_OFFSETS:
        for oy in _SPLIT_OFFSETS:
            yield win.split4(c.real + ox * win.width, c.imag + oy * win.height)


def _split_counted(win: Window, a: complex, expected: int):
    """Split into children whose counts add up to the parent count.

    The split lines are jittered away from roots: the candidates of
    _split_candidates are tried until each child contour has clearance
    and the counts are additive.  A child cleared by _cell_excluded
    counts 0 without a contour.
    """
    for children in _split_candidates(win):
        try:
            counted = [
                (ch, 0 if _cell_excluded(ch, a) else count_roots(a, ch)) for ch in children
            ]
        except (BoundaryTooCloseError, ResidualTooLargeError):
            continue
        if sum(n for _, n in counted) == expected:
            return counted
    raise SubdivisionError(
        f"could not split window around {win.center!r} with additive counts"
    )


def find_roots(a: complex, window: Window) -> LabeledRootSet:
    """All roots of z + e^z = a in the window, canonically labeled.

    Subdivision isolates roots counted by count_roots: elongated cells
    are halved across their long side and near-square ones quartered
    (see _split_candidates).  A child cell whose circumscribed disc the
    exclusion test clears holds no root, on its edges either, and counts
    0 without a contour; the children's counts must still add up.
    Isolated roots are polished by Newton to residual
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
    positions: list[complex] = []
    multiplicities: list[int] = []
    stack: list[tuple[Window, int, int]] = [(w_eff, total, 0)]
    while stack:
        win, cnt, depth = stack.pop()
        if cnt == 0:
            continue
        if depth > _MAX_DEPTH:
            raise SubdivisionError(
                f"subdivision depth {depth} exceeded near {win.center!r}"
            )
        if cnt == 1:
            z = _solve_isolated(win, a)
            if z is not None:
                positions.append(z)
                multiplicities.append(1)
                continue
        try:
            stack.extend((ch, n, depth + 1) for ch, n in _split_counted(win, a, cnt))
        except SubdivisionError:
            if cnt < 2:
                raise
            # every cut passes too close to roots merging at z_k: one entry there
            k, dist = nearest_critical(a)
            z = critical_point(k).z
            if dist > _CLUSTER_DIST or not win.contains(z):
                raise
            positions.append(z)
            multiplicities.append(cnt)

    result = canonical_root_set(a, positions, multiplicities=multiplicities, window=w_eff)
    if result.near_merge_pairs:
        # a cut through the pair merging at z_k can isolate it as two
        # "simple" roots within rounding of z_k: they are its cluster too
        k, dist = nearest_critical(a)
        z = critical_point(k).z
        near = [e for e in result.entries if abs(e.z - z) < 0.5 * NEAR_MERGE_RADIUS]
        if dist <= _CLUSTER_DIST and len(near) > 1:
            rest = [e for e in result.entries if e not in near]
            result = canonical_root_set(
                a,
                [e.z for e in rest] + [z],
                multiplicities=[e.multiplicity for e in rest] + [sum(e.multiplicity for e in near)],
                window=w_eff,
            )
    if result.total_multiplicity() != total:
        raise NumericalError(
            f"located multiplicity {result.total_multiplicity()} != contour count {total}"
        )
    result.validate_residuals()
    return result
