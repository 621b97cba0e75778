"""Contour-based root counting and location in rectangular windows.

count_roots integrates f'/(f - a) around the window boundary to get the
number of roots inside.  The boundary is one ring of samples, all four
edges in one array evaluated by one exp; the composite trapezoid rule is
a dot product with per-sample weights.  A phase-increment guard refuses
to trust an undersampled ring, and each refinement doubles the ring in
place, evaluating only the new midpoints.  A contour that fails its
first pass because a simple root sits on an edge, closer than any
refinement could resolve, is refused at once instead of refined to
exhaustion: discs that an exclusion test proves root-free cover the
edges, and only where they fail does Newton look for that root.
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
# tighter internal agreement target between quadrature and phase count
_AGREE_TOL = 0.05
_PHASE_INC_MAX = 0.5 * math.pi
_NEWTON_MAX_ITER = 60
# boundary samples per edge before doubling, and how often to double
_EDGE_SAMPLES = 64
_MAX_DOUBLINGS = 12
# first-pass sample fractions along each edge
_FIRST_U = np.arange(_EDGE_SAMPLES) / _EDGE_SAMPLES
_MAX_DEPTH = 48
# |a - a_n| up to which a multi-root cell at z_n that no cut splits is a cluster
_CLUSTER_DIST = 1e-6
# a cell this many times longer than wide is halved across its long side
_ASPECT_SPLIT = 2.0
_SPLIT_OFFSETS = (0.0, 0.033, -0.033, 0.071, -0.071, 0.137, -0.137)
_JITTER_STEP = 1e-3
_JITTER_TRIES = 10

# a simple root within one finest sample spacing of an edge is refused at
# the first pass: doubling resolves a root one spacing off an edge, not a
# quarter of one.  Only simple roots (|f'| above the floor) are refused, so
# a pair near a critical point still reaches the cluster fallback
_REFUSE_DERIV_MIN = 1e-3
# an edge cover cuts each failing piece into _COVER_SPLIT (three halvings
# per numpy pass) and keeps at most _COVER_MAX failing pieces per cut,
# shortest Newton step first: four first-pass rings.  W19's covers keep at
# most 22, -5,5,-2000,2000's 644; -5,5,-1e6,1e6's would keep 522,732
_COVER_SPLIT = 8
_SPLIT_AT = np.arange(_COVER_SPLIT)
_COVER_MAX = 16 * _EDGE_SAMPLES


def _ring_samples(z: np.ndarray, a: complex):
    """f - a and e^z at the boundary points z, from one exp of the array."""
    e = np.exp(z)
    return z + e - a, e


def _edge_points(corners: np.ndarray, edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Points at fractions u along each edge, in ring order (edge by edge)."""
    return (corners[:, None] + u * edges[:, None]).ravel()


def _interleave(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """old[0], new[0], old[1], new[1], ...: midpoints into their ring slots."""
    out = np.empty(old.size + new.size, dtype=old.dtype)
    out[0::2] = old
    out[1::2] = new
    return out


def _check_clearance(z: np.ndarray, fz: np.ndarray) -> float:
    """Smallest |f - a| among the samples; raises if a root is on them."""
    mod = np.abs(fz)
    k = int(mod.argmin())
    if mod[k] <= BOUNDARY_CLEARANCE:
        raise BoundaryTooCloseError(
            f"|f - a| = {mod[k]:.3g} on window boundary",
            clearance=float(mod[k]),
            location=complex(z[k]),
        )
    return float(mod[k])


def _excluded(z, fz, e, a: complex, r: float):
    """True where the closed disc |w - z| <= r provably holds no root.

    The soft exclusion test T0 (Yap, Sagraloff & Sharma, CiE 2013; Becker,
    Sagraloff, Sharma & Yap, J. Symb. Comput. 86, 2018) with the exact
    Taylor tail of f = z + e^z, whose derivatives past the first are all
    e^z: on the disc |f(w) - a| >= |f(z) - a| - |f'(z)| r - exp_tail,
    and the computed |f(z) - a| is within rounding_floor of the true one.
    fz is f(z) - a and e is e^z; works elementwise on arrays for a scalar r.
    """
    if r > EXP_RE_MAX:  # e^r overflows: a disc this wide is never cleared
        return np.zeros(np.shape(fz), dtype=bool)
    ee, fa = abs(e), abs(1.0 + e)
    return abs(fz) - rounding_floor(abs(z), ee, abs(a), fa) > fa * r + exp_tail(ee, r)


def _cell_excluded(win: Window, a: complex) -> bool:
    """_excluded on the disc around the cell's centre through its corners."""
    m = win.center
    e = cmath.exp(m)
    return _excluded(m, m + e - a, e, a, 0.5 * math.hypot(win.width, win.height))


def _refuse_edge_root(z, fz, e, a: complex, corners: list, edges: list) -> None:
    """Raise BoundaryTooCloseError for a simple root too close to an edge.

    A root with |f'| above the floor within one finest spacing (edge
    length / 2^18) of an edge is closer than any doubling resolves: the
    guards would fail through every pass, or pass by aliasing.  Exclusion
    discs, widened by the longest edge's finest spacing (the reach),
    cover the edges.  A first-pass interval is cleared by the discs of
    half the longest spacing around both its end samples; a piece that
    fails is cut into _COVER_SPLIT parts, each tested in the disc around
    its midpoint that reaches one reach past its ends, so that the discs
    of the pieces next to a corner also cover the quadrant outside it.
    Cutting stops at pieces no longer than the reach, and Newton runs
    from each that still fails and whose Newton step |f|/|f'| is at most
    twice the reach.  A cut keeps at most _COVER_MAX failing pieces, those with the
    shortest steps, so an edge far longer than e^z's scale of variation,
    where the discs fail along its whole length, costs about as much as
    a short one.
    """
    m = _EDGE_SAMPLES
    longest = max(abs(d) for d in edges)
    reach = longest / (m << _MAX_DOUBLINGS)
    half = 0.5 * longest / m  # half of the longest piece
    # past Re z = 703 the rounding floor overflows to inf: such discs fail
    with np.errstate(over="ignore"):
        bad = ~_excluded(z, fz, e, a, math.hypot(half, reach))
        k = np.flatnonzero(bad | np.concatenate((bad[1:], bad[:1])))
        start, piece = z[k], (np.array(edges) / m)[k // m]
        while start.size and 2.0 * half > reach:
            half /= _COVER_SPLIT
            piece = np.repeat(piece / _COVER_SPLIT, _COVER_SPLIT)
            start = (start[:, None] + _SPLIT_AT * piece[::_COVER_SPLIT, None]).ravel()
            c = start + 0.5 * piece
            ec = np.exp(c)
            fc = c + ec - a
            keep = ~_excluded(c, fc, ec, a, math.hypot(half + reach, reach))
            if 2.0 * half <= reach:
                keep &= np.abs(fc) <= 2.0 * reach * np.abs(1.0 + ec)
            start, piece, fc, ec = start[keep], piece[keep], fc[keep], ec[keep]
            if start.size > _COVER_MAX:
                k = np.argsort(np.abs(fc) / np.abs(1.0 + ec), kind="stable")
                start, piece = start[k[:_COVER_MAX]], piece[k[:_COVER_MAX]]
    for z0 in (start + 0.5 * piece).tolist():
        _refuse_root_at(z0, a, corners, edges)


def _refuse_root_at(z0: complex, a: complex, corners: list, edges: list) -> None:
    """Newton from z0; raise if it settles on a simple root within an
    edge's finest sample spacing."""
    hit = newton(z0, a, _NEWTON_MAX_ITER)
    if hit is None or abs(hit[2]) < _REFUSE_DERIV_MIN:
        return
    root = hit[0]
    finest = _EDGE_SAMPLES << _MAX_DOUBLINGS
    for c, d in zip(corners, edges):
        t = min(max(((root - c) * d.conjugate()).real / abs(d) ** 2, 0.0), 1.0)
        dist = abs(root - (c + t * d))
        if dist < abs(d) / finest:
            raise BoundaryTooCloseError(
                f"root at {root:.6g} lies {dist:.3g} from the window edge, "
                f"under its finest sample spacing {abs(d) / finest:.3g}",
                clearance=dist,
                location=root,
            )


def count_roots(a: complex, window: Window) -> int:
    """Number of roots of z + e^z = a inside the window, by winding number.

    One ring of m samples per edge covers the whole boundary, sampled by
    one exp.  The boundary integral (1/2 pi i) of f'/(f - a) is the
    trapezoid rule written as one dot product of per-sample weights with
    the integrand: each sample weighs dz/2 from each neighbouring
    interval.  A pass is accepted when every
    discrete phase increment of f - a along the ring stays below pi/2
    and the quadrature agrees with the integer phase winding.  Otherwise
    m doubles in place: only the new midpoints are evaluated, and every
    earlier sample is kept.

    Unless the first pass is accepted with every sample's Newton step
    |f|/|f'| longer than its interval, the contour is checked once for a
    simple root within one finest sample spacing of an edge: exclusion
    discs around the first-pass samples, cut smaller only where they
    fail, cover every edge, and Newton runs only from a piece that still
    fails at that distance (see _refuse_edge_root).  Such a contour is refused
    at once with BoundaryTooCloseError, as is one where |f - a| dips
    below the clearance floor at a sample; the caller should move it.
    Raises ResidualTooLargeError if refinement is exhausted, and
    EvalRangeError for a window reaching past EXP_RE_MAX, where e^z
    overflows.
    """
    if window.re_max > EXP_RE_MAX:
        raise EvalRangeError(
            f"exp would overflow: window re_max = {window.re_max:.6g} "
            f"exceeds {EXP_RE_MAX:.6g}"
        )
    corners = np.array(window.corners())
    edges = corners[[1, 2, 3, 0]] - corners
    # a corner sample weighs half of each of the two edges' intervals
    corner_weights = 0.5 * (edges[[3, 0, 1, 2]] + edges)
    m = _EDGE_SAMPLES
    z = _edge_points(corners, edges, _FIRST_U)
    fz, e = _ring_samples(z, a)
    min_abs = _check_clearance(z, fz)
    dlog = (1.0 + e) / fz
    ring = np.empty(fz.size + 1, dtype=fz.dtype)  # f - a around the closed ring
    ring[:-1] = fz
    ring[-1] = fz[0]
    for doubling in range(_MAX_DOUBLINGS + 1):
        # weighted integrand: its sum is the trapezoid rule, and each term
        # is the predicted change of log(f - a) over the sample's interval;
        # a sample weighs its edge's interval, a corner its corner weight
        terms = dlog.reshape(4, m) * (edges / m)[:, None]
        terms[:, 0] = dlog[::m] * (corner_weights / m)
        terms = terms.ravel()
        winding = complex(terms.sum()) / (2j * math.pi)
        ratio = ring[1:] / ring[:-1]
        increments = np.arctan2(ratio.imag, ratio.real)
        phase_total = float(increments.sum()) / (2.0 * math.pi)
        n_phase = round(phase_total)
        misfit = abs(winding.real - n_phase) + abs(winding.imag)
        accepted = (
            float(np.abs(increments).max()) < _PHASE_INC_MAX
            and abs(phase_total - n_phase) < 1e-6
            and misfit < _AGREE_TOL
        )
        # a first pass is trusted without the edge-root check only if no
        # sample's Newton step |f|/|f'| is shorter than its interval
        if doubling == 0 and not (accepted and float(np.abs(terms).max()) < 1.0):
            _refuse_edge_root(z, fz, e, a, corners.tolist(), edges.tolist())
        if accepted:
            if n_phase < 0:
                raise NumericalError(f"negative winding {n_phase}; f is entire")
            return int(n_phase)
        if doubling == _MAX_DOUBLINGS:
            break
        zm = _edge_points(corners, edges, (2 * np.arange(m) + 1) / (2 * m))
        fm, em = _ring_samples(zm, a)
        min_abs = min(min_abs, _check_clearance(zm, fm))
        ring = _interleave(ring, fm)
        dlog = _interleave(dlog, (1.0 + em) / fm)
        m *= 2
    raise ResidualTooLargeError(
        f"boundary quadrature did not settle after {_MAX_DOUBLINGS} doublings "
        f"(misfit {misfit:.3g}, min boundary |f - a| = {min_abs:.3g})"
    )


def _count_with_jitter(a: complex, window: Window) -> tuple[int, Window]:
    """count_roots, expanding the window slightly when a root sits on or
    impractically close to the edge (quadrature exhaustion counts too)."""
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
