"""Contour-based root counting and location in rectangular windows.

count_roots integrates f'/(f - a) around the window boundary (composite
trapezoid, adaptively doubled) to get the number of roots inside, with a
phase-increment guard that refuses to trust undersampled boundaries.
find_roots recurses: quadtree subdivision down to isolated roots, Newton
polish, and a cluster fallback for root pairs too close to separate.
This route never consults the closed-form oracle; the two are compared
only in tests and in the CLI cross-check commands.
"""

from __future__ import annotations

import math

import numpy as np

from .equation import EXP_RE_MAX, FAMILY, newton, require_finite
from .errors import (
    BoundaryTooCloseError,
    EvalRangeError,
    NumericalError,
    PreconditionError,
    ResidualTooLargeError,
    SubdivisionError,
)
from .rootsets import LabeledRootSet, Window, canonical_root_set

BOUNDARY_CLEARANCE = 1e-9
# tighter internal agreement target between quadrature and phase count
_AGREE_TOL = 0.05
_PHASE_INC_MAX = 0.5 * math.pi
NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 60
# boundary samples per edge before doubling, and how often to double
_EDGE_SAMPLES = 64
_MAX_DOUBLINGS = 12
_MAX_DEPTH = 48
_CLUSTER_DIAMETER = 1e-7
_JITTER_STEP = 1e-3
_JITTER_TRIES = 10

_TRAPZ = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def _edge_samples(z0: complex, z1: complex, m: int, a: complex):
    u = np.linspace(0.0, 1.0, m + 1)
    z = z0 + u * (z1 - z0)
    e = np.exp(z)
    fz = z + e - a
    fpz = 1.0 + e
    return z, fz, fpz


def count_roots(a: complex, window: Window) -> int:
    """Number of roots of z + e^z = a inside the window, by winding number.

    The boundary integral (1/2 pi i) of f'/(f - a) is computed by the
    trapezoid rule on each edge; the sample count doubles until the
    discrete phase increments of f - a along the boundary all stay below
    pi/2 and the quadrature agrees with the integer phase winding.
    Raises BoundaryTooCloseError when |f - a| dips below the clearance
    floor on the boundary (caller should jitter the window),
    ResidualTooLargeError if refinement is exhausted, and EvalRangeError
    for a window reaching past EXP_RE_MAX, where e^z overflows.
    """
    if window.re_max > EXP_RE_MAX:
        raise EvalRangeError(
            f"exp would overflow: window re_max = {window.re_max:.6g} "
            f"exceeds {EXP_RE_MAX:.6g}"
        )
    corners = window.corners()
    m = _EDGE_SAMPLES
    last_misfit = math.inf
    for _ in range(_MAX_DOUBLINGS + 1):
        integral = 0j
        boundary_f = []
        min_abs = math.inf
        for i in range(4):
            z0, z1 = corners[i], corners[(i + 1) % 4]
            _, fz, fpz = _edge_samples(z0, z1, m, a)
            edge_min = float(np.min(np.abs(fz)))
            min_abs = min(min_abs, edge_min)
            if edge_min <= BOUNDARY_CLEARANCE:
                idx = int(np.argmin(np.abs(fz)))
                raise BoundaryTooCloseError(
                    f"|f - a| = {edge_min:.3g} on window boundary",
                    clearance=edge_min,
                    location=complex(z0 + (z1 - z0) * idx / m),
                )
            integral += (z1 - z0) * complex(_TRAPZ(fpz / fz, dx=1.0 / m))
            boundary_f.append(fz[:-1])
        fring = np.concatenate(boundary_f)
        ratios = np.roll(fring, -1) / fring
        increments = np.angle(ratios)
        phase_total = float(np.sum(increments)) / (2.0 * math.pi)
        n_phase = round(phase_total)
        winding = integral / (2j * math.pi)
        misfit = abs(winding.real - n_phase) + abs(winding.imag)
        if (
            float(np.max(np.abs(increments))) < _PHASE_INC_MAX
            and abs(phase_total - n_phase) < 1e-6
            and misfit < _AGREE_TOL
        ):
            if n_phase < 0:
                raise NumericalError(f"negative winding {n_phase}; f is entire")
            return int(n_phase)
        last_misfit = misfit
        m *= 2
    raise ResidualTooLargeError(
        f"boundary quadrature did not settle after {_MAX_DOUBLINGS} doublings "
        f"(misfit {last_misfit:.3g}, min boundary |f - a| = {min_abs:.3g})"
    )


def _count_with_jitter(a: complex, window: Window) -> tuple[int, Window]:
    """count_roots, expanding the window slightly when a root sits on or
    impractically close to the edge (quadrature exhaustion counts too)."""
    w = window
    for _ in range(_JITTER_TRIES):
        try:
            return count_roots(a, w), w
        except (BoundaryTooCloseError, ResidualTooLargeError):
            w = w.expand(_JITTER_STEP)
    raise BoundaryTooCloseError(
        f"window boundary still blocked after {_JITTER_TRIES} expansions of "
        f"{_JITTER_STEP:g}",
        clearance=None,
        location=None,
    )


def _critical_polish(z: complex, max_iter: int = 60):
    # Newton on f' to land on the nearby critical point
    for _ in range(max_iter):
        g = FAMILY.deriv(z)
        if abs(g) <= 1e-14:
            return z
        z = z - g / FAMILY.deriv2(z)
    return z


def _solve_isolated(win: Window, a: complex) -> complex | None:
    """Newton from the center (then quarter points); None if nothing sticks."""
    seeds = [win.center]
    qw, qh = 0.25 * win.width, 0.25 * win.height
    c = win.center
    seeds += [c + complex(sx * qw, sy * qh) for sx in (-1, 1) for sy in (-1, 1)]
    for z0 in seeds:
        polished = newton(z0, a, NEWTON_TOL, _NEWTON_MAX_ITER)
        # strict containment: a neighbor cell's root must not be claimed
        if polished is not None and win.contains(polished[0], margin=1e-9):
            return polished[0]
    return None


def _split_counted(win: Window, a: complex, expected: int):
    """Split into four children whose counts add up to the parent count.

    The split lines are jittered away from roots: an offset ladder is
    tried until each child contour has clearance and the counts are
    additive.
    """
    offsets = (0.0, 0.033, -0.033, 0.071, -0.071, 0.137, -0.137)
    c = win.center
    for ox in offsets:
        for oy in offsets:
            cx = c.real + ox * win.width
            cy = c.imag + oy * win.height
            try:
                children = win.split4(cx, cy)
                counted = [(ch, count_roots(a, ch)) for ch in children]
            except (BoundaryTooCloseError, ResidualTooLargeError):
                continue
            if sum(n for _, n in counted) == expected:
                return counted
    raise SubdivisionError(
        f"could not split window around {c!r} with additive counts"
    )


def find_roots(a: complex, window: Window) -> LabeledRootSet:
    """All roots of z + e^z = a in the window, canonically labeled.

    Quadtree subdivision isolates roots counted by count_roots; isolated
    roots are polished by Newton to residual 1e-12.  A cell of multiple
    roots that cannot be split further (diameter below 1e-7) is treated
    as a merge cluster at a critical point: the returned entry carries
    the cluster multiplicity and is flagged near-merge.  Two resolved
    roots closer than 1e-4 are likewise flagged.

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
            stack.extend((ch, n, depth + 1) for ch, n in _split_counted(win, a, cnt))
            continue
        if win.diameter < _CLUSTER_DIAMETER:
            z = _critical_polish(win.center)
            if abs(FAMILY.eval(z) - a) > 1e-6:
                raise SubdivisionError(
                    f"unresolvable cluster of {cnt} roots near {win.center!r} "
                    f"not at a critical point"
                )
            positions.append(z)
            multiplicities.append(cnt)
            continue
        stack.extend((ch, n, depth + 1) for ch, n in _split_counted(win, a, cnt))

    result = canonical_root_set(a, positions, multiplicities=multiplicities, window=w_eff)
    if result.total_multiplicity() != total:
        raise NumericalError(
            f"located multiplicity {result.total_multiplicity()} != contour count {total}"
        )
    result.validate_residuals(FAMILY, tol=1e-10)
    return result
