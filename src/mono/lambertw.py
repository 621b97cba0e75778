"""Multi-branch Lambert W and the closed-form root oracle.

W_k(w) solves W e^W = w on branch k, with the standard convention that
im(W_k) lies in ((2k-1) pi, (2k+1) pi] away from the branch cuts, the
cuts taken on the negative real w-axis and closed from above.  Roots of
z + e^z = a are exactly z = a - W_k(e^a): substituting u = a - z turns
the equation into u e^u = e^a.

The iteration is Halley's method seeded by region-dependent starting
values: a branch-point series near w = -1/e for the two branches that
meet there, a Taylor start near w = 0, and the asymptotic
L1 - log(L1) start with L1 = log(w) + 2 pi i k elsewhere.  This is an
independent route to the roots; nothing here shares code with the
contour-counting root finder.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    ConvergenceError,
    NumericalError,
    PreconditionError,
    SingularArgumentError,
)
from .equation import FAMILY, checked_exp, require_finite

MAX_BRANCH = 64
HALLEY_MAX_ITER = 100
# Halley's residual target, relative to max(1, |w|): an oracle root's residual
# |f(z) - a| is the W residual amplified by |W| / |w|, which must stay under
# ORACLE_RESIDUAL_TOL for every branch in range
HALLEY_TOL = 1e-13
# every oracle root must satisfy |z + e^z - a| below this
ORACLE_RESIDUAL_TOL = 1e-10

_INV_E = math.exp(-1.0)
# W_0(-1), used only as an iteration start in the pocket around w = -1
_W_AT_MINUS_ONE = complex(-0.31813150520476413, 1.3372357014306895)


def _branch_point_series(p: complex) -> complex:
    # W = -1 + p - p^2/3 + 11 p^3/72 + O(p^4),  p = sqrt(2 (e w + 1))
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))


def _initial_guess(w: complex, k: int) -> complex:
    ew1 = math.e * w + 1.0
    near_branch_point = abs(ew1) < 0.4
    p = cmath.sqrt(2.0 * ew1) if near_branch_point else None

    if k == 0:
        if near_branch_point:
            return _branch_point_series(p)
        if abs(w) < 0.25:
            return w * (1.0 - w)
        if abs(w + 1.0) < 0.5:
            # below the axis the target is the conjugate value; on the
            # axis the cut closes from above
            return _W_AT_MINUS_ONE if w.imag >= 0.0 else _W_AT_MINUS_ONE.conjugate()
        # asymptotic start only when the modulus is genuinely large; a
        # large principal log coming from the angle alone would put the
        # start in a neighboring branch's basin
        if abs(w) > 12.0:
            L = cmath.log(w)
            return L - cmath.log(L)
        return cmath.log(1.0 + w)

    if k == -1:
        if w.imag == 0.0 and -_INV_E < w.real < 0.0:
            # real branch segment: W_-1 is real and below -1 here
            if near_branch_point:
                return _branch_point_series(-p)
            L = math.log(-w.real)
            return complex(L - math.log(-L), 0.0)
        if near_branch_point and (
            w.imag > 0.0 or (w.imag == 0.0 and w.real <= -_INV_E)
        ):
            # upper half-plane, and the on-axis cut left of the branch
            # point, which closes from above
            return _branch_point_series(-p)
    elif k == 1 and near_branch_point and w.imag < 0.0:
        # mirror of the k = -1 pocket under conjugation
        return _branch_point_series(-p)

    L = cmath.log(w) + 2j * math.pi * k
    return L - cmath.log(L)


def lambert_w(w: complex, k: int = 0) -> complex:
    """Branch k of Lambert W at w, to residual |W e^W - w| <= HALLEY_TOL * max(1, |w|).

    Raises SingularArgumentError at w = 0 on branches other than 0, and
    ConvergenceError (carrying the last iterate) if Halley's method fails
    to meet tolerance within its iteration budget.
    """
    if not isinstance(k, int):
        raise PreconditionError(f"branch index must be an int, got {type(k).__name__}")
    if abs(k) > MAX_BRANCH:
        raise PreconditionError(f"branch index |k| = {abs(k)} exceeds {MAX_BRANCH}")
    w = require_finite(w, "w")
    if w == 0:
        if k == 0:
            return 0j
        raise SingularArgumentError("W_k has a logarithmic singularity at w = 0 for k != 0")

    # aim for a residual relative to |w|; accept the documented bound
    # HALLEY_TOL * max(1, |w|) as a fallback if iteration stalls above the aim
    target = HALLEY_TOL * abs(w)
    contract = HALLEY_TOL * max(1.0, abs(w))
    W = complex(_initial_guess(w, k))
    best, best_res = W, math.inf
    for _ in range(HALLEY_MAX_ITER):
        e = cmath.exp(W)
        f = W * e - w
        res = abs(f)
        if res < best_res:
            best, best_res = W, res
        if res <= target:
            return W
        Wp1 = W + 1.0
        if Wp1 == 0:
            # tangent at the branch point; nudge off and continue
            W += 1e-8
            continue
        denom = e * Wp1 - (W + 2.0) * f / (2.0 * Wp1)
        if denom == 0:
            raise ConvergenceError(
                f"Halley denominator vanished at W = {W!r} for branch {k}",
                last=W,
                residual=res,
            )
        W -= f / denom
        if not (math.isfinite(W.real) and math.isfinite(W.imag)):
            raise ConvergenceError(
                f"Halley iterate diverged for branch {k} at w = {w!r}",
                last=best,
                residual=best_res,
            )
    if best_res <= contract:
        return best
    raise ConvergenceError(
        f"lambert_w(k={k}) did not reach HALLEY_TOL {HALLEY_TOL:g} at w = {w!r}; "
        f"best residual {best_res:.3g}",
        last=best,
        residual=best_res,
    )


def oracle_roots(a: complex, k_range, *, window=None):
    """Roots z = a - W_k(e^a) of z + e^z = a for k over k_range.

    k_range is any iterable of branch indices (a builtin range works).
    Each root is residual-checked against |z + e^z - a| < ORACLE_RESIDUAL_TOL
    before being admitted; an a whose e^a underflows to 0 is refused, since
    every branch k != 0 is singular there.  If a window is given, only roots
    inside it are kept.  Returns a canonically labeled root set; labels
    follow the shared convention (sorted by imaginary part, the real root,
    if any, relabeled to 1).
    """
    from .rootsets import canonical_root_set

    a = require_finite(a, "a")
    w = checked_exp(a)
    if w == 0:
        raise PreconditionError(f"e^a underflows to 0 at a = {a!r}: Re a must exceed about -745")
    ks = list(k_range)
    if not ks:
        raise PreconditionError("k_range is empty")
    values: list[tuple[int, complex]] = []
    for k in ks:
        try:
            W = lambert_w(w, k)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"oracle branch k={k} failed at a = {a!r}: {exc}",
                last=exc.last,
                residual=exc.residual,
            ) from exc
        values.append((k, W))
    # any W value solves z + e^z = a, so two branches landing on the same
    # W means an iteration start failed, not a genuine double root: true
    # branch values for representable a stay > 1e-8 apart even at the
    # critical values, where the merging pair sits ~ sqrt(eps) apart
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            ki, Wi = values[i]
            kj, Wj = values[j]
            if abs(Wi - Wj) <= 1e-9 * (1.0 + abs(Wi)):
                raise NumericalError(
                    f"branches k={ki} and k={kj} collided at W = {Wi!r} "
                    f"for w = {w!r}; branch start logic failed"
                )
    positions = []
    for k, W in values:
        z = a - W
        resid = abs(FAMILY.eval(z) - a)
        if resid >= ORACLE_RESIDUAL_TOL:
            raise NumericalError(
                f"oracle root for branch k={k} has residual {resid:.3g} "
                f">= {ORACLE_RESIDUAL_TOL:g} at a = {a!r}"
            )
        if window is None or window.contains(z):
            positions.append(z)
    return canonical_root_set(a, positions, window=window)
