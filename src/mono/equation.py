"""The equation family f(z) = z + e^z.

Everything downstream studies the roots of f(z) = a as the parameter a
moves.  This module supplies evaluation and derivatives with overflow
guards, the lattice of critical points (where f' vanishes), the real
root of f, and the double-logarithm change of variables that links the
self-power equation x^x = a to this family.

It also holds the one residual rule, |f(z) - a| <= max(RESIDUAL_TOL,
rounding_floor): newton stops on it, and every caller accepts by
residual_bound.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import (
    EvalRangeError,
    PreconditionError,
    SingularArgumentError,
)

# largest re(z) for which exp(z) stays finite in binary64
EXP_RE_MAX = 709.782712893384
_EPS = sys.float_info.epsilon
MAX_CRITICAL_INDEX = 10**6
RESIDUAL_TOL = 1e-12


def require_finite(z: complex, name: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PreconditionError(f"{name} must be finite, got {z!r}")
    return z


def checked_exp(z: complex) -> complex:
    if z.real > EXP_RE_MAX:
        raise EvalRangeError(f"exp would overflow: re(z) = {z.real:.6g} exceeds {EXP_RE_MAX:.6g}")
    return cmath.exp(z)


class ExpAffineFamily:
    """f(z) = z + e^z with its derivative.

    The interface (eval, deriv, critical lattice) is what the rest of the
    package depends on; only this one family ships.
    """

    def eval(self, z: complex) -> complex:
        z = require_finite(z, "z")
        return z + checked_exp(z)

    def deriv(self, z: complex) -> complex:
        z = require_finite(z, "z")
        return 1.0 + checked_exp(z)


FAMILY = ExpAffineFamily()


def rounding_floor(zm: float, ee: float, am: float, fa: float) -> float:
    """tau = eps (|z| + |e^z| + |a| + |z| |f'(z)|) from those four moduli,
    which the tracker holds for every root: a bound on the binary64 error of
    the computed |f(z) - a|, from rounding z + e^z - a and z itself, for a
    libm whose exp, cos and sin are within 1 ulp (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3).  At a root tau is
    about eps |z|^2, above 1e-12 past |z| = 67."""
    return _EPS * (zm + ee + am + zm * fa)


def residual_bound(z: complex, a: complex, d: complex) -> tuple[float, float]:
    """(tau, bound) at a root z of f = a with f'(z) = d: tau is
    rounding_floor with |e^z| = exp(Re z), and bound = max(RESIDUAL_TOL,
    tau) is the largest |f(z) - a| the residual rule accepts."""
    tau = rounding_floor(abs(z), math.exp(z.real), abs(a), abs(d))
    return tau, max(RESIDUAL_TOL, tau)


def exp_tail(ee: float, r: float) -> float:
    """E (e^r - 1 - r) with E = ee = |e^z|: the exact bound, on |u| <= r,
    of |f(z + u) - f(z) - f'(z) u| = |e^z (e^u - 1 - u)|."""
    return ee * (math.expm1(r) - r)


def newton(z: complex, a: complex, max_iter: int):
    """Newton for f(z) = a from z: (z, |f(z) - a|, f'(z)) or None.

    Stops at r = |f(z) - a| <= RESIDUAL_TOL, or at r <= rounding_floor on
    an iterate whose r failed to halve, as rounding stalls quadratic
    convergence.  One e^z per iterate gives both z + e^z - a and
    f' = 1 + e^z, the same floats as FAMILY.eval and FAMILY.deriv.  None
    on a non-finite iterate (the start too), an iterate past EXP_RE_MAX,
    where e^z overflows, f' = 0, or no stop after max_iter updates.
    """
    prev = math.inf
    for k in range(max_iter + 1):
        if not cmath.isfinite(z) or z.real > EXP_RE_MAX:
            return None
        e = cmath.exp(z)
        fz = z + e - a
        r = abs(fz)
        d = 1.0 + e
        if r <= RESIDUAL_TOL or (
            r > 0.5 * prev and r <= rounding_floor(abs(z), abs(e), abs(a), abs(d))
        ):
            return z, r, d
        if k == max_iter or d == 0:
            return None
        prev = r
        z = z - fz / d


@dataclass(frozen=True)
class CriticalPoint:
    """Critical point z_n = (2n+1) pi i with its critical value a_n = z_n - 1."""

    n: int
    z: complex
    a: complex
    order: int = 1


def critical_height(n: int) -> float:
    """Imaginary part (2n+1) pi shared by the n-th critical point and value."""
    return (2 * n + 1) * math.pi


def critical_point(n: int) -> CriticalPoint:
    """The n-th critical point of f.

    f'(z) = 1 + e^z vanishes exactly at z = (2n+1) pi i, and
    f''(z) = e^z has modulus 1 there, so every critical point is first
    order: exactly two roots of f(z) = a merge as a crosses the critical
    value a_n = -1 + (2n+1) pi i.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise PreconditionError(f"critical index must be an int, got {type(n).__name__}")
    if abs(n) > MAX_CRITICAL_INDEX:
        raise PreconditionError(
            f"critical index |n| = {abs(n):.3g} exceeds {MAX_CRITICAL_INDEX}"
        )
    z = complex(0.0, critical_height(n))
    return CriticalPoint(n=n, z=z, a=z - 1.0)


def critical_value(n: int) -> complex:
    return critical_point(n).a


def nearest_critical(a: complex) -> tuple[int, float]:
    """Index and distance of the critical value nearest to a."""
    a = require_finite(a, "a")
    n0 = round((a.imag / math.pi - 1.0) / 2.0)
    best_n, best_d = n0, abs(a - critical_value(n0))
    for n in (n0 - 1, n0 + 1):
        d = abs(a - critical_value(n))
        if d < best_d:
            best_n, best_d = n, d
    return best_n, best_d


def solve_increasing(g, dg, lo: float, hi: float) -> float:
    """The zero of g, strictly increasing on [lo, hi] with derivative dg:
    80 bisections bracket it, then 4 Newton steps polish it to machine
    precision."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):
        x -= g(x) / dg(x)
    return x


_REAL_ROOT: float | None = None


def real_root() -> float:
    """Unique real solution of x + e^x = 0, in [-1, 0], where the function
    is strictly increasing; cached after the first call."""
    global _REAL_ROOT
    if _REAL_ROOT is None:
        _REAL_ROOT = solve_increasing(
            lambda x: x + math.exp(x), lambda x: 1.0 + math.exp(x), -1.0, 0.0
        )
    return _REAL_ROOT


def to_z(x: complex) -> complex:
    """Change of variables z = log(log(x)), principal branch twice.

    Sends a solution x of x^x = a to a solution z of z + e^z = b where
    b = log(log(a)), principal determinations throughout: from x^x = a,
    take logs to get x log x = log a, substitute x = exp(exp(z)), and take
    logs once more.  Singular at x = 0 and x = 1.
    """
    x = require_finite(x, "x")
    if x == 0 or x == 1:
        raise SingularArgumentError(f"double logarithm is singular at x = {x}")
    return cmath.log(cmath.log(x))


def to_x(z: complex) -> complex:
    """Inverse change of variables x = exp(exp(z)), with overflow guards."""
    z = require_finite(z, "z")
    inner = checked_exp(z)
    return checked_exp(inner)


def to_b(a: complex) -> complex:
    """Parameter transport b = log(log(a)) matching to_z; singular at 0 and 1."""
    a = require_finite(a, "a")
    if a == 0 or a == 1:
        raise SingularArgumentError(f"double logarithm is singular at a = {a}")
    return cmath.log(cmath.log(a))
