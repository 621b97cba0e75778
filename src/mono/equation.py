"""The equation family f(z) = z + e^z.

Everything downstream studies the roots of f(z) = a as the parameter a
moves.  This module supplies evaluation and derivatives with overflow
guards, the lattice of critical points (where f' vanishes), the real
root of f, and the double-logarithm change of variables that links the
self-power equation x^x = a to this family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    EvalRangeError,
    NumericalError,
    PreconditionError,
    SingularArgumentError,
)

# largest re(z) for which exp(z) stays finite in binary64
EXP_RE_MAX = 709.782712893384
MAX_CRITICAL_INDEX = 10**6


def require_finite(z: complex, name: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PreconditionError(f"{name} must be finite, got {z!r}")
    return z


def checked_exp(z: complex) -> complex:
    if z.real > EXP_RE_MAX:
        raise EvalRangeError(
            f"exp would overflow: re(z) = {z.real:.6g} exceeds {EXP_RE_MAX:.6g}"
        )
    return cmath.exp(z)


class ExpAffineFamily:
    """f(z) = z + e^z with explicit first and second derivatives.

    The interface (eval, deriv, deriv2, critical lattice) is what the rest
    of the package depends on; only this one family ships.
    """

    def eval(self, z: complex) -> complex:
        z = require_finite(z, "z")
        return z + checked_exp(z)

    def deriv(self, z: complex) -> complex:
        z = require_finite(z, "z")
        return 1.0 + checked_exp(z)

    def deriv2(self, z: complex) -> complex:
        z = require_finite(z, "z")
        return checked_exp(z)


FAMILY = ExpAffineFamily()


def newton(z: complex, a: complex, tol: float, max_iter: int):
    """Newton for f(z) = a from z; (z, |f(z) - a|) or None within max_iter.

    Gives up (None) on a vanishing derivative, a non-finite iterate, or a
    residual still above tol after max_iter updates.
    """
    for _ in range(max_iter):
        fz = FAMILY.eval(z) - a
        r = abs(fz)
        if r <= tol:
            return z, r
        d = FAMILY.deriv(z)
        if d == 0:
            return None
        z = z - fz / d
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return None
    r = abs(FAMILY.eval(z) - a)
    return (z, r) if r <= tol else None


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
            f"critical index |n| = {abs(n)} exceeds {MAX_CRITICAL_INDEX}"
        )
    z = complex(0.0, critical_height(n))
    if FAMILY.deriv2(z) == 0:
        raise NumericalError(f"second derivative vanished at critical point n={n}")
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


_REAL_ROOT: float | None = None


def real_root() -> float:
    """Unique real solution of x + e^x = 0.

    Bisection on [-1, 0] brackets the root (the function is strictly
    increasing on the reals), then a few Newton steps polish to machine
    precision.  The value is cached after the first call.
    """
    global _REAL_ROOT
    if _REAL_ROOT is None:
        lo, hi = -1.0, 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid + math.exp(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        for _ in range(4):
            x -= (x + math.exp(x)) / (1.0 + math.exp(x))
        _REAL_ROOT = x
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
