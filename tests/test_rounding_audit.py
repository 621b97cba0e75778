"""Certificates audited in multiprecision.

Every certificate rests on rounding_floor, tau = eps (|z| + |e^z| + |a|
+ |z| |f'(z)|), as a bound on the binary64 error of the computed
|f(z) - a|.  Here that computed value, from cmath (as the package
evaluates it) and from numpy's exp (a second libm), is compared with
|f(z) - a| evaluated by mpmath at 160 bits from the same binary64 z and
a.  The comparison is in mpf: rounding mpmath.iv endpoints back to
binary64 would add rounding of its own and show false excesses.  The
dominance test that certifies contour pieces in count_roots is replayed
at 60 digits the same way, and so is zero_disc: the one-zero disc that
root location and the tracker's acceptance test share, and the step
disc that sizes the tracker's steps.
"""

import cmath
import math
import sys
from unittest import mock

import mpmath
import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mono import rootwindow
from mono.equation import critical_point, newton, rounding_floor, zero_disc
from mono.errors import BoundaryTooCloseError

_EPS = sys.float_info.epsilon


def _exact_residual(z: complex, a: complex):
    """|f(z) - a| at 160 bits, z and a taken as the binary64 values given."""
    with mpmath.workprec(160):
        x, y = mpmath.mpf(z.real), mpmath.mpf(z.imag)
        ex = mpmath.exp(x)
        re = x + ex * mpmath.cos(y) - mpmath.mpf(a.real)
        im = y + ex * mpmath.sin(y) - mpmath.mpf(a.imag)
        return mpmath.hypot(re, im)


@settings(max_examples=400)
@given(
    re=st.floats(-30.0, 30.0),
    log_im=st.floats(-2.0, 5.0),
    below=st.booleans(),
    a=st.complex_numbers(max_magnitude=7.0),
)
def test_rounding_floor_bounds_the_residual_error(re, log_im, below, a):
    # Re z in [-30, 30], |Im z| from 1e-2 to 1e5 on either side, |a| <= 7
    z = complex(re, (-1.0 if below else 1.0) * 10.0**log_im)
    exact = _exact_residual(z, a)
    for e in (cmath.exp(z), complex(np.exp(z))):
        tau = rounding_floor(abs(z), abs(e), abs(a), abs(1.0 + e))
        with mpmath.workprec(160):
            err = abs(mpmath.mpf(abs(z + e - a)) - exact)
        assert err <= tau, f"error {float(err):.3g} = {float(err) / tau:.3g} tau at z = {z!r}"


@settings(max_examples=300, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=5.0),
    im=st.floats(-1000.0, 1000.0),
    shift=st.floats(-4.0, 4.0),
    log_length=st.floats(-3.0, 2.0),
    vertical=st.booleans(),
    backward=st.booleans(),
)
def test_dominance_certificate_in_multiprecision(a, im, shift, log_length, vertical, backward):
    # axis-parallel pieces within e^4 of the curve |e^z| = |z - a|, where
    # either term may dominate.  A piece that count_roots certifies with
    # the exclusion test switched off was certified by dominance: at 60
    # digits e^z is at least twice z - a on it, or z - a twice e^z, and
    # its turn is arg(f - a) unwrapped over 2,000 points along it
    z0 = complex(math.log(abs(complex(0.0, im) - a) + 1.0) + shift, im)
    z1 = z0 + (-1.0 if backward else 1.0) * 10.0**log_length * (1j if vertical else 1.0)
    try:
        s0, s1 = rootwindow._ring_samples([z0, z1], a)
    except BoundaryTooCloseError:
        reject()
    with mock.patch.object(rootwindow, "excludes_zero", lambda *args: False):
        turn = rootwindow._turn(s0, s1, a)
    if turn is None:
        return
    with mpmath.workdps(60):
        x0, y0, x1, y1, ar, ai = map(mpmath.mpf, (z0.real, z0.imag, z1.real, z1.imag, a.real, a.imag))
        lo, hi = min(x0, x1), max(x0, x1)
        far = max(mpmath.hypot(x0 - ar, y0 - ai), mpmath.hypot(x1 - ar, y1 - ai))
        near = mpmath.hypot(min(max(ar, lo), hi) - ar, min(max(ai, min(y0, y1)), max(y0, y1)) - ai)
        # up to the rounding of the binary64 test
        slack = 1 - mpmath.mpf(1e-14)
        assert mpmath.exp(lo) >= 2 * far * slack or near >= 2 * mpmath.exp(hi) * slack
    zs = [z0 + k / 1999 * (z1 - z0) for k in range(2000)]
    fs = [z + cmath.exp(z) - a for z in zs]
    unwrapped = sum(cmath.phase(q / p) for p, q in zip(fs, fs[1:]))
    assert abs(turn - unwrapped) < 1e-9


def _oracle(a: complex, k: int, dist: float, turn: float):
    """(a, seed) with the oracle root a - W_k(e^a), perturbed by dist."""
    root = a - complex(mpmath.lambertw(cmath.exp(a), k))
    return a, root + cmath.rect(dist, 2.0 * math.pi * turn)


def _near_critical(n: int, gap: float, turn: float, other: bool):
    """(a, seed) with a at gap from a_n and seed the quadratic estimate
    z_n + u of one of the two roots there: f = a_n - u^2 / 2 + O(u^3)."""
    cp = critical_point(n)
    a = cp.a + cmath.rect(gap, 2.0 * math.pi * turn)
    u = cmath.sqrt(-2.0 * (a - cp.a))
    return a, cp.z + (-u if other else u)


_DISTS = st.floats(-8.0, -1.5).map(lambda x: 10.0**x)
_TURNS = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    draw=st.one_of(
        st.builds(_oracle, st.complex_numbers(max_magnitude=5.0), st.integers(-160, 160),
                  _DISTS, _TURNS),
        st.builds(_oracle, st.builds(complex, st.floats(-700.0, -300.0),
                                     st.floats(-1000.0, 1000.0)), st.just(0), _DISTS, _TURNS),
        st.builds(_near_critical, st.integers(-50, 50),
                  st.floats(-7.0, -1.0).map(lambda x: 10.0**x), _TURNS, st.booleans()),
    )
)
def test_zero_disc_in_multiprecision(draw):
    # roots polished by newton from three kinds of seed: oracle roots
    # a - W_k(e^a) up to |Im z| ~ 1e3 (mpmath's W: the package's stops at
    # |k| = 64), perturbed; far-left roots a - W_0(e^a) with Re a in
    # [-700, -300], where e^a is tiny but normal, perturbed; and one of
    # the two roots 1e-7 to 1e-1 from a_n, where S(R) ~ F^2 / 2E cancels.
    # At 60 digits, from the binary64 z and a, rho bounds the exact
    # |f(z) - a|, and on |u| = s the exact |f'(z)| s less the exact tail
    # |e^z| (e^s - 1 - s) exceeds it: Rouche puts one zero in the disc.
    # The step disc's S(R) is F R - E (e^R - 1 - R) at its own R to within
    # 4 eps ((F + E) R + F + R), with F = |f'(z)| and E = exp(Re z) the
    # binary64 values the disc is computed from
    a, seed = draw
    hit = newton(seed, a, 8)
    assert hit is not None
    cert = zero_disc(*hit, a)
    assert cert is not None
    rho, s, radius, bound = cert
    z = hit[0]
    fa, ee = abs(hit[2]), math.exp(z.real)
    with mpmath.workdps(60):
        x, y, ar, ai, rho, s = map(mpmath.mpf, (z.real, z.imag, a.real, a.imag, rho, s))
        ex = mpmath.exp(x)
        er, ei = ex * mpmath.cos(y), ex * mpmath.sin(y)
        exact = mpmath.hypot(x + er - ar, y + ei - ai)
        assert exact <= rho
        assert mpmath.hypot(1 + er, ei) * s - ex * (mpmath.expm1(s) - s) > exact
        f, e, r = map(mpmath.mpf, (fa, ee, radius))
        s_exact = f * r - e * (mpmath.expm1(r) - r)
        assert abs(bound - s_exact) <= 4 * _EPS * ((f + e) * r + f + r)
