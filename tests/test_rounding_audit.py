"""Certificates audited in multiprecision.

Every certificate rests on rounding_floor, tau = eps (|z| + |e^z| + |a|
+ |z| |f'(z)|), as a bound on the binary64 error of the computed
|f(z) - a|.  Here that computed value, from cmath (as the package
evaluates it) and from numpy's exp (a second libm), is compared with
|f(z) - a| evaluated by mpmath at 160 bits from the same binary64 z and
a.  The comparison is in mpf: rounding mpmath.iv endpoints back to
binary64 would add rounding of its own and show false excesses.  The
dominance test that certifies contour pieces in count_roots is replayed
at 60 digits the same way, and so is zero_disc, the one-zero disc that
root location and the tracker's acceptance test share.
"""

import cmath
import math
from unittest import mock

import mpmath
import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mono import rootwindow
from mono.equation import newton, rounding_floor, zero_disc
from mono.errors import BoundaryTooCloseError


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
    with mock.patch.object(rootwindow, "_excluded", lambda *args: False):
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


@settings(max_examples=300, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=5.0),
    k=st.integers(-160, 160),
    log_dist=st.floats(-8.0, -1.5),
    turn=st.floats(0.0, 1.0),
)
def test_zero_disc_in_multiprecision(a, k, log_dist, turn):
    # oracle roots a - W_k(e^a) up to |Im z| ~ 1e3 (mpmath's W: the
    # package's stops at |k| = 64), perturbed and polished by newton.
    # At 60 digits, from the binary64 z and a, rho bounds the exact
    # |f(z) - a|, and on |u| = s the exact |f'(z)| s less the exact tail
    # |e^z| (e^s - 1 - s) exceeds it: Rouche puts one zero in the disc
    root = a - complex(mpmath.lambertw(cmath.exp(a), k))
    hit = newton(root + cmath.rect(10.0**log_dist, 2.0 * math.pi * turn), a, 8)
    assert hit is not None
    rho, s, _, _ = zero_disc(*hit, a)
    z = hit[0]
    with mpmath.workdps(60):
        x, y, ar, ai, rho, s = map(mpmath.mpf, (z.real, z.imag, a.real, a.imag, rho, s))
        ex = mpmath.exp(x)
        er, ei = ex * mpmath.cos(y), ex * mpmath.sin(y)
        exact = mpmath.hypot(x + er - ar, y + ei - ai)
        assert exact <= rho
        assert mpmath.hypot(1 + er, ei) * s - ex * (mpmath.expm1(s) - s) > exact
