"""The rounding floor, audited in multiprecision.

Every certificate rests on rounding_floor, tau = eps (|z| + |e^z| + |a|
+ |z| |f'(z)|), as a bound on the binary64 error of the computed
|f(z) - a|.  Here that computed value, from cmath (as newton and the
tracker evaluate it) and from numpy (as count_roots does), is compared
with |f(z) - a| evaluated by mpmath at 160 bits from the same binary64
z and a.  The comparison is in mpf: rounding mpmath.iv endpoints back
to binary64 would add rounding of its own and show false excesses.
"""

import cmath

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mono.equation import rounding_floor


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
