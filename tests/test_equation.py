"""Critical lattice, real root, and the x^x <-> z + e^z transform."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono.equation import (
    EXP_RE_MAX,
    FAMILY,
    RESIDUAL_TOL,
    EvalRangeError,
    PreconditionError,
    SingularArgumentError,
    critical_height,
    critical_point,
    critical_value,
    exp_tail,
    nearest_critical,
    newton,
    real_root,
    rounding_floor,
    to_b,
    to_x,
    to_z,
    zero_disc,
)
from mono.lambertw import lambert_w

TWO_PI = 2.0 * math.pi


def test_family_eval_and_derivatives():
    z = 0.3 - 1.7j
    assert FAMILY.eval(z) == z + cmath.exp(z)
    assert FAMILY.deriv(z) == 1.0 + cmath.exp(z)


def test_critical_points_annihilate_derivative():
    for n in range(-50, 51):
        cp = critical_point(n)
        assert abs(FAMILY.deriv(cp.z)) < 1e-12
        assert abs(FAMILY.eval(cp.z) - cp.a) < 1e-12
        # f'' = e^z stays on the unit circle, so never zero
        assert abs(abs(cmath.exp(cp.z)) - 1.0) < 1e-12


def test_lattice_layout():
    for n in range(-50, 50):
        dz = critical_point(n + 1).z - critical_point(n).z
        da = critical_value(n + 1) - critical_value(n)
        assert abs(dz - TWO_PI * 1j) < 1e-12
        assert abs(da - TWO_PI * 1j) < 1e-12
    assert critical_value(0) == -1.0 + math.pi * 1j
    assert critical_point(-1).z == -math.pi * 1j
    assert critical_height(3) == 7.0 * math.pi


def test_critical_point_argument_checks():
    with pytest.raises(PreconditionError):
        critical_point(0.5)
    with pytest.raises(PreconditionError):
        critical_point(10**7)
    # bools are ints in python; refuse them anyway to catch confused callers
    with pytest.raises(PreconditionError):
        critical_point(True)


def test_nearest_critical():
    n, d = nearest_critical(-1.0 + 3.0j)
    assert n == 0
    assert abs(d - abs(3.0j - math.pi * 1j)) < 1e-15
    n, d = nearest_critical(-1.0 - 9.0j)
    assert n == -2
    n, d = nearest_critical(critical_value(5))
    assert n == 5 and d == 0.0


def test_real_root_value():
    x = real_root()
    assert abs(x + math.exp(x)) < 1e-15
    assert -0.5672 < x < -0.5671
    # frozen: -W_0(1), cross-checked against mpmath in the lambert tests
    assert abs(x - (-0.5671432904097838)) < 1e-15


def test_transform_round_trip():
    for x in (0.2, 0.5671, 0.9, 1.5, 3.0):
        z = to_z(x)
        assert abs(to_x(z) - x) < 1e-12 * max(1.0, x)
    # complex branch of the same map
    z = to_z(0.4 + 0.1j)
    assert abs(to_x(z) - (0.4 + 0.1j)) < 1e-12


def test_transform_target_equation():
    # x^x = a becomes z + e^z = b with z = log(log x), b = log(log a)
    x = 0.3
    a = x**x
    z = to_z(x)
    b = to_b(a)
    assert abs((z + cmath.exp(z)) - b) < 1e-12


def test_transform_singularities():
    for bad in (0.0, 1.0):
        with pytest.raises(SingularArgumentError):
            to_z(bad)
    with pytest.raises(SingularArgumentError):
        to_b(1.0)


def test_eval_range_guard():
    with pytest.raises(EvalRangeError):
        to_x(complex(EXP_RE_MAX + 1.0, 0.0) + 700.0)  # e^e^z overflows
    with pytest.raises(EvalRangeError):
        FAMILY.eval(800.0 + 0j)
    # just below the guard still works
    assert math.isfinite(FAMILY.eval(700.0 + 0j).real)


def test_non_finite_rejected():
    with pytest.raises(PreconditionError):
        FAMILY.eval(complex(math.nan, 0.0))
    with pytest.raises(PreconditionError):
        nearest_critical(complex(math.inf, 1.0))


def _tau(z, a):
    return rounding_floor(abs(z), abs(cmath.exp(z)), abs(a), abs(FAMILY.deriv(z)))


def _reference_newton(z, a, max_iter):
    # the unfused loop on the guarded family: two exps per iterate; it
    # stops at RESIDUAL_TOL, or within the rounding floor once the
    # residual fails to halve
    prev = math.inf
    for _ in range(max_iter):
        fz = FAMILY.eval(z) - a
        r = abs(fz)
        if r <= RESIDUAL_TOL or (r > 0.5 * prev and r <= _tau(z, a)):
            return z, r
        d = FAMILY.deriv(z)
        if d == 0:
            return None
        prev = r
        z = z - fz / d
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return None
    r = abs(FAMILY.eval(z) - a)
    if r <= RESIDUAL_TOL or (r > 0.5 * prev and r <= _tau(z, a)):
        return z, r
    return None


def _reference_outcome(*args):
    # an iterate past the exp guard finds nothing
    try:
        return _reference_newton(*args)
    except EvalRangeError:
        return None


_im = st.floats(-60.0, 60.0)


@settings(max_examples=300)
@given(
    z=st.builds(complex, st.floats(-30.0, 700.0), _im),
    a=st.builds(complex, st.floats(-30.0, 700.0), _im),
    max_iter=st.integers(0, 60),
)
def test_newton_matches_unfused_reference(z, a, max_iter):
    got = newton(z, a, max_iter)
    want = _reference_outcome(z, a, max_iter)
    if want is None:
        assert got is None
        return
    assert got[:2] == want
    # f' at the accepted root, bit for bit
    assert got[2] == FAMILY.deriv(got[0])


def test_newton_iterate_past_exp_guard_finds_nothing():
    # the start is tame, but f' ~ -1e-3 there throws the first update to
    # re(z) ~ 1e6, where e^z would overflow
    z0 = complex(1e-3, math.pi)
    assert z0.real < EXP_RE_MAX
    assert newton(z0, complex(-1000.0, math.pi), 8) is None


def test_newton_non_finite_start_gives_none():
    assert newton(complex(math.nan, 0.0), 0j, 8) is None
    assert newton(complex(0.0, math.inf), 0j, 8) is None


@settings(max_examples=400)
@given(
    a=st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    k=st.integers(-63, 63),
    log_dist=st.floats(-8.0, -1.5),
    turn=st.floats(0.0, 1.0),
)
def test_newton_polishes_roots_at_any_height(a, k, log_dist, turn):
    # oracle roots up to |Im z| = 400, where the rounding floor is near
    # 4e-11; from up to 10^-1.5 away Newton stops within 8 iterations
    root = a - lambert_w(cmath.exp(a), k)
    got = newton(root + cmath.rect(10.0**log_dist, 2.0 * math.pi * turn), a, 8)
    assert got is not None
    z, r, _ = got
    assert abs(z - root) < 1e-9 * abs(root)
    assert r <= max(RESIDUAL_TOL, _tau(z, a))
    if abs(root.imag) < 60.0:
        assert r <= RESIDUAL_TOL


def test_rounding_floor_passes_residual_tol_near_height_67():
    # at a root of z + e^z = 0, |e^z| = |z|, so tau is about eps |z|^2
    for height, above in ((60.0, False), (75.0, True), (400.0, True)):
        z = complex(math.log(height), height)
        assert (_tau(z, 0j) > RESIDUAL_TOL) is above


def test_zero_disc_refuses_at_a_critical_point():
    # at fl(pi i), a = a_0, Newton stops at once with |f'| ~ 1.2e-16, far
    # below 2 rho: s = 2 rho / |f'| would be about 27, and no disc is formed
    cp = critical_point(0)
    z, r, d = newton(cp.z, cp.a, 8)
    assert 0.0 < abs(d) < 2e-16
    assert 2.0 * (r + _tau(z, cp.a)) / abs(d) > 20.0
    assert zero_disc(z, r, d, cp.a) is None


def test_zero_disc_refuses_a_zero_derivative():
    z = 0.5 + 1j
    assert zero_disc(z, 0.0, 0j, FAMILY.eval(z)) is None


@settings(max_examples=300)
@given(
    z=st.builds(complex, st.floats(-800.0, 30.0), st.floats(-1e4, 1e4)),
    a=st.complex_numbers(max_magnitude=1e4),
    log_r=st.floats(-20.0, 2.0),
    log_q=st.floats(-16.0, 3.0),
    phase=st.floats(-math.pi, math.pi),
)
def test_zero_disc_radius_is_below_one(z, a, log_r, log_q, phase):
    # |f'| = 2 r (1 + q) from 2 r to 2,000 r: 2 rho = 2 (r + tau) lies
    # on either side of it, and s comes within 1e-14 of 1
    r = 10.0**log_r
    got = zero_disc(z, r, cmath.rect(2.0 * r * (1.0 + 10.0**log_q), phase), a)
    if got is not None:
        rho, s, _, _ = got
        assert rho >= r
        assert 0.0 < s < 1.0
        assert exp_tail(math.exp(z.real), s) < rho
