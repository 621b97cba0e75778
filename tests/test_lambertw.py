"""Branched Lambert W and the closed-form root oracle.

mpmath serves as the independent reference implementation here and nowhere
else; the package itself never imports it.
"""

import cmath
import math

import mpmath
import pytest

from mono import lambertw
from mono.equation import FAMILY, critical_value, real_root
from mono.errors import NumericalError, PreconditionError
from mono.lambertw import MAX_BRANCH, lambert_w, oracle_roots
from mono.rootsets import Window

_INV_E = math.exp(-1.0)


def _ref(w, k):
    mpmath.mp.dps = 30
    return complex(mpmath.lambertw(w, k))


def test_defining_identity_on_grid():
    # moduli from deep inside the branch-point region out to the asymptotic
    # regime, all around the circle, on eleven branches
    moduli = [1e-6, 1e-3, 0.05, 0.2, 0.36, 0.5, 1.0, 3.0, 20.0, 1e4, 1e8]
    angles = [j * math.pi / 8 for j in range(16)]
    for k in range(-5, 6):
        for r in moduli:
            for th in angles:
                w = r * cmath.exp(1j * th)
                W = lambert_w(w, k)
                assert abs(W * cmath.exp(W) - w) <= 1e-10 * max(1.0, abs(w))


def test_against_mpmath_grid():
    moduli = [1e-6, 1e-2, 0.3, 0.367, 0.5, 2.0, 50.0, 1e5]
    angles = [j * math.pi / 7 for j in range(14)]
    worst = 0.0
    for k in (-3, -1, 0, 1, 3):
        for r in moduli:
            for th in angles:
                w = r * cmath.exp(1j * th)
                got = lambert_w(w, k)
                ref = _ref(w, k)
                worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst < 1e-10


def test_principal_branch_special_values():
    assert abs(lambert_w(0.0, 0)) == 0.0
    assert abs(lambert_w(math.e, 0) - 1.0) < 1e-14
    # frozen: W_0(1) is the omega constant
    assert abs(lambert_w(1.0, 0) - 0.5671432904097838) < 1e-14
    # frozen: W_0(-1), the unique fixed point style value in the pocket
    ref = -0.31813150520476413 + 1.3372357014306895j
    assert abs(lambert_w(-1.0, 0) - ref) < 1e-13


def test_branch_point_both_sides():
    # the two branches that meet at w = -1/e
    for eps in (1e-12, 1e-8, 1e-4):
        for k in (0, -1):
            w = -_INV_E + eps
            W = lambert_w(w, k)
            assert abs(W * cmath.exp(W) - w) < 1e-12
    assert abs(lambert_w(-_INV_E, 0) + 1.0) < 2e-8
    assert abs(lambert_w(-_INV_E, -1) + 1.0) < 2e-8


def test_branch_cut_closure_from_above():
    # on the cut (negative real axis, |w| > 1/e for k = 0) the value is the
    # limit from above; just below the axis it jumps to the conjugate
    for w0 in (-0.5, -1.0, -4.0):
        on = lambert_w(complex(w0, 0.0), 0)
        above = lambert_w(complex(w0, 1e-12), 0)
        below = lambert_w(complex(w0, -1e-12), 0)
        assert abs(on - above) < 1e-9
        assert abs(below - on.conjugate()) < 1e-9
        assert on.imag > 0.0


def test_real_ray_of_k_minus_one():
    # W_{-1} is real on (-1/e, 0); the cut closure applies left of -1/e
    for w0 in (-0.3, -0.2, -0.05, -1e-4):
        W = lambert_w(w0, -1)
        assert W.imag == 0.0
        assert W.real < -1.0
        assert abs(W * math.exp(W.real) - w0) < 1e-12 * max(1.0, abs(w0))
    left = lambert_w(-0.5, -1)
    assert abs(left - _ref(-0.5, -1)) < 1e-10


def test_high_branch_index_and_bounds():
    W = lambert_w(2.0 + 1.0j, 40)
    assert abs(W * cmath.exp(W) - (2.0 + 1.0j)) < 1e-9 * abs(W)
    with pytest.raises(PreconditionError):
        lambert_w(1.0, MAX_BRANCH + 1)
    with pytest.raises(PreconditionError):
        lambert_w(0.0, 1)  # only the principal branch reaches w = 0


def test_oracle_roots_at_zero():
    roots = oracle_roots(0j, range(-2, 3))
    assert roots.a == 0j
    assert len(roots.entries) == 5
    for entry in roots.entries:
        assert abs(FAMILY.eval(entry.z)) < 1e-12
    # the real root carries label 1 by convention
    z1 = roots.position(1)
    assert abs(z1.imag) < 1e-15
    assert abs(z1.real - real_root()) < 1e-13


def test_oracle_against_mpmath_roots():
    a = 0.7 - 2.3j
    roots = oracle_roots(a, range(-3, 4))
    mpmath.mp.dps = 30
    ea = complex(mpmath.exp(a))
    refs = sorted(
        (complex(a - mpmath.lambertw(ea, k)) for k in range(-3, 4)),
        key=lambda z: (z.imag, z.real),
    )
    got = sorted(roots.positions(), key=lambda z: (z.imag, z.real))
    assert len(got) == len(refs)
    for g, r in zip(got, refs):
        assert abs(g - r) < 1e-10 * max(1.0, abs(r))


def test_oracle_window_filter():
    win = Window(-5.0, 5.0, -6.0, 6.0)
    roots = oracle_roots(0j, range(-6, 7), window=win)
    assert len(roots.entries) == 3
    assert all(win.contains(z) for z in roots.positions())


def test_oracle_near_critical_value_is_well_separated_pair():
    # just off a_0 the two merging roots are still distinct and the oracle
    # must not collapse them onto one branch
    a = critical_value(0) + 1e-6
    roots = oracle_roots(a, range(-1, 2))
    zs = sorted(roots.positions(), key=lambda z: z.imag)
    pair = [z for z in zs if abs(z - math.pi * 1j) < 0.1]
    assert len(pair) == 2
    gap = abs(pair[0] - pair[1])
    assert 2e-3 < gap < 4e-3  # ~ 2 sqrt(2 eps)
    for z in roots.positions():
        assert abs(FAMILY.eval(z) - a) < 1e-10


def test_oracle_residual_guard(monkeypatch):
    monkeypatch.setattr(lambertw, "ORACLE_RESIDUAL_TOL", 1e-18)
    with pytest.raises(NumericalError):
        oracle_roots(0j, range(-2, 3))
