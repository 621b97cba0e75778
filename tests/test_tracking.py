"""Predictor-corrector transport of root bundles along parameter paths."""

import cmath
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mono.equation import FAMILY, critical_value
from mono.errors import PreconditionError, StepUnderflowError
from mono.paths import ParamPath, LineSegment, circle_path, composite_loop, keyhole_loop
from mono.rootsets import Window
from mono.rootwindow import find_roots
from mono.tracking import (
    ALPHA0,
    ALPHA_STEP,
    MIN_STEP,
    gamma_bound,
    step_control,
    track_bundle,
)

from conftest import W3, W5


def test_max_step_validation(bundle3):
    loop = keyhole_loop(0, 0.5)
    for bad in (0.0, -1.0, MIN_STEP, math.nan):
        with pytest.raises(PreconditionError, match="MIN_STEP"):
            track_bundle(bundle3, loop, max_step=bad)
    with pytest.raises(TypeError):  # options are keywords only
        track_bundle(bundle3, loop, 0.05)
    # a cap the path cannot meet within the step budget is refused up front
    with pytest.raises(PreconditionError, match="STEP_BUDGET") as ei:
        track_bundle(bundle3, loop, max_step=1e-8)
    assert "max_step 1e-08 needs at least" in str(ei.value)


def _certs(zs, a):
    out = []
    for z in zs:
        d = FAMILY.deriv(z)
        out.append((abs(d), abs(FAMILY.eval(z) - a) / abs(d), gamma_bound(d)))
    return out


def test_step_control_caps(bundle3):
    from mono.rootsets import min_separation

    zs = bundle3.positions()
    dmin, certs = min_separation(zs), _certs(zs, 0j)
    # well-separated roots: the alpha term binds
    expected = min(fa * (ALPHA_STEP / g - b) for fa, b, g in certs)
    assert expected < 0.25 * dmin * min(fa for fa, _, _ in certs)
    cap = step_control(dmin, certs)
    assert cap == pytest.approx(expected, rel=1e-12)
    assert cap > 0.05  # larger than the old fixed step
    # a user cap binds when it is the smaller
    assert step_control(dmin, certs, 0.05) == 0.05
    assert step_control(dmin, certs, 1e6) == cap
    # two roots 0.01 apart: the disjointness term d_min / 4 binds
    close = [0j, 0.01 + 0j, 3.0 + 0j]
    certs = [(abs(FAMILY.deriv(z)), 0.0, gamma_bound(FAMILY.deriv(z))) for z in close]
    fmin = min(fa for fa, _, _ in certs)
    cap = step_control(min_separation(close), certs)
    assert cap == pytest.approx(0.01 * fmin / 4.0)
    # no roots, nothing to certify
    assert step_control(math.inf, []) == math.inf


@pytest.mark.parametrize("n, steps", [(-1, 53), (0, 53), (1, 85), (2, 118)])
def test_step_law_is_deterministic(bundle5, n, steps):
    # the step-control law has no randomness: these counts are exact, and
    # any change to them is a change of behaviour, not noise
    _, rep = track_bundle(bundle5, keyhole_loop(n, 0.5))
    assert (rep.steps_accepted, rep.steps_rejected) == (steps, 0)
    assert rep.max_alpha < ALPHA0


def test_guarded_family_calls_do_not_grow_with_steps(bundle5, monkeypatch):
    # the corrector's fused kernel does the per-step work; the guarded
    # FAMILY.eval/deriv are left to the start checks, O(N) per bundle
    calls = {"eval": 0, "deriv": 0}

    def counted(name):
        method = getattr(FAMILY, name)

        def wrapper(z):
            calls[name] += 1
            return method(z)

        return wrapper

    monkeypatch.setattr(FAMILY, "eval", counted("eval"))
    monkeypatch.setattr(FAMILY, "deriv", counted("deriv"))
    runs = []
    for max_step in (0.05, 0.02):
        calls.update(eval=0, deriv=0)
        _, rep = track_bundle(bundle5, keyhole_loop(2, 0.5), max_step=max_step)
        runs.append((rep.steps_accepted, calls["eval"], calls["deriv"]))
    (steps, *guarded), (more_steps, *guarded_more) = runs
    assert steps == 880 and more_steps > steps
    assert max(guarded) <= 2 * len(bundle5) + 2
    assert guarded_more == guarded


def test_identity_transport_around_regular_point(bundle3):
    # a loop that encircles no critical value must return every root home
    loop = circle_path(0.5 + 0.5j, 0.3, 1)
    start = find_roots(0.5 + 0.5j - 0.3, W3)
    end, rep = track_bundle(start, loop)
    for lab in start.labels():
        assert abs(end.position(lab) - start.position(lab)) < 1e-9
    assert rep.max_residual < 1e-12


def test_reverse_transport_returns(bundle5):
    out = keyhole_loop(2, 0.5)
    mid, _ = track_bundle(bundle5, out)
    back, rep = track_bundle(mid, out.reverse())
    worst = max(
        abs(back.position(lab) - bundle5.position(lab)) for lab in bundle5.labels()
    )
    assert worst < 1e-8
    assert rep.max_residual < 1e-12


def test_open_path_transport(bundle3):
    # straight drift of the parameter; end roots solve the new equation
    seg = ParamPath((LineSegment(0j, 1.5 + 0.5j),))
    end, rep = track_bundle(bundle3, seg)
    assert end.a == 1.5 + 0.5j
    assert end.window is None  # containment claim voided off-base
    from mono.equation import FAMILY

    for lab in end.labels():
        assert abs(FAMILY.eval(end.position(lab)) - end.a) < 1e-11


def test_residuals_stay_tight(bundle5):
    _, rep = track_bundle(bundle5, composite_loop(2))
    assert rep.max_residual < 1e-12
    assert rep.steps_accepted > 50
    assert rep.min_pairwise_distance > 0.5


@pytest.mark.parametrize("n", [-1, 0, 2])
def test_root_follows_image_segment_line(bundle5, n):
    # on an image segment one root moves along the known z-line exactly
    loop = composite_loop(n)
    _, rep = track_bundle(bundle5, loop, max_step=0.05, record=True)
    rows: dict = {}
    for arc, _lab, z, _a, _res in rep.trajectory:
        rows.setdefault(arc, []).append(z)
    checked = 0
    for i, seg in enumerate(loop.segments):
        if seg.kind != "image":
            continue
        d = seg.z1 - seg.z0
        for arc, zs in rows.items():
            if i <= arc <= i + 1:
                on_line = (
                    abs(seg.z0 + min(1.0, max(0.0, ((z - seg.z0) / d).real)) * d - z)
                    for z in zs
                )
                assert min(on_line) < 1e-10
                checked += 1
    assert checked > 100


def test_underflow_through_critical_value(bundle3):
    # circle passes exactly through a_0 halfway along; stepping must die
    # with a diagnostic pointing at the lattice, not wander off
    a0 = critical_value(0)
    loop = circle_path(a0 - 0.5, 0.5, 1)
    start = find_roots(a0 - 1.0, W3)
    with pytest.raises(StepUnderflowError) as ei:
        track_bundle(start, loop)
    err = ei.value
    assert abs(err.arc_param - 0.5) < 0.05
    n_near, d_near = err.nearest_critical
    assert n_near == 0 and d_near < 1e-6


def test_start_must_match_path_base(bundle3):
    loop = keyhole_loop(0, 0.5)
    shifted = find_roots(0.1 + 0j, W3)
    with pytest.raises(PreconditionError):
        track_bundle(shifted, loop)


def test_near_merged_start_refused():
    a0 = critical_value(0)
    merged = find_roots(a0, Window(-1.0, 1.0, 2.0, 4.0))
    with pytest.raises(PreconditionError):
        track_bundle(merged, circle_path(a0, 0.1, 1))


def test_trajectory_recording_and_csv(tmp_path, bundle3):
    end, rep = track_bundle(bundle3, keyhole_loop(0, 0.5), record=True)
    assert rep.trajectory
    arcs = [row[0] for row in rep.trajectory]
    assert arcs == sorted(arcs)
    labels_seen = {row[1] for row in rep.trajectory}
    assert labels_seen == set(bundle3.labels())
    out = tmp_path / "traj.csv"
    rep.to_csv(str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "arc_param,label,re_z,im_z,re_a,im_a,residual"
    assert len(lines) == 1 + len(rep.trajectory)
    # residual column parses and respects the corrector tolerance
    worst = max(float(l.rsplit(",", 1)[1]) for l in lines[1:])
    assert worst < 1e-11


def test_max_step_influences_step_count(bundle3):
    loop = keyhole_loop(0, 0.5)
    _, coarse = track_bundle(bundle3, loop, max_step=0.1)
    _, fine = track_bundle(bundle3, loop, max_step=0.02)
    assert fine.steps_accepted > coarse.steps_accepted


def test_multiplicity_entries_refused():
    from mono.rootsets import LabeledRootSet, RootEntry

    rs = LabeledRootSet(0j, (RootEntry(1, -0.5671432904097838 + 0j, multiplicity=2),))
    with pytest.raises(PreconditionError):
        track_bundle(rs, keyhole_loop(0, 0.5))


def _gamma_sup(z: complex) -> tuple[float, complex]:
    """sup over k = 2..60 of |f^(k)(z) / (k! f'(z))|^{1/(k-1)} at 50 digits,
    and f'(z) rounded once to binary64."""
    with mpmath.workdps(50):
        e = mpmath.exp(mpmath.mpc(z.real, z.imag))
        d = 1 + e
        r = abs(e) / abs(d)
        sup = max((r / mpmath.factorial(k)) ** (mpmath.mpf(1) / (k - 1)) for k in range(2, 61))
        return float(sup), complex(d)


_NEAR_CRITICAL = st.builds(
    lambda n, rho, theta: complex(0.0, (2 * n + 1) * math.pi) + cmath.rect(rho, theta),
    st.integers(-20, 20),
    st.floats(1e-6, 1e-3),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=100)
@given(
    z=st.one_of(
        st.complex_numbers(min_magnitude=0.0, max_magnitude=40.0, allow_nan=False, allow_infinity=False),
        _NEAR_CRITICAL,
        st.builds(complex, st.floats(-700.0, -30.0), st.floats(-100.0, 100.0)),
        st.builds(complex, st.floats(30.0, 700.0), st.floats(-100.0, 100.0)),
    )
)
@example(z=0j)
@example(z=-0.5671432904097838 + 0j)
@example(z=math.pi * 1j + 1e-4)
def test_gamma_bound_is_an_upper_bound(z):
    # the k >= 13 tail is bounded by e / 13 and the k = 2 term is exact for
    # r >= 2/3; the slack 1e-14 covers the rounding of |d - 1| / |d|
    sup, d = _gamma_sup(z)
    assert gamma_bound(d) >= sup * (1.0 - 1e-14)
    assert gamma_bound(d) <= max(sup, math.e / 13.0) * (1.0 + 1e-14)
