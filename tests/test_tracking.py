"""Predictor-corrector transport of root bundles along parameter paths."""

import math

import pytest

from mono.equation import critical_value
from mono.errors import PreconditionError, StepUnderflowError
from mono.paths import ParamPath, LineSegment, circle_path, composite_loop, keyhole_loop
from mono.rootsets import Window
from mono.rootwindow import find_roots
from mono.tracking import TrackConfig, step_control, track_bundle

from conftest import W3, W5


def test_config_validation():
    TrackConfig()  # defaults are self-consistent
    with pytest.raises(PreconditionError):
        TrackConfig(max_step=0.0)
    with pytest.raises(PreconditionError):
        TrackConfig(min_step=0.1, max_step=0.01)
    with pytest.raises(PreconditionError):
        TrackConfig(corrector_tol=0.0)


def test_step_control_caps(bundle3):
    from mono.equation import FAMILY
    from mono.rootsets import min_separation

    cfg = TrackConfig()
    zs = bundle3.positions()
    dmin, derivs = min_separation(zs), [FAMILY.deriv(z) for z in zs]
    cap = step_control(dmin, derivs, 1.0 + 0j, cfg)
    assert cap <= cfg.max_step + 1e-15
    tiny = step_control(dmin, derivs, 1e-6 + 0j, cfg)
    assert abs(tiny - 1e-6) < 1e-18
    # collision cap kicks in when two roots are close
    close = [0j, 0.01 + 0j, 3.0 + 0j]
    derivs = [FAMILY.deriv(z) for z in close]
    fmin = min(abs(d) for d in derivs)
    cap = step_control(min_separation(close), derivs, 1.0 + 0j, cfg)
    assert cap == pytest.approx(0.01 * fmin / 3.0)


@pytest.mark.parametrize("n, steps", [(-1, 322), (0, 322), (1, 602), (2, 880)])
def test_step_law_is_deterministic(bundle5, n, steps):
    # the step-control law has no randomness: these counts are exact, and
    # any change to them is a change of behaviour, not noise
    _, rep = track_bundle(bundle5, keyhole_loop(n, 0.5), TrackConfig())
    assert (rep.steps_accepted, rep.steps_rejected) == (steps, 0)


def test_identity_transport_around_regular_point(bundle3):
    # a loop that encircles no critical value must return every root home
    loop = circle_path(0.5 + 0.5j, 0.3, 1)
    start = find_roots(0.5 + 0.5j - 0.3, W3)
    end, rep = track_bundle(start, loop, TrackConfig())
    for lab in start.labels():
        assert abs(end.position(lab) - start.position(lab)) < 1e-9
    assert rep.max_residual < 1e-12


def test_reverse_transport_returns(bundle5):
    cfg = TrackConfig()
    out = keyhole_loop(2, 0.5)
    mid, _ = track_bundle(bundle5, out, cfg)
    back, rep = track_bundle(mid, out.reverse(), cfg)
    worst = max(
        abs(back.position(lab) - bundle5.position(lab)) for lab in bundle5.labels()
    )
    assert worst < 1e-8
    assert rep.max_residual < 1e-12


def test_open_path_transport(bundle3):
    # straight drift of the parameter; end roots solve the new equation
    seg = ParamPath((LineSegment(0j, 1.5 + 0.5j),))
    end, rep = track_bundle(bundle3, seg, TrackConfig())
    assert end.a == 1.5 + 0.5j
    assert end.window is None  # containment claim voided off-base
    from mono.equation import FAMILY

    for lab in end.labels():
        assert abs(FAMILY.eval(end.position(lab)) - end.a) < 1e-11


def test_residuals_stay_tight(bundle5):
    _, rep = track_bundle(bundle5, composite_loop(2), TrackConfig())
    assert rep.max_residual < 1e-12
    assert rep.steps_accepted > 50
    assert rep.min_pairwise_distance > 0.5


def test_underflow_through_critical_value(bundle3):
    # circle passes exactly through a_0 halfway along; stepping must die
    # with a diagnostic pointing at the lattice, not wander off
    a0 = critical_value(0)
    loop = circle_path(a0 - 0.5, 0.5, 1)
    start = find_roots(a0 - 1.0, W3)
    with pytest.raises(StepUnderflowError) as ei:
        track_bundle(start, loop, TrackConfig())
    err = ei.value
    assert abs(err.arc_param - 0.5) < 0.05
    n_near, d_near = err.nearest_critical
    assert n_near == 0 and d_near < 1e-6


def test_start_must_match_path_base(bundle3):
    loop = keyhole_loop(0, 0.5)
    shifted = find_roots(0.1 + 0j, W3)
    with pytest.raises(PreconditionError):
        track_bundle(shifted, loop, TrackConfig())


def test_near_merged_start_refused():
    a0 = critical_value(0)
    merged = find_roots(a0, Window(-1.0, 1.0, 2.0, 4.0))
    with pytest.raises(PreconditionError):
        track_bundle(merged, circle_path(a0, 0.1, 1), TrackConfig())


def test_trajectory_recording_and_csv(tmp_path, bundle3):
    cfg = TrackConfig(record_trajectories=True)
    end, rep = track_bundle(bundle3, keyhole_loop(0, 0.5), cfg)
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
    _, coarse = track_bundle(bundle3, loop, TrackConfig(max_step=0.1))
    _, fine = track_bundle(bundle3, loop, TrackConfig(max_step=0.02))
    assert fine.steps_accepted > coarse.steps_accepted


def test_multiplicity_entries_refused():
    from mono.rootsets import LabeledRootSet, RootEntry

    rs = LabeledRootSet(0j, (RootEntry(1, -0.5671432904097838 + 0j, multiplicity=2),))
    with pytest.raises(PreconditionError):
        track_bundle(rs, keyhole_loop(0, 0.5), TrackConfig())
