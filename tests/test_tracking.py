"""Predictor-corrector transport of root bundles along parameter paths."""

import cmath
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mono.equation import (
    FAMILY,
    RESIDUAL_TOL,
    critical_point,
    critical_value,
    newton,
    rounding_floor,
    zero_disc,
)
from mono.errors import PreconditionError, StepUnderflowError
from mono.lambertw import oracle_roots
from mono.permutation import extract_permutation
from mono.paths import (
    ArcSegment,
    ImageSegment,
    LineSegment,
    ParamPath,
    circle_path,
    composite_loop,
    concat,
    keyhole_loop,
    loop_around,
)
from mono.rootsets import LabeledRootSet, RootEntry, Window
from mono.rootwindow import find_roots
from mono import tracking
from mono.tracking import _blocks, step_control, track_bundle

from conftest import W3, W5


def test_max_step_validation(bundle3):
    # the Rouche discs alone size the steps: there is no cap to pass, and
    # record is a keyword only
    loop = keyhole_loop(0, 0.5)
    with pytest.raises(TypeError):
        track_bundle(bundle3, loop, max_step=0.05)
    with pytest.raises(TypeError):
        track_bundle(bundle3, loop, True)


def _rouche(z: complex, a: complex):
    """(R, S(R), |f(z) - a|) of the Rouche disc at z, from the closed form
    S(R) = (F + E) R - E expm1(R), F = |1 + e^z|, E = |e^z|."""
    e = cmath.exp(z)
    fa, ee = abs(1.0 + e), abs(e)
    radius = math.log1p(fa / ee)
    return radius, (fa + ee) * radius - ee * math.expm1(radius), abs(z + e - a)


def test_step_control_caps(bundle3):
    zs = bundle3.positions()
    rows = [_rouche(z, 0j) for z in zs]
    discs, residuals = [(r, s) for r, s, _ in rows], [res for _, _, res in rows]
    # the tracker's disc is the maximiser of S, from the same closed form
    for z, disc in zip(zs, discs):
        e = cmath.exp(z)
        step_disc = zero_disc(z, abs(z + e - bundle3.a), 1.0 + e, bundle3.a)[2:]
        assert step_disc == pytest.approx(disc, rel=1e-12)
    # each root's reach is its own margin S(R) - rho, and every one is
    # larger than the old fixed step
    for disc, res in zip(discs, residuals):
        cap = step_control(disc, res)
        assert cap == pytest.approx(disc[1] - res, rel=1e-12)
        assert cap > 0.05
    assert step_control((0.2, 0.3), 0.05) == pytest.approx(0.25)


@pytest.mark.parametrize(
    "n, steps",
    [(-1, (39, 0)), (0, (39, 0)), (1, (59, 0)), (2, (78, 0))],
    ids=["-1", "0", "1", "2"],
)
def test_step_law_is_deterministic(bundle5, n, steps):
    # the step-control law has no randomness: these counts of root-steps
    # are exact, and any change to them is a change of behaviour, not noise;
    # every root's way home is its partner's way out
    _, rep = track_bundle(bundle5, keyhole_loop(n, 0.5))
    assert (rep.steps_accepted, rep.steps_rejected) == steps
    assert rep.legs_reused == len(bundle5)
    assert 0.0 < rep.max_load < 1.0


# rows per label on W19 at a = 0, after the start row: a root whose disc
# covers several whole segments crosses them in one step, and 8 labels
# are fixed by the whole 7-segment keyhole around a_0: they take no step,
# and their start row is replayed at its end.  Every other label reuses a
# way out for its way home, whose rows are replayed, not steps
W19 = Window(-5.0, 5.0, -60.0, 60.0)
_W19_ROWS = {
    0: (20, 1, 1, 1, 3, 3, 3, 5, 9, 1, 20, 5, 3, 3, 3, 1, 1, 1, 1),
    2: (32, 3, 5, 7, 7, 7, 9, 9, 17, 3, 27, 27, 32, 9, 7, 7, 5, 3, 3),
}
_W19_STEPS = {0: (52, 0, 11), 2: (127, 0, 19)}


@pytest.mark.parametrize("n", list(_W19_ROWS))
def test_w19_root_steps_per_label(n):
    bundle = find_roots(0j, W19)
    _, rep = track_bundle(bundle, keyhole_loop(n), record=True)
    rows = Counter(lab for _, lab, *_ in rep.trajectory)
    assert tuple(rows[lab] - 1 for lab in bundle.labels()) == _W19_ROWS[n]
    assert (rep.steps_accepted, rep.steps_rejected, rep.legs_reused) == _W19_STEPS[n]
    assert rep.legs_reused == sum(rows[lab] > 2 for lab in bundle.labels())
    assert rep.max_load < 1.0
    # a fixed root's start row is replayed at the loop's end, where it stays
    for lab in bundle.labels():
        if rows[lab] == 2:
            first, last = (row for row in rep.trajectory if row[1] == lab)
            assert last == (len(keyhole_loop(n).segments), *first[1:])


# calls per W19 keyhole, set-up included: Newton runs (one per root-step),
# and reach and point on the path's segments.  A segment's whole reach,
# start and end are computed once per bundle, and the first try on a
# segment reads them; a root the keyhole fixes takes no step at all
_W19_WORK = {0: (52, 59, 40), 2: (127, 155, 88)}


@pytest.mark.parametrize("n", list(_W19_WORK))
def test_w19_keyhole_work(n, monkeypatch):
    bundle, loop = find_roots(0j, W19), keyhole_loop(n)
    calls = Counter()

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(tracking, "newton")
    for kind in (LineSegment, ArcSegment, ImageSegment):
        counted(kind, "reach")
        counted(kind, "point")
    track_bundle(bundle, loop)
    assert (calls["newton"], calls["reach"], calls["point"]) == _W19_WORK[n]


def _moving_segments(path):
    """The (index, segment, gap plus whole reach, whole reach, start, end)
    entries track_bundle builds for the path's moving segments."""
    out, a_end = [], path.start
    for i, seg in enumerate(path.segments):
        if (whole := seg.reach(0.0, 1.0)) != 0.0:
            out.append((i, seg, abs(seg.point(0.0) - a_end) + whole, whole,
                        seg.point(0.0), seg.point(1.0)))
            a_end = seg.point(1.0)
    return out


def _state(z: complex, a: complex):
    """A root's tracker state (z, f', rho, a, disc) at a root z of f = a,
    from the same floats Newton and the start of track_bundle compute."""
    e = cmath.exp(z)
    cert = zero_disc(z, abs(z + e - a), 1.0 + e, a)
    return z, 1.0 + e, cert[0], a, cert[2:]


_BUNDLES = {}  # window -> its roots at a = 0, found once
_WORD_WINDOWS = {
    "W5": (W5, range(-1, 3)),
    "W19": (W19, range(-8, 9)),
    # roots above |z| = 67, where the rounding floor passes 1e-12 and the
    # corrector may take an update before it stops
    "high": (Window(-5.0, 5.0, 100.0, 150.0), range(-3, 4)),
}


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(sorted(_WORD_WINDOWS)),
    letters=st.lists(st.tuples(st.integers(0, 16), st.booleans()), min_size=1, max_size=3),
)
def test_fixed_root_keeps_what_its_one_step_would_give(which, letters):
    # a root whose allowance covers a whole keyhole is fixed by it, and
    # track_bundle keeps its state: the one step the tracker took before
    # lands on the same root, and on the same floats whenever the
    # corrector stops at once.  Letter by letter, the word ends where the
    # whole word does
    window, ns = _WORD_WINDOWS[which]
    if window not in _BUNDLES:
        _BUNDLES[window] = find_roots(0j, window)
    here = start = _BUNDLES[window]
    word = []
    for k, inverse in letters:
        loop = keyhole_loop(ns[k % len(ns)])
        loop = loop.reverse() if inverse else loop
        segments = _moving_segments(loop)
        span = sum(s[2] for s in segments)
        after, _ = track_bundle(here, loop)
        for e in here.entries:
            state = _state(e.z, 0j)
            if step_control(state[4], state[2]) < span:
                continue
            report = tracking.TrackReport()
            z, d, *_ = one = tracking._track_root(e.label, state, segments, report, None)
            assert (report.steps_accepted, report.steps_rejected) == (1, 0)
            assert after.position(e.label) == e.z  # kept, with no step
            assert abs(z - e.z) <= 1e-15 * abs(e.z) and abs(d - state[1]) <= 1e-15 * abs(d)
            if abs(e.z + cmath.exp(e.z)) <= RESIDUAL_TOL:  # Newton stops at once
                assert one == state
        here, word = after, word + [loop]
    end, _ = track_bundle(start, concat(*word))
    assert end.positions() == here.positions()


@settings(max_examples=200)
@given(
    k=st.integers(-60, 60),
    log_dist=st.floats(-9.0, -2.0),
    turn=st.floats(0.0, 1.0),
)
def test_one_pass_certificate_and_disc(k, log_dist, turn):
    # the step's certificate and its next disc come from one zero_disc
    # call, from the moduli |f'(z)| and exp(Re z) by the closed form
    # R = log1p(F / E), S(R) = (F + E) R - F
    root = oracle_roots(0j, [k]).positions()[0]
    hit = newton(root + cmath.rect(10.0**log_dist, 2.0 * math.pi * turn), 0j, 8)
    z, r, d = hit
    rho, s, radius, bound = zero_disc(z, r, d, 0j)
    fa, ee = abs(d), math.exp(z.real)
    assert rho == r + rounding_floor(abs(z), ee, 0.0, fa)
    assert s == 2.0 * rho / fa
    assert (radius, bound) == (math.log1p(fa / ee), (fa + ee) * math.log1p(fa / ee) - fa)


def test_joint_gap_counts_in_the_load(bundle3):
    # segments may join 1e-12 apart (CONTINUITY_TOL); a step that crosses
    # such a joint moves a by the gap too, and its load carries it
    start = LabeledRootSet(bundle3.a, tuple(e for e in bundle3 if e.label == 1))
    z = start.position(1)
    _, bound = zero_disc(z, abs(FAMILY.eval(z) - start.a), FAMILY.deriv(z), start.a)[2:]
    loads = []
    for gap in (0.0, 0.9e-12j):
        path = ParamPath((LineSegment(0j, 0.01 + 0j), LineSegment(0.01 + gap, 0.02 + gap)))
        _, rep = track_bundle(start, path)
        assert (rep.steps_accepted, rep.steps_rejected) == (1, 0)
        loads.append(rep.max_load)
    assert (loads[1] - loads[0]) * bound == pytest.approx(0.9e-12, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_each_root_keeps_its_own_schedule(bundle5, n):
    # tracked alone, each label ends on the root the bundle puts it on; a
    # swapped root has no partner to take its way home from, so it tracks
    # the way back, and the bundle takes no more steps than the lone runs
    loop = keyhole_loop(n, 0.5)
    end, rep = track_bundle(bundle5, loop)
    accepted = 0
    for e in bundle5.entries:
        alone = LabeledRootSet(bundle5.a, (e,), bundle5.window)
        end_alone, rep_alone = track_bundle(alone, loop)
        assert abs(end_alone.position(e.label) - end.position(e.label)) < 1e-10
        accepted += rep_alone.steps_accepted
    assert rep.steps_accepted <= accepted


@pytest.mark.parametrize(
    "path, blocks",
    [
        (keyhole_loop(0), [(0, 3, 4, 7)]),
        (composite_loop(2), [(0, 2, 3, 5)]),
        (keyhole_loop(1, corridor_re=0.0), [(0, 2, 3, 5)]),
        (keyhole_loop(-1).reverse(), [(0, 3, 4, 7)]),
        (concat(keyhole_loop(0), keyhole_loop(1, 0.3).reverse()), [(0, 3, 4, 7), (7, 10, 11, 14)]),
        (loop_around(1, 0.5), []),
        (concat(circle_path(-0.5, 0.5), circle_path(-0.5, 0.5, -1)), []),
    ],
    ids=["keyhole", "composite", "corridor-0", "reversed", "word", "circle", "circles"],
)
def test_lasso_blocks(path, blocks):
    # (i0, i, j, j1): the way out segs[i0:i], a closed middle segs[i:j], and
    # segs[j:j1] the way out reversed; a word has one block per letter
    assert _blocks(list(path.segments)) == blocks


def test_winding_zero_control_has_no_block(bundle3):
    # the corridor out and straight back, as homotopy-check's negative
    # control builds it: the middle is empty, so the way home is tracked
    segs = keyhole_loop(0).segments
    control = ParamPath(segs[:3] + segs[4:])
    assert _blocks(list(control.segments)) == []
    end, rep = track_bundle(bundle3, control)
    assert extract_permutation(bundle3, end).is_identity() and rep.legs_reused == 0


def test_guarded_family_calls_do_not_grow_with_steps(bundle5, monkeypatch):
    # the corrector's fused kernel does the per-step work, and the start
    # takes one checked_exp per root: the guarded FAMILY.eval/deriv are
    # not called at all
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
    loop = keyhole_loop(2, 0.5)
    for path in (loop, concat(loop, loop)):
        calls.update(eval=0, deriv=0)
        _, rep = track_bundle(bundle5, path)
        runs.append((rep.steps_accepted, calls["eval"], calls["deriv"]))
    (steps, *guarded), (more_steps, *guarded_more) = runs
    assert (steps, more_steps) == (78, 156)
    assert guarded == guarded_more == [0, 0]


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


@pytest.mark.parametrize("n", [-1, 0, 2])
def test_root_follows_image_segment_line(bundle5, n):
    # on an image segment one label moves along the known z-line exactly,
    # at every step its own certified schedule takes there: the real root
    # on the way out, and the partner it swapped with on the way back,
    # whose way home replays the real root's rows out
    loop = composite_loop(n)
    _, rep = track_bundle(bundle5, loop, record=True)
    rows: dict = {}
    for arc, lab, z, _a, _res in rep.trajectory:
        rows.setdefault(lab, []).append((arc, z))
    checked = 0
    for i, seg in enumerate(loop.segments):
        if seg.kind != "image":
            continue
        d = seg.z1 - seg.z0
        on_line = {}
        for lab, label_rows in rows.items():
            zs = [z for arc, z in label_rows if i <= arc <= i + 1]
            gaps = [abs(seg.z0 + min(1.0, max(0.0, ((z - seg.z0) / d).real)) * d - z) for z in zs]
            if zs and max(gaps) < 1e-10:  # a spanning step can leave no row
                on_line[lab] = len(zs)
        assert len(on_line) == 1
        checked += sum(on_line.values())
    assert checked == {-1: 26, 0: 26, 2: 94}[n]


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
    # the failing root is one of the two that merge at z_0, and named
    pair = sorted(start.entries, key=lambda e: abs(e.z - critical_point(0).z))[:2]
    assert err.label in {e.label for e in pair}
    assert str(err).startswith(f"label {err.label}: ")


@pytest.mark.parametrize("center", [-720.0, -800.0])
def test_far_left_root_tracks(center):
    # |e^z| is subnormal at Re z = -720 and 0 at -800: F / E overflows, and
    # the disc of the lone root is log(F + E) - Re z wide, finite, not NaN
    start = find_roots(center - 0.5, Window(center - 5.0, center + 5.0, -3.0, 3.0))
    end, rep = track_bundle(start, circle_path(center, 0.5, 1))
    assert len(start) == 1 and rep.steps_rejected == 0
    assert abs(end.position(1) - start.position(1)) < 1e-9


def test_far_left_root_keeps_a_finite_disc():
    # in a bundle of two, |e^z| = 0 at the far-left root: its disc is
    # log(F + E) - Re z = 800.5 wide, finite, so the containment test
    # |z' - z| + s <= R keeps its meaning
    start = find_roots(-800.5, Window(-805.0, 10.0, -3.0, 5.0))
    assert len(start) == 2
    far = start.position(1)
    assert far == -800.5
    radius, bound = zero_disc(far, abs(FAMILY.eval(far) - start.a), FAMILY.deriv(far),
                              start.a)[2:]
    assert radius == pytest.approx(800.5, rel=1e-15) and math.isfinite(bound)
    end, rep = track_bundle(start, circle_path(-800.0, 0.5, 1))
    assert (rep.steps_accepted, rep.steps_rejected) == (2, 0)
    assert max(abs(end.position(lab) - start.position(lab)) for lab in (1, 2)) < 1e-9


def test_rejected_step_is_halved_and_retried(bundle3, monkeypatch):
    # a corrector that fails once rejects that step, on the way out; the
    # halved retry costs one more accepted step and lands on the same roots
    loop = keyhole_loop(0, 0.5)
    plain_end, plain = track_bundle(bundle3, loop)
    newton, calls = tracking.newton, []

    def flaky(*args):
        calls.append(args)
        return None if len(calls) == 10 else newton(*args)

    monkeypatch.setattr(tracking, "newton", flaky)
    end, rep = track_bundle(bundle3, loop)
    assert (plain.steps_accepted, plain.steps_rejected, plain.legs_reused) == (34, 0, 3)
    assert (rep.steps_accepted, rep.steps_rejected, rep.legs_reused) == (35, 1, 3)
    assert extract_permutation(bundle3, end) == extract_permutation(bundle3, plain_end)
    assert end.positions() == plain_end.positions()


def test_constant_segment_moves_nothing():
    start = find_roots(critical_value(0) - 0.5, W3)
    end, rep = track_bundle(start, loop_around(0, 0.5, turns=0))
    assert (rep.steps_accepted, rep.steps_rejected) == (0, 0)
    assert end == start and end.positions() == start.positions()


def test_start_residual_too_large_refused(bundle3):
    moved = LabeledRootSet(bundle3.a, tuple(RootEntry(e.label, e.z + 1e-6) for e in bundle3))
    with pytest.raises(PreconditionError, match="starts with residual"):
        track_bundle(moved, keyhole_loop(0, 0.5))


def test_start_roots_too_close_refused():
    # the two roots next to z_0 at a_0 + d are 2 sqrt(2 d) = 2.8e-4 apart: past
    # NEAR_MERGE_RADIUS, so not flagged, but under NEAR_CRITICAL_RADIUS
    a = critical_value(0) + 1e-8
    pair = oracle_roots(a, range(-2, 2), window=Window(-1.0, 1.0, 2.0, 4.0))
    assert len(pair) == 2 and not pair.has_near_merge()
    p, q = pair.positions()
    assert abs(p - q) == pytest.approx(2.0 * math.sqrt(2e-8), rel=1e-4)
    with pytest.raises(PreconditionError, match=f"bundle separation {abs(p - q):.3g} below"):
        track_bundle(pair, ParamPath((LineSegment(a, a + 0.1),)))


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
    # rows come label by label, each label's in arc order from 0 to the end
    loop = keyhole_loop(0, 0.5)
    end, rep = track_bundle(bundle3, loop, record=True)
    assert rep.trajectory
    labels_in_order = [lab for i, (_, lab, *_) in enumerate(rep.trajectory)
                       if i == 0 or rep.trajectory[i - 1][1] != lab]
    assert labels_in_order == [e.label for e in bundle3.entries]
    for lab in labels_in_order:
        arcs = [arc for arc, row_lab, *_ in rep.trajectory if row_lab == lab]
        assert arcs[0] == 0.0 and arcs == sorted(arcs) and arcs[-1] == len(loop.segments)
    out = tmp_path / "traj.csv"
    rep.to_csv(str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "arc_param,label,re_z,im_z,re_a,im_a,residual"
    assert len(lines) == 1 + len(rep.trajectory)
    # residual column parses and respects the corrector tolerance
    worst = max(float(l.rsplit(",", 1)[1]) for l in lines[1:])
    assert worst < 1e-11


def test_multiplicity_entries_refused():
    rs = LabeledRootSet(0j, (RootEntry(1, -0.5671432904097838 + 0j, multiplicity=2),))
    with pytest.raises(PreconditionError):
        track_bundle(rs, keyhole_loop(0, 0.5))


def test_start_root_without_a_disc_refused():
    # f' = 0 at the critical point z_0, so zero_disc proves no disc around
    # a root placed there: it is refused before any step, and so on a path
    # that moves nothing
    cp = critical_point(0)
    start = LabeledRootSet(cp.a, (RootEntry(1, cp.z),))
    for end in (cp.a + 0.1, cp.a):
        with pytest.raises(PreconditionError, match="label 1 has no certified one-root disc"):
            track_bundle(start, ParamPath((LineSegment(cp.a, end),)))


_NEAR_CRITICAL = st.builds(
    lambda n, rho, theta: critical_value(n) + cmath.rect(rho, theta),
    st.integers(-4, 4),
    st.floats(1e-6, 1e-2),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=100, deadline=None)
@given(
    a=st.one_of(
        st.builds(complex, st.floats(-4.0, 4.0), st.floats(-30.0, 30.0)),
        _NEAR_CRITICAL,
    ),
    theta=st.floats(0.0, 2.0 * math.pi),
)
@example(a=0j, theta=0.0)
@example(a=critical_value(0) + 1e-6, theta=math.pi)
def test_rouche_disc_holds_one_oracle_root(a, theta):
    # every root z of f = a keeps its disc |w - z| < R when a moves by
    # 0.99 (S(R) - res): the moved equation has exactly one root in it.
    # The roots come from Lambert W, which shares no code with the tracker.
    roots = oracle_roots(a, range(-12, 13), window=Window(-50.0, 50.0, -40.0, 40.0))
    assert len(roots) > 5
    for e in roots.entries:
        radius, bound, res = _rouche(e.z, a)
        assert res < bound and radius < 2.0 * math.pi
        moved = a + cmath.rect(0.99 * (bound - res), theta)
        # a root w in the disc has W = moved - w within 2 pi of moved - z,
        # so within a branch or two of the one holding moved - z
        k0 = round((moved - e.z).imag / (2.0 * math.pi))
        near = oracle_roots(moved, range(k0 - 3, k0 + 4)).entries
        inside = [w.z for w in near if abs(w.z - e.z) < radius]
        assert len(inside) == 1, (e.z, radius, inside)
