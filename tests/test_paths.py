"""Parameter-plane paths: segments, loops, sampling, winding numbers, clearances."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mono import paths
from mono.equation import critical_height, critical_value, nearest_critical, real_root
from mono.errors import PreconditionError
from mono.paths import (
    ArcSegment,
    ImageSegment,
    LineSegment,
    ParamPath,
    circle_path,
    composite_loop,
    concat,
    horizontal_stop,
    keyhole_loop,
    loop_around,
)


def test_segment_endpoints_and_reversal():
    seg = LineSegment(1.0 + 2.0j, -3.0 + 0.5j)
    assert seg.point(0.0) == seg.start
    assert seg.point(1.0) == seg.end
    rev = seg.reversed()
    assert rev.start == seg.end and rev.end == seg.start
    assert rev.point(0.25) == seg.point(0.75)


def test_arc_segment_parametrization():
    arc = ArcSegment(center=1j, radius=2.0, theta0=0.0, theta1=math.pi)
    assert abs(arc.point(0.0) - (2.0 + 1.0j)) < 1e-15
    assert abs(arc.point(0.5) - (1j + 2.0j)) < 1e-15
    assert abs(arc.point(1.0) - (-2.0 + 1.0j)) < 1e-15


def test_image_trace_joints():
    # the two image legs share the z-point x + i y_n, so they join exactly,
    # at 2x + i y_n: x - e^x equals 2x with no rounding slack
    x = real_root()
    v, h = composite_loop(0).segments[:2]
    assert v.end == h.start
    assert abs(h.start - complex(2.0 * x, math.pi)) < 1e-15
    assert abs((x - math.exp(x)) - 2.0 * x) < 1e-16
    seg = ImageSegment(1.0 + 2.0j, -0.5 + 0.25j)
    assert seg.reversed().point(0.25) == seg.point(0.75)
    # f(conj z) = conj f(z): mirrored z-lines map to mirrored images
    mirror = ImageSegment(seg.z0.conjugate(), seg.z1.conjugate())
    assert mirror.point(0.3) == seg.point(0.3).conjugate()


def test_vertical_trace_shape():
    x, y = real_root(), critical_height(1)
    v, h = composite_loop(1).segments[:2]
    # starts at the origin, ends at height (2n+1) pi on the curve
    assert v.start == 0j
    assert abs(v.end.imag - 3.0 * math.pi) < 1e-12
    assert v.end.real < -1.0  # lands left of the critical line
    # both legs are the closed forms a(t) = x(1 - cos t) + i(t - x sin t)
    # and a(s) = s - e^s + i y_n, to an ulp
    s_rho = horizontal_stop(0.5)
    for u in (0.0, 0.3, 0.7, 1.0):
        t, s = u * y, x + u * (s_rho - x)
        assert abs(v.point(u) - complex(x * (1 - math.cos(t)), t - x * math.sin(t))) < 1e-15
        assert abs(h.point(u) - complex(s - math.exp(s), y)) < 1e-15


def test_path_continuity_enforced():
    good = ParamPath((LineSegment(0j, 1.0 + 0j), LineSegment(1.0 + 0j, 1.0 + 1.0j)))
    assert good.start == 0j and good.end == 1.0 + 1.0j
    with pytest.raises(PreconditionError):
        ParamPath((LineSegment(0j, 1.0 + 0j), LineSegment(1.1 + 0j, 2.0 + 0j)))


def test_closed_flag_requires_closure():
    # closure is read off the path's ends, never declared
    out = LineSegment(0j, 1.0 + 0j)
    assert not ParamPath((out,)).closed
    assert ParamPath((out, out.reversed())).closed
    with pytest.raises(TypeError):
        ParamPath((out,), closed=True)


def test_sample_spacing():
    loop = composite_loop(0)
    pts = loop.sample(0.05)
    assert len(pts) > 50
    for p, q in zip(pts, pts[1:]):
        assert abs(q - p) <= 0.05 + 1e-12
    assert pts[0] == loop.start and pts[-1] == loop.end


def test_full_circle_sampling_not_degenerate():
    # a full turn has coincident endpoints; the sampler must not accept the
    # zero-length chord and return two points
    circ = circle_path(critical_value(0), 0.5, 1)
    pts = circ.sample(0.05)
    assert len(pts) > 60
    assert circ.winding_number(critical_value(0)) == 1


def test_winding_numbers():
    a1 = critical_value(1)
    loop = composite_loop(1)
    assert loop.winding_number(a1) == 1
    assert loop.winding_number(critical_value(0)) == 0
    assert loop.winding_number(critical_value(2)) == 0
    assert loop.reverse().winding_number(a1) == -1
    two = loop_around(1, 0.3, turns=2)
    assert two.winding_number(a1) == 2


def test_winding_rejects_point_on_path():
    circ = circle_path(0j, 1.0, 1)
    with pytest.raises(PreconditionError):
        circ.winding_number(1.0 + 0j)
    with pytest.raises(PreconditionError):
        ParamPath((LineSegment(0j, 1.0),)).winding_number(5.0 + 0j)  # not closed


def test_conjugate_mirrors_loop():
    # composite_loop(-n - 1) is composite_loop(n) reflected through the real
    # axis; the reflection would reverse the circle, so it runs backwards
    for n in range(3):
        loop, mirror = composite_loop(n), composite_loop(-n - 1)
        m = -n - 1
        assert mirror.encircles == (m, 0.5)
        assert abs(critical_value(m) - critical_value(n).conjugate()) < 1e-15
        assert mirror.start == loop.start
        for seg, seg_m in zip(loop.segments, mirror.segments):
            assert seg.kind == seg_m.kind
            for t in (0.0, 0.2, 0.5, 0.9, 1.0):
                if seg.kind == "arc":
                    want = seg.point(1.0 - t).conjugate()
                else:
                    want = seg.point(t).conjugate()
                assert abs(seg_m.point(t) - want) < 1e-13
        assert mirror.winding_number(critical_value(m)) == 1


def test_concat_and_reverse_round_trip():
    p = concat(
        ParamPath((LineSegment(0j, 1.0 + 1.0j),)),
        ParamPath((LineSegment(1.0 + 1.0j, 2.0 + 0j),)),
    )
    assert p.start == 0j and p.end == 2.0 + 0j
    back = concat(p, p.reverse())
    assert back.closed or abs(back.start - back.end) == 0.0


def _clearance(loop) -> float:
    """Distance from the sampled loop to the critical values other than
    the one it encircles."""
    skip = loop.encircles[0]
    best = math.inf
    for p in loop.sample(0.02):
        n, d = nearest_critical(p)
        if n == skip:
            d = min(abs(p - critical_value(m)) for m in (n - 1, n + 1))
        best = min(best, d)
    return best


def test_composite_loop_structure():
    for n in (-1, 0, 2):
        loop = composite_loop(n)
        assert loop.closed
        assert loop.start == 0j
        assert loop.encircles == (n, 0.5)
        assert loop.winding_number(critical_value(n)) == 1
        assert _clearance(loop) >= 0.1


def test_keyhole_loop_structure():
    for n in (-1, 0, 1, 2):
        loop = keyhole_loop(n, 0.5)
        assert loop.closed and loop.start == 0j
        assert loop.winding_number(critical_value(n)) == 1
        for m in (n - 1, n + 1):
            assert loop.winding_number(critical_value(m)) == 0
        assert _clearance(loop) >= 1.0  # corridor at re = -2 stays a unit from the lattice


def test_keyhole_corridor_validation():
    with pytest.raises(PreconditionError):
        keyhole_loop(0, 0.5, corridor_re=-1.0)  # corridor through the lattice line
    with pytest.raises(PreconditionError):
        keyhole_loop(0, 0.5, corridor_re=-1.3)  # circle would cross the corridor


def test_turn_count_that_cannot_close_refused():
    # pi + 2 pi turns rounds off: at 20,000 turns the circle of radius 0.5
    # misses its start by 3.5e-12, beyond CONTINUITY_TOL
    assert loop_around(0, 0.5, 10_000).closed
    for build in (lambda t: loop_around(0, 0.5, t), lambda t: circle_path(0j, 0.5, t)):
        with pytest.raises(PreconditionError, match="radius 0.5 with turns = 20000 cannot close"):
            build(20_000)


def test_loop_radius_bounds():
    with pytest.raises(PreconditionError):
        loop_around(0, 0.01)
    with pytest.raises(PreconditionError):
        loop_around(0, 4.0)  # would swallow the neighboring critical value


# pieces that curve away from their chords: a full turn of the image of
# a vertical line (a circle of radius e^2 drifting upward) and an arc of
# nearly a full turn
_CURVED = (ImageSegment(2.0 + 0j, 2.0 + 2j * math.pi), ArcSegment(0j, 1.0, 0.0, 1.9 * math.pi))


def _pieces():
    x = real_root()
    y2 = critical_height(2)
    segments = [
        LineSegment(-2.0 + 0j, -2.0 + 1j * y2),
        ArcSegment(critical_value(1), 0.5, math.pi, 3.0 * math.pi),
        ArcSegment(0j, 2.0, 0.0, -5.0),
        # the legs of composite_loop(2), and a z-line with a larger re z
        ImageSegment(complex(x, 0.0), complex(x, y2)),
        ImageSegment(complex(x, y2), complex(horizontal_stop(0.5), y2)),
        ImageSegment(1.5 - 2.0j, -1.0 + 4.0j),
        *_CURVED,
    ]
    spans = [(0.0, 1.0), (0.1, 0.45), (0.3, 0.31), (0.62, 0.2), (0.0, 0.07)]
    return [(seg, t0, t1) for seg in segments for t0, t1 in spans]


def _sampled_sup(seg, t0, t1):
    pts = np.array([seg.point(t) for t in np.linspace(t0, t1, 400)])
    return np.abs(pts[:, None] - pts[None, :]).max()


@pytest.mark.parametrize("seg, t0, t1", _pieces())
def test_reach_bounds_every_distance_within_the_piece(seg, t0, t1):
    # reach bounds sup |a(t) - a(u)| over the whole piece, which a dense
    # sample approaches from below
    assert _sampled_sup(seg, t0, t1) <= seg.reach(t0, t1) * (1.0 + 1e-12)


@pytest.mark.parametrize("seg", _CURVED, ids=["image", "arc"])
def test_chord_is_no_reach(seg):
    # on these pieces the chord falls well short of the sup, so a reach
    # that returned the chord would fail the test above
    assert _sampled_sup(seg, 0.0, 1.0) > 1.5 * abs(seg.end - seg.start)


def _dense_sup(seg, t0, t1):
    """_sampled_sup, on an arc also over each sample's antipode on the
    piece, where the sup of a piece longer than a half turn sits."""
    ts = np.linspace(min(t0, t1), max(t0, t1), 201)
    if seg.kind == "arc":
        half = math.pi / abs(seg.theta1 - seg.theta0)
        ts = np.concatenate([ts, ts[ts + half <= ts[-1]] + half])
    pts = np.array([seg.point(t) for t in ts])
    return np.abs(pts[:, None] - pts[None, :]).max()


_point = st.complex_numbers(max_magnitude=10.0)


@settings(max_examples=100, deadline=None)
@given(
    seg=st.one_of(
        st.builds(LineSegment, _point, _point),
        st.builds(ArcSegment, _point, st.floats(0.1, 3.0), st.floats(-7.0, 7.0), st.floats(-20.0, 20.0)),
    ),
    t0=st.floats(0.0, 1.0),
    t1=st.floats(0.0, 1.0),
)
def test_closed_form_reach_is_the_sup(seg, t0, t1):
    # lines and arcs give their sup in closed form, with no point on the
    # piece evaluated; pieces long enough that rounding in the sampled
    # points stays below a relative 1e-12
    sweep = abs(seg.z1 - seg.z0) if seg.kind == "line" else abs(seg.theta1 - seg.theta0)
    assume(abs(t1 - t0) * sweep >= 0.1)
    assert seg.reach(t0, t1) == pytest.approx(_dense_sup(seg, t0, t1), rel=1e-12)


_loops = st.one_of(
    st.builds(
        keyhole_loop, st.integers(-2, 2), st.sampled_from([0.1, 0.5, 0.9]),
        corridor_re=st.sampled_from([-2.0, 0.5]),
    ),
    st.builds(composite_loop, st.integers(-2, 2), st.sampled_from([0.1, 0.5, 1.0])),
)


@settings(max_examples=100, deadline=None)
@given(path=st.one_of(_loops, st.builds(concat, _loops, _loops)), data=st.data())
def test_reaches_add_across_joints(path, data):
    # a tracking step that runs on through whole segments stays within the
    # summed reaches of its pieces plus the gaps at their joints
    segs = path.segments
    k = data.draw(st.integers(0, len(segs) - 2), label="first")
    m = data.draw(st.integers(2, min(4, len(segs) - k)), label="segments")
    u0, u1 = data.draw(st.floats(0.0, 1.0), label="u0"), data.draw(st.floats(0.0, 1.0), label="u1")
    run = segs[k:k + m]
    pieces = [(run[0], u0, 1.0), *((seg, 0.0, 1.0) for seg in run[1:-1]), (run[-1], 0.0, u1)]
    bound = sum(seg.reach(t0, t1) for seg, t0, t1 in pieces)
    bound += sum(abs(s1.point(0.0) - s0.point(1.0)) for s0, s1 in zip(run, run[1:]))
    pts = np.array([seg.point(t) for seg, t0, t1 in pieces for t in np.linspace(t0, t1, 200)])
    assert np.abs(pts - run[0].point(u0)).max() <= bound * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    center=st.complex_numbers(max_magnitude=10.0),
    rho=st.floats(0.1, 3.0),
    turns=st.integers(-3, 3),
    angle=st.floats(-math.pi, math.pi),
    offset=st.one_of(st.floats(-2e-6, 2e-6), st.floats(-3.0, 10.0)),
)
def test_circle_winding_is_turns_inside_and_zero_outside(center, rho, turns, angle, offset):
    # a point at least 1e-6 off the circle, often within 2e-6 of it
    r = rho + offset
    assume(abs(offset) >= 1e-6 and r >= 0.0)
    point = center + r * complex(math.cos(angle), math.sin(angle))
    assert circle_path(center, rho, turns).winding_number(point) == (turns if offset < 0 else 0)


_arcs = st.builds(
    lambda c, r, th, turns: ArcSegment(c, r, th, th + 2.0 * math.pi * turns),
    st.complex_numbers(max_magnitude=10.0),
    st.floats(0.1, 3.0),
    st.floats(-math.pi, math.pi),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
)
_z = st.builds(complex, st.floats(-3.0, 2.0), st.floats(-20.0, 20.0))


@settings(max_examples=100, deadline=None)
@given(
    seg=st.one_of(_arcs, st.builds(ImageSegment, _z, _z)),
    max_step=st.floats(0.02, 0.5),
)
def test_sample_spacing_and_cover(seg, max_step):
    # full and multi-turn arcs return to their start, and image segments
    # stray from their chords: spacing and cover follow from reach alone
    pts = ParamPath((seg,)).sample(max_step)
    assert pts[0] == seg.start and pts[-1] == seg.end
    assert max(abs(q - p) for p, q in zip(pts, pts[1:])) <= max_step * (1.0 + 1e-12)
    ps = np.array(pts)
    for t in np.linspace(0.0, 1.0, 101):
        assert np.abs(ps - seg.point(t)).min() <= max_step * (1.0 + 1e-12)


def _count_pieces(monkeypatch):
    """Wrap paths._bisect; returns the list of pieces it yields."""
    pieces = []
    bisect = paths._bisect

    def counted(fits):
        for piece in bisect(fits):
            pieces.append(piece)
            yield piece

    monkeypatch.setattr(paths, "_bisect", counted)
    return pieces


@pytest.mark.parametrize(
    "build, n, count",
    [
        *[(composite_loop, n, c) for n, c in zip(range(-1, 3), (30, 30, 34, 35))],
        *[(keyhole_loop, n, c) for n, c in zip(range(-1, 3), (17, 17, 19, 19))],
        (lambda n: keyhole_loop(n, corridor_re=0.5), 2, 20),
    ],
    ids=[f"composite{n}" for n in range(-1, 3)] + [f"keyhole{n}" for n in range(-1, 3)] + ["right2"],
)
def test_winding_work(monkeypatch, build, n, count):
    # certified pieces per winding number of a group-w5 loop around its
    # a_n, a machine-independent cost
    loop = build(n)
    pieces = _count_pieces(monkeypatch)
    assert loop.winding_number(critical_value(n)) == 1
    assert len(pieces) == count
