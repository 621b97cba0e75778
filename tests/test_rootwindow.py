"""Contour counting and certified root location in rectangles."""

import cmath
import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mono import rootwindow
from mono.equation import FAMILY, critical_point, critical_value, real_root
from mono.errors import (
    BoundaryTooCloseError,
    PreconditionError,
    ResidualTooLargeError,
    SubdivisionError,
)
from mono.lambertw import lambert_w, oracle_roots
from mono.rootsets import Window, match_positions, min_separation
from mono.rootwindow import count_roots, find_roots


def test_count_basic_windows():
    assert count_roots(0j, Window(-5.0, 5.0, -6.0, 6.0)) == 3
    assert count_roots(0j, Window(-5.0, 5.0, -6.0, 12.0)) == 4
    assert count_roots(0j, Window(-5.0, 5.0, -6.0, 18.0)) == 5
    assert count_roots(0j, Window(-5.0, 5.0, 1.0, 3.0)) == 0


def test_count_empty_far_window():
    assert count_roots(2.0 + 1.0j, Window(10.0, 12.0, 50.0, 52.0)) == 0


def test_count_single_root_cell():
    x = real_root()
    assert count_roots(0j, Window(x - 0.25, x + 0.25, -0.25, 0.25)) == 1


def test_count_root_near_boundary():
    # left edge passes within 1e-12 of the real root.  The strict counter
    # refuses (counting there is meaningless), while find_roots recovers by
    # nudging the window outward and reports against the effective window.
    x = real_root()
    w = Window(x - 1e-12, x + 1.0, -0.5, 0.5)
    with pytest.raises(BoundaryTooCloseError):
        count_roots(0j, w)
    found = find_roots(0j, w)
    assert len(found) == 1
    assert abs(found.position(1) - x) < 1e-12
    assert found.window is not None and found.window.re_min < x - 1e-4


def test_count_matches_oracle_many():
    a, w = 0.4 - 0.2j, Window(-4.0, 4.0, -9.0, 9.0)
    assert count_roots(a, w) == len(oracle_roots(a, range(-4, 5), window=w)) == 3


def test_find_roots_matches_oracle_at_zero():
    w = Window(-5.0, 5.0, -6.0, 18.0)
    found = find_roots(0j, w)
    ref = oracle_roots(0j, range(-6, 7), window=w)
    assert found.labels() == ref.labels()
    _, worst = match_positions(found.positions(), ref.positions(), 1e-9)
    assert worst < 1e-10


def test_find_roots_example_window():
    # one root of z + e^z = 2 + 2.5i inside [-1,1] x [2,4]
    a = 2.0 + 2.5j
    w = Window(-1.0, 1.0, 2.0, 4.0)
    ref = oracle_roots(a, range(-4, 5), window=w)
    found = find_roots(a, w)
    match_positions(found.positions(), ref.positions(), 1e-9)


def test_find_roots_residuals_tight():
    found = find_roots(1.0 - 0.7j, Window(-5.0, 5.0, -12.0, 12.0))
    for e in found.entries:
        assert abs(FAMILY.eval(e.z) - (1.0 - 0.7j)) < 1e-11


def test_near_critical_pair_resolved():
    # a slightly off a_0: the two nearly merged roots must come out as two
    # distinct labeled roots, not a multiplicity-2 cluster
    a = critical_value(0) + (0.01 + 0.01j)
    found = find_roots(a, Window(-2.0, 2.0, 1.0, 5.0))
    assert len(found) == 2
    assert not found.has_near_merge()
    gap = min_separation(found.positions())
    assert 0.1 < gap < 0.5  # ~ 2 sqrt(2 |da|)
    zc = critical_point(0).z
    assert all(abs(z - zc) < 0.5 for z in found.positions())


def test_cluster_at_critical_value_flagged():
    # at the floating-point rendering of a_0 itself the pair cannot be
    # separated reliably; the result must carry a near-merge flag
    a = critical_value(0)
    found = find_roots(a, Window(-1.0, 1.0, 2.0, 4.0))
    assert found.total_multiplicity() == 2
    assert found.has_near_merge()
    zc = critical_point(0).z
    assert all(abs(z - zc) < 1e-4 for z in found.positions())


@pytest.mark.parametrize(
    "n, window, count",
    [
        (0, Window(-5.0, 5.0, -60.0, 60.0), 19),
        (0, Window(-5.0, 5.0, -6.0, 18.0), 5),
        (1, Window(-1.0, 2.0, -190.0, 210.0), 2),
    ],
    ids=["W19", "W5", "tall"],
)
def test_pair_at_critical_value_is_one_double_entry(n, window, count):
    # at a = a_n a cut can isolate the merging pair as two "simple" roots
    # about 1.4e-6 apart (W19, W5), or no cut splits it (the tall window):
    # either way the result is the one double entry at exactly z_n
    found = find_roots(critical_value(n), window)
    assert (len(found), found.total_multiplicity()) == (count - 1, count)
    (double,) = [e for e in found.entries if e.multiplicity > 1]
    assert (double.z, double.multiplicity) == (critical_point(n).z, 2)
    assert found.near_merge_pairs == ()


def test_find_roots_rejects_silly_window():
    with pytest.raises(PreconditionError):
        find_roots(0j, Window(-1.0, 1.0, -1.0, math.inf))


def test_count_deterministic():
    w = Window(-3.0, 3.0, -4.0, 8.0)
    a = -0.3 + 0.9j
    assert count_roots(a, w) == count_roots(a, w)


# -- the boundary ring: refusal and work counts ---------------------------


def _count_samples(monkeypatch):
    """Wrap the ring sampler; returns the list of batch sizes it evaluates."""
    batches = []
    sampler = rootwindow._ring_samples

    def counted(z, a):
        batches.append(z.size)
        return sampler(z, a)

    monkeypatch.setattr(rootwindow, "_ring_samples", counted)
    return batches


def test_edge_through_root_refused(monkeypatch):
    # the bottom edge Im z = 0 runs through the real root of z + e^z = 0:
    # the two pieces around it fail down to the finest spacing, and Newton
    # from them names the root
    batches = _count_samples(monkeypatch)
    with pytest.raises(BoundaryTooCloseError) as ei:
        count_roots(0j, Window(-1.0, 1.0, 0.0, 1.0))
    assert batches == [260] + [2 * 7] * rootwindow._CUTS
    assert abs(ei.value.location - real_root()) < 1e-12
    assert ei.value.clearance < 1e-12


def test_edge_root_between_samples_counted(monkeypatch):
    # 5.0058 - 149.19i lies 0.0058 inside the edge Re z = 5, under its
    # finest spacing 4000 / 2^18 = 0.015, but no finest piece's end disc
    # reaches it: the contour is certified, and the count is the oracle's
    batches = _count_samples(monkeypatch)
    w = Window(-5.0, 5.0, -2000.0, 2000.0)
    assert count_roots(0j, w) == len(oracle_roots(0j, range(-64, 65), window=w)) == 47
    assert batches == [260, 896, 3584, 840, 56]


def test_edge_cover_work_is_bounded(monkeypatch):
    # on the edge Re z = 5, 2e6 long, discs fail wherever e^z dominates f:
    # the third cut fails 8,192 pieces, more than _COVER_MAX, so the count
    # ends there, and a root within one spacing of that edge is still
    # found, here the real root
    batches = _count_samples(monkeypatch)
    with pytest.raises(BoundaryTooCloseError) as ei:
        count_roots(0j, Window(-5.0, 5.0, -1e6, 1e6))
    assert abs(ei.value.location - real_root()) < 1e-12
    assert ei.value.clearance < 2e6 / rootwindow._FINEST
    assert batches == [260, 7 * 128, 7 * rootwindow._COVER_MAX]


def test_exclusion_discs_past_exp_range_are_not_cleared():
    # the first edge discs and the first cells of this window are wider
    # than 710, where e^r overflows: they fail the test instead of raising
    a, w = 0.3 + 0.2j, Window(-1e5, 5.0, -3.0, 3.0)
    assert count_roots(a, w) == 1
    _assert_matches_oracle(a, w)


@pytest.mark.parametrize("offset, expected", [(1e-3, 1), (-1e-3, 0)])
def test_root_resolvably_close_to_edge_counted(offset, expected):
    # the real root 1e-3 inside (or outside) the left edge of a unit window
    x = real_root()
    assert count_roots(0j, Window(x - offset, x - offset + 1.0, -0.5, 0.5)) == expected


def test_root_off_a_corner_counted(monkeypatch):
    # the real root lies 0.85 finest spacings diagonally outside the lower
    # left corner: the corner pieces fail down to the finest spacing,
    # whose end discs miss it, and the count is the oracle's 0
    s = 1.0 / rootwindow._FINEST
    x = real_root() + 0.6 * s
    w = Window(x, x + 1.0, 0.6 * s, 1.0)
    batches = _count_samples(monkeypatch)
    assert count_roots(0j, w) == len(oracle_roots(0j, range(-3, 4), window=w)) == 0
    assert batches == [260] + [2 * 7] * rootwindow._CUTS


def _edge_distances(z, w):
    """Distance from z to each edge of w, with each edge's finest spacing."""
    finest = rootwindow._FINEST
    corners = w.corners()
    out = []
    for c, d in zip(corners, corners[1:] + corners[:1]):
        d -= c
        t = min(max(((z - c) * d.conjugate()).real / abs(d) ** 2, 0.0), 1.0)
        out.append((abs(z - (c + t * d)), abs(d) / finest))
    return out


@settings(max_examples=60, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=3.0),
    branch=st.integers(-40, 40),
    side=st.sampled_from(["left", "right", "bottom", "top"]),
    log_length=st.floats(0.0, math.log10(4000.0)),
    spacings=st.floats(0.5, 4.0),
    inside=st.booleans(),
    aspect=st.floats(0.1, 1.0),
    frac=st.floats(0.1, 0.9),
)
def test_root_near_long_edge_counted_or_refused(
    a, branch, side, log_length, spacings, inside, aspect, frac
):
    # one edge passes 0.5 to 4 of its finest spacings from an oracle root,
    # inside or outside the window: the count is right, or the contour is
    # refused naming a root within one finest spacing of an edge (the
    # refusal distance).  Edges run 1 to 4000 long, vertical ones to 790,
    # so that |Im z| <= 395 keeps every root on the oracle's branches
    r = a - lambert_w(cmath.exp(a), branch)
    length = 10.0**log_length
    if side in ("left", "right"):
        length = min(length, 790.0)
    off = spacings * length / rootwindow._FINEST
    off = off if inside else -off
    other = aspect * min(length, 300.0)
    if side in ("left", "right"):
        lo = min(max(r.imag - frac * length, -395.0), 395.0 - length)
        if side == "left":
            w = Window(r.real - off, min(r.real - off + other, 20.0), lo, lo + length)
        else:
            w = Window(r.real + off - other, r.real + off, lo, lo + length)
    else:
        # the window stays left of Re z = 20, where e^z is tame
        lo = min(r.real - frac * length, 20.0 - length)
        if side == "bottom":
            w = Window(lo, lo + length, r.imag - off, min(r.imag - off + other, 395.0))
        else:
            w = Window(lo, lo + length, max(r.imag + off - other, -395.0), r.imag + off)
    roots = oracle_roots(a, range(-64, 65)).positions()
    # the outcome only: a failing example must not keep count_roots' frames,
    # whose refined rings reach 1e6 samples, alive through its traceback
    try:
        count, refused = count_roots(a, w), None
    except BoundaryTooCloseError as exc:
        count, refused = None, exc.location
    except ResidualTooLargeError:
        count, refused = "refinement exhausted", None
    if refused is None:
        assert count == sum(w.contains(z) for z in roots)
    else:
        assert any(abs(z - refused) < 1e-9 for z in roots)
        assert any(dist < finest for dist, finest in _edge_distances(refused, w))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["plain", "elongated", "near-critical", "near-edge"]),
    a=st.complex_numbers(max_magnitude=3.0),
    n=st.integers(-20, 20),
    log_dist=st.floats(-12.0, -3.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    short=st.floats(0.5, 6.0),
    aspect=st.floats(1.0, 40.0),
    tall=st.booleans(),
    fx=st.floats(0.0, 1.0),
    fy=st.floats(0.0, 1.0),
    side=st.sampled_from(["left", "right", "bottom", "top"]),
    spacings=st.floats(0.5, 4.0),
    inside=st.booleans(),
)
def test_count_matches_oracle_or_refuses(
    kind, a, n, log_dist, angle, short, aspect, tall, fx, fy, side, spacings, inside
):
    # count_roots gives the oracle's count, or refuses naming an oracle
    # root within one finest spacing of an edge.  Plain windows have
    # aspect up to 2, elongated ones up to 40.  Near-critical windows hold
    # z_n, with |a - a_n| from 1e-12 to 1e-3, at least 5% of a side inside:
    # a pair straddling an edge within a finest spacing has |f'| under the
    # refusal floor and is left to find_roots' cluster fallback.  Near-edge
    # windows have one edge 0.5 to 4 finest spacings inside or outside the
    # root on branch n.  All stay within |Im z| <= 395, the oracle's reach
    width, height = short, short * min(aspect, 2.0)
    if kind == "elongated":
        width, height = (short, short * aspect) if tall else (short * aspect, short)
    if kind == "near-critical":
        a = critical_value(n) + cmath.rect(10.0**log_dist, angle)
        p, fx, fy = critical_point(n).z, 0.05 + 0.9 * fx, 0.05 + 0.9 * fy
    elif kind == "near-edge":
        p = a - lambert_w(cmath.exp(a), n)
    else:
        p = complex(-10.0 + 15.0 * fx, -250.0 + 500.0 * fy)
    re_min, im_min = p.real - fx * width, p.imag - fy * height
    re_max, im_max = re_min + width, im_min + height
    if kind == "near-edge":
        length = height if side in ("left", "right") else width
        off = spacings * length / rootwindow._FINEST * (1.0 if inside else -1.0)
        if side == "left":
            re_min, re_max = p.real - off, p.real - off + width
        elif side == "right":
            re_min, re_max = p.real + off - width, p.real + off
        elif side == "bottom":
            im_min, im_max = p.imag - off, p.imag - off + height
        else:
            im_min, im_max = p.imag + off - height, p.imag + off
    w = Window(re_min, min(re_max, 20.0), max(im_min, -395.0), min(im_max, 395.0))
    roots = oracle_roots(a, range(-64, 65)).positions()
    # the outcome only, as in test_root_near_long_edge_counted_or_refused
    try:
        count, refused = count_roots(a, w), None
    except BoundaryTooCloseError as exc:
        count, refused = None, exc.location
    except ResidualTooLargeError:
        count, refused = "refinement exhausted", None
    if refused is None:
        assert count == sum(w.contains(z) for z in roots)
    else:
        finest = max(w.width, w.height) / rootwindow._FINEST
        assert any(abs(z - refused) < finest for z in roots)
        assert any(dist < spacing for dist, spacing in _edge_distances(refused, w))


def test_nineteen_root_bundle_boundary_work(monkeypatch):
    # before the ring was refined in place and edge roots refused, this
    # call evaluated 2,812,540 boundary samples
    batches = _count_samples(monkeypatch)
    found = find_roots(0j, Window(-5.0, 5.0, -60.0, 60.0))
    assert len(found) == 19
    assert sum(batches) <= 2_812_540 // 5


def _count_calls(monkeypatch):
    """Wrap count_roots; returns the list of windows it is called on."""
    windows = []
    counter = rootwindow.count_roots

    def counted(a, w):
        windows.append(w)
        return counter(a, w)

    monkeypatch.setattr(rootwindow, "count_roots", counted)
    return windows


@pytest.mark.parametrize(
    "window, roots, calls, cleared, samples",
    [
        (Window(-5.0, 5.0, -60.0, 60.0), 19, 45, 15, (54, 12_260)),
        (Window(-5.0, 5.0, -6.0, 18.0), 5, 10, 2, (14, 2_656)),
    ],
    ids=["W19", "W5"],
)
def test_subdivision_work(monkeypatch, window, roots, calls, cleared, samples):
    # contours counted per find_roots, a machine-independent cost.  The
    # exclusion test clears 15 (2) of the 59 (11) child cells it is asked
    # about, without a contour; counting every child took 60 (12)
    # contours, and quartering every cell as well took 78 (13).  The
    # contours evaluate 12,260 (2,656) boundary samples in 54 (14)
    # batches; the trapezoid rule with doubling took 13,568 (2,560) in 51 (10)
    windows = _count_calls(monkeypatch)
    batches = _count_samples(monkeypatch)
    verdicts = []
    test = rootwindow._cell_excluded
    monkeypatch.setattr(
        rootwindow, "_cell_excluded", lambda w, a: verdicts.append(test(w, a)) or verdicts[-1]
    )
    assert len(find_roots(0j, window)) == roots
    assert (len(windows), sum(verdicts)) == (calls, cleared)
    assert (len(batches), sum(batches)) == samples


def test_elongated_cell_halved_across_long_side(monkeypatch):
    # 10 x 120 is halved across Im.  The centred cut Im z = 0 runs through
    # the real root, so its lower half is refused and the next ladder rung
    # cuts 0.033 * 120 higher.
    windows = _count_calls(monkeypatch)
    find_roots(0j, Window(-5.0, 5.0, -60.0, 60.0))
    assert [(w.re_min, w.re_max, w.im_min, w.im_max) for w in windows[1:4]] == [
        (-5.0, 5.0, -60.0, 0.0),
        (-5.0, 5.0, -60.0, 3.96),
        (-5.0, 5.0, 3.96, 60.0),
    ]


def test_cluster_fallback_within_depth_limit(monkeypatch):
    # at a = a_1 the two roots meet at z_1.  Every cut within about 4.5e-5
    # of z_1 is refused for clearance, so the cell holding z_1 stops
    # splitting 22 levels down this 3 x 400 window and is recorded as one
    # double entry at exactly z_1, well inside the depth limit
    a, w = critical_value(1), Window(-1.0, 2.0, -190.0, 210.0)
    limit = rootwindow._MAX_DEPTH
    monkeypatch.setattr(rootwindow, "_MAX_DEPTH", 22)
    (entry,) = find_roots(a, w).entries
    assert entry.z == critical_point(1).z and entry.multiplicity == 2
    monkeypatch.setattr(rootwindow, "_MAX_DEPTH", 21)
    with pytest.raises(SubdivisionError, match="depth 22 exceeded"):
        find_roots(a, w)
    assert 22 + 20 <= limit


def test_unsplittable_cell_away_from_critical_value_still_raises(monkeypatch):
    # the fallback needs |a - a_n| <= 1e-6: a simple root whose cell can
    # never be split is no cluster
    monkeypatch.setattr(rootwindow, "_SPLIT_OFFSETS", ())
    with pytest.raises(SubdivisionError, match="additive counts"):
        find_roots(critical_value(1) + 1e-3, Window(-1.0, 2.0, 8.0, 11.0))


def test_newton_seed_past_exp_range_did_not_stick():
    # the cell's centre sits 1e-3 right of z_0 = pi i, where f' ~ -1e-3:
    # Newton from it jumps to Re z ~ 1000 and would overflow e^z.  That seed
    # finds nothing; a quarter-point seed still finds the cell's one root.
    a = complex(-2.0, math.pi)
    w = Window(-1.2 + 1e-3, 1.2 + 1e-3, math.pi - 0.5, math.pi + 0.5)
    (root,) = [z for z in oracle_roots(a, range(-3, 4)).positions() if w.contains(z)]
    assert abs(rootwindow._solve_isolated(w, a) - root) < 1e-12


# -- properties: find_roots against the oracle on edge cases --------------

BRANCHES = range(-8, 9)


def _assert_matches_oracle(a, window, tol=1e-9):
    found = find_roots(a, window)
    ref = oracle_roots(a, BRANCHES, window=found.window)
    assert found.labels() == ref.labels()
    match_positions(found.positions(), ref.positions(), tol)
    return found


@settings(max_examples=100)
@given(a=st.floats(-4.0, 4.0))
def test_real_parameter_matches_oracle(a):
    # the first horizontal split line Im z = 0 carries the real root
    found = _assert_matches_oracle(complex(a, 0.0), Window(-5.0, 5.0, -6.0, 6.0))
    assert len(found) == 3


@settings(max_examples=60)
@given(
    n=st.integers(-1, 1),
    log_dist=st.floats(-6.0, -3.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    shift_re=st.floats(-1.0, 1.0),
    shift_im=st.floats(-1.0, 1.0),
)
def test_near_critical_value_matches_oracle(n, log_dist, angle, shift_re, shift_im):
    # |a - a_n| between 1e-6 and 1e-3: the pair near z_n is ~2 sqrt(2 |a - a_n|)
    # apart, far above the cluster scale.  With no shift the split lines
    # through z_n pass between the two roots; positions are good to
    # ~1e-12 / |f'|
    a = critical_value(n) + cmath.rect(10.0**log_dist, angle)
    c = critical_point(n).z + complex(shift_re, shift_im)
    w = Window(c.real - 2.0, c.real + 2.0, c.imag - 2.0, c.imag + 2.0)
    found = _assert_matches_oracle(a, w, tol=1e-8)
    assert len(found) == 2
    assert not found.has_near_merge()


@settings(max_examples=150)
@given(
    a=st.complex_numbers(max_magnitude=3.0),
    branch=st.integers(-2, 2),
    where=st.sampled_from(["left", "right", "bottom", "top", "split-re", "split-im"]),
    width=st.floats(0.5, 6.0),
    height=st.floats(0.5, 6.0),
    frac=st.floats(0.1, 0.9),
)
def test_window_edge_through_root_matches_oracle(a, branch, where, width, height, frac):
    # an edge, or the first split line, of the window runs exactly through
    # the oracle root on one branch
    r = a - lambert_w(cmath.exp(a), branch)
    lo_re, lo_im = r.real - frac * width, r.imag - frac * height
    bounds = {
        "left": (r.real, r.real + width, lo_im, lo_im + height),
        "right": (r.real - width, r.real, lo_im, lo_im + height),
        "bottom": (lo_re, lo_re + width, r.imag, r.imag + height),
        "top": (lo_re, lo_re + width, r.imag - height, r.imag),
        "split-re": (r.real - width / 2, r.real + width / 2, lo_im, lo_im + height),
        "split-im": (lo_re, lo_re + width, r.imag - height / 2, r.imag + height / 2),
    }[where]
    found = _assert_matches_oracle(a, Window(*bounds))
    assert any(abs(z - r) < 1e-9 for z in found.positions())


@settings(max_examples=150)
@given(
    a=st.complex_numbers(max_magnitude=3.0),
    re_min=st.floats(-5.0, 0.0),
    im_min=st.floats(-15.0, 0.0),
    width=st.floats(1.0, 8.0),
    height=st.floats(1.0, 20.0),
    fx=st.floats(0.05, 0.95),
    fy=st.floats(0.05, 0.95),
)
def test_count_additive_under_random_split(a, re_min, im_min, width, height, fx, fy):
    w = Window(re_min, re_min + width, im_min, im_min + height)
    try:
        total = count_roots(a, w)
        parts = [
            count_roots(a, ch)
            for ch in w.split4(re_min + fx * width, im_min + fy * height)
        ]
    except BoundaryTooCloseError:
        reject()  # a contour through a root has no count
    assert sum(parts) == total == len(oracle_roots(a, range(-6, 7), window=w))


@settings(max_examples=150)
@given(
    a=st.complex_numbers(max_magnitude=3.0),
    tall=st.booleans(),
    re_min=st.floats(-5.0, 0.0),
    im_min=st.floats(-15.0, 0.0),
    short=st.floats(0.5, 3.0),
    aspect=st.floats(2.0, 10.0),
    frac=st.floats(0.05, 0.95),
)
def test_count_additive_under_long_side_split(a, tall, re_min, im_min, short, aspect, frac):
    # the halves of an elongated window, cut anywhere across its long side
    width, height = (short, aspect * short) if tall else (aspect * short, short)
    w = Window(re_min, min(re_min + width, 5.0), im_min, im_min + height)
    lo, long_side = (w.im_min, w.height) if w.height > w.width else (w.re_min, w.width)
    try:
        total = count_roots(a, w)
        parts = [count_roots(a, ch) for ch in w.split2(lo + frac * long_side)]
    except BoundaryTooCloseError:
        reject()  # a contour through a root has no count
    assert sum(parts) == total == len(oracle_roots(a, range(-6, 7), window=w))


@settings(max_examples=300)
@given(
    n=st.integers(-20, 20),
    near=st.booleans(),
    log_dist=st.floats(-8.0, -2.0),
    far=st.complex_numbers(max_magnitude=4.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    re=st.floats(-40.0, 5.0),
    im=st.floats(-400.0, 400.0),
    snap=st.floats(0.0, 2.0),
    log_r=st.floats(-6.0, 1.0),
)
def test_exclusion_never_clears_a_root(n, near, log_dist, far, angle, re, im, snap, log_r):
    # a next to a critical value a_n or anywhere in |a| <= 4; the disc of
    # radius r around a point, or around a point within 2r of the root
    # nearest to it, so that many discs hold a root
    a = critical_value(n) + cmath.rect(10.0**log_dist, angle) if near else far
    r = 10.0**log_r
    # branch k holds the root near height Im a - 2 pi k; the disc, even
    # when moved, lies within 8 branches of k0
    k0 = round((a.imag - im) / (2.0 * math.pi))
    if abs(k0) > 56:
        reject()  # the oracle's branches end at |k| = 64
    roots = oracle_roots(a, range(k0 - 8, k0 + 9)).positions()
    m = complex(re, im)
    if snap < 1.0:
        m = min(roots, key=lambda z: abs(z - m)) + cmath.rect(2.0 * snap * r, angle)
    e = cmath.exp(m)
    if rootwindow._excluded(m, m + e - a, e, a, r):
        assert all(abs(z - m) > r for z in roots)
    # the square inscribed in that disc: a cleared cell counts 0 by contour
    s = r / math.sqrt(2.0)
    cell = Window(m.real - s, m.real + s, m.imag - s, m.imag + s)
    if rootwindow._cell_excluded(cell, a):
        assert not any(cell.contains(z) for z in roots)
        try:
            assert count_roots(a, cell) == 0
        except (BoundaryTooCloseError, ResidualTooLargeError):
            pass  # a refused contour has no count


TALL_BRANCHES = range(-50, 51)  # every root with |Im z| <= 300


@settings(max_examples=150)
@given(
    a=st.complex_numbers(max_magnitude=3.0),
    tall=st.booleans(),
    short=st.floats(0.5, 3.0),
    aspect=st.floats(4.0, 40.0),
    fx=st.floats(0.0, 1.0),
    fy=st.floats(0.0, 1.0),
)
def test_elongated_window_matches_oracle(a, tall, short, aspect, fx, fy):
    # tall or flat windows of aspect 4-40 inside -300 <= Im z <= 300,
    # Re z <= 6; anchored by fractions of the room left for them
    if tall:
        width, height = short, aspect * short
        re_min = -10.0 + fx * (16.0 - width)
    else:
        width, height = aspect * short, short
        re_min = 6.0 - width - fx * 10.0
    im_min = -300.0 + fy * (600.0 - height)
    w = Window(re_min, re_min + width, im_min, im_min + height)
    found = find_roots(a, w)
    ref = oracle_roots(a, TALL_BRANCHES, window=found.window)
    assert found.labels() == ref.labels()
    match_positions(found.positions(), ref.positions(), 1e-9)


@settings(max_examples=100)
@given(
    a=st.complex_numbers(max_magnitude=4.0),
    re_min=st.floats(-40.0, -20.0),
    im_min=st.floats(-300.0, 195.0),
    height=st.floats(10.0, 105.0),
)
def test_wide_left_window_matches_oracle(a, re_min, im_min, height):
    # windows reaching far left of the roots: an isolation seed there can
    # send Newton past EXP_RE_MAX, which must count as no hit.  Heights
    # reach |Im z| = 300, where only the rounding floor lets Newton stop.
    w = Window(re_min, 6.0, im_min, im_min + height)
    found = find_roots(a, w)
    ref = oracle_roots(a, TALL_BRANCHES, window=found.window)
    assert found.labels() == ref.labels()
    match_positions(found.positions(), ref.positions(), 1e-9)
