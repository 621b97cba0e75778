"""Windows, labeled root sets, and canonical labeling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono import rootsets
from mono.equation import RESIDUAL_TOL, critical_value
from mono.errors import NumericalError, PreconditionError, UnmatchedRootError
from mono.rootsets import (
    NEAR_MERGE_RADIUS,
    LabeledRootSet,
    RootEntry,
    Window,
    canonical_root_set,
    match_positions,
    min_separation,
)


def test_window_geometry():
    w = Window(-1.0, 3.0, 2.0, 4.0)
    assert w.center == 1.0 + 3.0j
    assert w.width == 4.0 and w.height == 2.0
    assert w.contains(0.0 + 2.5j)
    assert not w.contains(0.0 + 4.5j)
    assert not w.contains(-1.5 + 3.0j)
    c = w.corners()
    assert c[0] == -1.0 + 2.0j  # lower left, counterclockwise
    assert c[1] == 3.0 + 2.0j
    assert c[2] == 3.0 + 4.0j
    assert c[3] == -1.0 + 4.0j
    e = w.expand(0.5)
    assert (e.re_min, e.re_max, e.im_min, e.im_max) == (-1.5, 3.5, 1.5, 4.5)


@pytest.mark.parametrize(
    "w, offset, halves",
    [
        (Window(0.0, 8.0, 0.0, 2.0), -0.125, [(0.0, 3.0, 0.0, 2.0), (3.0, 8.0, 0.0, 2.0)]),
        (Window(0.0, 2.0, -4.0, 4.0), 0.125, [(0.0, 2.0, -4.0, 1.0), (0.0, 2.0, 1.0, 4.0)]),
        (Window(0.0, 2.0, 0.0, 2.0), 0.0, [(0.0, 1.0, 0.0, 2.0), (1.0, 2.0, 0.0, 2.0)]),
    ],
    ids=["wide", "tall", "square"],
)
def test_window_halves_tile(w, offset, halves):
    # the cut runs across the longer side, across Re for a square, at the
    # centre plus offset times that side; the halves share it and tile w
    got = w.halves(offset)
    assert [(h.re_min, h.re_max, h.im_min, h.im_max) for h in got] == halves
    assert sum(h.width * h.height for h in got) == pytest.approx(w.width * w.height)
    # a cut on or outside the boundary leaves a degenerate half
    for off in (0.5, -0.5, 0.75):
        with pytest.raises(PreconditionError, match="degenerate window"):
            w.halves(off)


def test_window_degenerate_rejected():
    with pytest.raises(PreconditionError):
        Window(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(PreconditionError):
        Window(2.0, 1.0, 0.0, 2.0)


def test_root_set_validation():
    ok = LabeledRootSet(0j, (RootEntry(1, 0.0 + 0j), RootEntry(2, 1.0 + 0j)))
    assert ok.labels() == (1, 2)
    with pytest.raises(PreconditionError):
        LabeledRootSet(0j, (RootEntry(1, 0j), RootEntry(1, 1j)))  # dup label
    with pytest.raises(PreconditionError):
        LabeledRootSet(0j, (RootEntry(0, 0j),))  # labels start at 1


def test_close_entries_come_out_flagged():
    # the pairs are derived from the entries: every pair of labels closer
    # than NEAR_MERGE_RADIUS, however close, and none farther apart
    for gap in (0.0, 1e-12, 0.99 * NEAR_MERGE_RADIUS):
        close = LabeledRootSet(0j, (RootEntry(2, 0j), RootEntry(1, complex(0.0, gap))))
        assert close.near_merge_pairs == ((1, 2),) and close.has_near_merge()
    apart = LabeledRootSet(0j, (RootEntry(1, 0j), RootEntry(2, complex(NEAR_MERGE_RADIUS, 0.0))))
    assert apart.near_merge_pairs == () and not apart.has_near_merge()
    assert apart.to_json()["near_merge_pairs"] == []


def test_near_merge_accessors():
    entries = (RootEntry(1, 0j), RootEntry(2, complex(NEAR_MERGE_RADIUS / 3, 0.0)),
               RootEntry(3, 1.0 + 1.0j))
    rs = LabeledRootSet(0j, entries)
    assert rs.near_merge_pairs == ((1, 2),)
    assert min_separation(rs.positions()) == pytest.approx(NEAR_MERGE_RADIUS / 3)
    assert rs.total_multiplicity() == 3


def test_residual_validation():
    from mono.lambertw import oracle_roots

    rs = oracle_roots(0.3 + 0.4j, range(-1, 2))
    assert rs.validate_residuals() <= RESIDUAL_TOL
    # heights 250-400: the rounding floor, not 1e-12, bounds the residual
    high = oracle_roots(0j, range(40, 64))
    assert high.validate_residuals() > RESIDUAL_TOL
    bad = LabeledRootSet(0.3 + 0.4j, (RootEntry(1, 5.0 + 0j),))
    with pytest.raises(NumericalError):
        bad.validate_residuals()


_PS = [0j, 1.0 + 1.0j, -2.0 + 0.5j]


@pytest.mark.parametrize(
    "ps, qs, label, distance",
    [
        pytest.param(_PS, [1.0 + 1.0j, -2.0 + 0.5j, 1e-12j], None, None, id="match"),
        pytest.param(_PS, [1.0 + 1.0j, -2.0 + 0.5j], None, None, id="lengths-differ"),
        pytest.param(_PS, [1.0 + 1.0j, -2.0 + 0.5j, 0.5 + 0j], 1, 0.5, id="beyond-tol"),
        # a second q within ten times the nearest distance
        pytest.param(_PS, [1e-10 + 0j, 1.0 + 1.0j, 5e-10j], 1, 1e-10, id="ambiguous"),
        pytest.param([0j, 1e-10 + 0j], [3e-10 + 0j, 5.0 + 0j], 2, 2e-10, id="taken"),
    ],
)
def test_match_positions(ps, qs, label, distance):
    if distance is None and len(ps) == len(qs):
        assert match_positions(ps, qs, 1e-9) == ([2, 0, 1], 1e-12)
        return
    with pytest.raises(UnmatchedRootError) as ei:
        match_positions(ps, qs, 1e-9)
    assert ei.value.label == label
    assert ei.value.distance == pytest.approx(distance, rel=1e-12)


def test_canonical_labels_sorted_by_height():
    positions = [2.0 + 5.0j, -0.5 + 0j, 1.0 - 3.0j]
    rs = canonical_root_set(0j, positions)
    assert rs.position(1) == -0.5 + 0j  # real root takes label 1
    assert rs.position(2) == 1.0 - 3.0j
    assert rs.position(3) == 2.0 + 5.0j


def test_canonical_labels_stable_at_a_height_tie():
    # loop_around(1) starts at a = a_1 - 0.5, where two roots share the
    # height 3 pi: rounding noise of 1e-12 either way must not swap them
    y = 3.0 * math.pi
    for e in (1e-12, -1e-12, 0.0):
        tied = [0.8577 + (y + e) * 1j, -1.1983 + (y - e) * 1j]
        rs = canonical_root_set(critical_value(1) - 0.5, [1.0 - 3.0j, *tied])
        assert [rs.position(k).real for k in (1, 2, 3)] == [1.0, -1.1983, 0.8577]


def test_canonical_label_one_swap():
    # lowest-imaginary root is not real: label 1 still lands on the real one
    positions = [1.0 - 3.0j, -0.567 + 0j, 2.0 + 5.0j]
    rs = canonical_root_set(0j, positions)
    assert rs.position(1).imag == 0.0
    others = sorted((rs.position(2).imag, rs.position(3).imag))
    assert others == [-3.0, 5.0]


def test_canonical_no_real_root():
    positions = [1.0 + 2.0j, 1.0 - 2.0j]
    rs = canonical_root_set(0j, positions)
    assert rs.position(1) == 1.0 - 2.0j  # plain height order
    assert rs.position(2) == 1.0 + 2.0j


def test_canonical_respects_window():
    win = Window(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(PreconditionError):
        canonical_root_set(0j, [2.0 + 0j], window=win)


_part = st.floats(-1e6, 1e6)


@st.composite
def _point_lists(draw):
    zs = draw(st.lists(st.builds(complex, _part, _part), max_size=25))
    if not zs or draw(st.booleans()):
        return zs
    # repeat some points exactly or one ulp away in one part, in half the
    # lists only: a repeat pins the minimum to a tiny or zero distance
    for i in draw(st.lists(st.integers(0, len(zs) - 1), max_size=5)):
        z = zs[i]
        zs.append(draw(st.sampled_from([
            z,
            complex(math.nextafter(z.real, math.inf), z.imag),
            complex(z.real, math.nextafter(z.imag, -math.inf)),
        ])))
    return zs[:25]


@settings(max_examples=300)
@given(_point_lists())
def test_min_separation_matches_pairwise_abs(zs):
    # exact equality: the sweep must give the scan's minimum to the bit
    want = math.inf
    for i, zi in enumerate(zs):
        for zj in zs[i + 1 :]:
            want = min(want, abs(zi - zj))
    assert min_separation(zs) == want


@settings(max_examples=300)
@given(_point_lists(), st.data())
def test_close_pairs_match_pairwise_abs(zs, data):
    # the sweep keeps exactly the pairs, in order, that a scan of every
    # pair keeps; the radius is one of the distances, so one pair sits on
    # it and must be left out
    pairs = [(i, j) for i in range(len(zs)) for j in range(i + 1, len(zs))]
    radius = data.draw(st.sampled_from(sorted({abs(zs[i] - zs[j]) for i, j in pairs}) or [1.0]))
    want = [(i, j) for i, j in pairs if abs(zs[i] - zs[j]) < radius]
    assert rootsets._close_pairs(zs, radius) == want
