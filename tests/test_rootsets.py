"""Windows, labeled root sets, and canonical labeling."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono import rootsets
from mono.equation import FAMILY, RESIDUAL_TOL, critical_value, residual_bound
from mono.errors import PreconditionError, UnmatchedRootError
from mono.rootsets import (
    NEAR_MERGE_RADIUS,
    LabeledRootSet,
    RootEntry,
    Window,
    canonical_root_set,
    match_positions,
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
    assert apart.to_json()["near_merge_pairs"] == ()


def test_near_merge_accessors():
    entries = (RootEntry(1, 0j), RootEntry(2, complex(NEAR_MERGE_RADIUS / 3, 0.0)),
               RootEntry(3, 1.0 + 1.0j))
    rs = LabeledRootSet(0j, entries)
    assert rs.near_merge_pairs == ((1, 2),)
    gap = min(abs(p - q) for p, q in combinations(rs.positions(), 2))
    assert gap == pytest.approx(NEAR_MERGE_RADIUS / 3)
    assert rs.total_multiplicity() == 3


def test_residual_validation():
    from mono.lambertw import oracle_roots

    def worst(rs):
        # every oracle root meets equation's residual rule
        residuals = [abs(FAMILY.eval(e.z) - rs.a) for e in rs.entries]
        for e, r in zip(rs.entries, residuals):
            assert r <= residual_bound(e.z, rs.a, FAMILY.deriv(e.z))
        return max(residuals)

    assert worst(oracle_roots(0.3 + 0.4j, range(-1, 2))) <= RESIDUAL_TOL
    # heights 250-400: the rounding floor, not 1e-12, bounds the residual
    assert worst(oracle_roots(0j, range(40, 64))) > RESIDUAL_TOL


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


def _match_by_rows(ps, qs, tol):
    """match_positions as a full table of distances: each p's whole row."""
    if len(ps) != len(qs):
        raise UnmatchedRootError(f"{len(ps)} roots cannot match {len(qs)}")
    matched, worst = [], 0.0
    for label, p in enumerate(ps, start=1):
        row = [abs(p - q) for q in qs]
        j = row.index(min(row))
        d1 = row.pop(j)
        d2 = min(row, default=math.inf)
        if d1 > tol or d2 <= 10.0 * d1 or j in matched:
            raise UnmatchedRootError(
                f"root {label} has no unique match within {tol:g}: the nearest, "
                f"{j + 1}{' (taken)' if j in matched else ''}, is {d1:.3g} away, "
                f"the next {d2:.3g}",
                label=label,
                distance=d1,
            )
        matched.append(j)
        worst = max(worst, d1)
    return matched, worst


# offsets at and either side of tol = 1e-9 and 10 tol, in both axes
_OFFSETS = st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 2e-8, 1e-6])


@settings(max_examples=400)
@given(
    grid=st.lists(st.tuples(st.integers(-3, 3), st.integers(-40, 40)), min_size=1, max_size=12),
    moves=st.lists(st.tuples(_OFFSETS, _OFFSETS, st.booleans()), min_size=12, max_size=12),
    perm=st.randoms(use_true_random=False),
    scale=st.sampled_from([1e-9, 1e-8, 1.0, 1e3]),
)
def test_match_positions_agrees_with_the_full_table(grid, moves, perm, scale):
    # the sweep decides from the qs within 10 tol of each p, and an error
    # is worded from the full row: matches, worst distances, labels and
    # messages are those of the whole table, ties and taken roots included
    qs = [complex(x, y) * scale for x, y in grid]
    ps = [q + complex(dx, -dy if flip else dy) for q, (dx, dy, flip) in zip(qs, moves)]
    perm.shuffle(ps)
    for tol in (1e-9, 0.0):
        try:
            want = _match_by_rows(ps, qs, tol)
        except UnmatchedRootError as exc:
            with pytest.raises(UnmatchedRootError) as ei:
                match_positions(ps, qs, tol)
            got = ei.value
            assert (str(got), got.label, got.distance) == (str(exc), exc.label, exc.distance)
        else:
            assert match_positions(ps, qs, tol) == want


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
    # lists only: a repeat puts a tiny or zero distance among the pairs
    for i in draw(st.lists(st.integers(0, len(zs) - 1), max_size=5)):
        z = zs[i]
        zs.append(draw(st.sampled_from([
            z,
            complex(math.nextafter(z.real, math.inf), z.imag),
            complex(z.real, math.nextafter(z.imag, -math.inf)),
        ])))
    return zs[:25]


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
