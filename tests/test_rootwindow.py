"""Contour counting and certified root location in rectangles."""

import math

import pytest

from mono.equation import FAMILY, critical_point, critical_value, real_root
from mono.errors import BoundaryTooCloseError, PreconditionError
from mono.lambertw import oracle_roots
from mono.rootsets import Window, match_positions
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
    ok, worst = match_positions(found.positions(), ref.positions(), 1e-9)
    assert ok and worst < 1e-10


def test_find_roots_example_window():
    # one root of z + e^z = 2 + 2.5i inside [-1,1] x [2,4]
    a = 2.0 + 2.5j
    w = Window(-1.0, 1.0, 2.0, 4.0)
    ref = oracle_roots(a, range(-4, 5), window=w)
    found = find_roots(a, w)
    assert len(found) == len(ref)
    ok, _ = match_positions(found.positions(), ref.positions(), 1e-9)
    assert ok


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
    gap = found.min_pairwise_distance()
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


def test_find_roots_rejects_silly_window():
    with pytest.raises(PreconditionError):
        find_roots(0j, Window(-1.0, 1.0, -1.0, math.inf))


def test_count_deterministic():
    w = Window(-3.0, 3.0, -4.0, 8.0)
    a = -0.3 + 0.9j
    assert count_roots(a, w) == count_roots(a, w)
