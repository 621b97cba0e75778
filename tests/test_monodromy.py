"""Loop-level monodromy behavior beyond the headline checks.

The permutation induced by a loop depends only on its homotopy class in
the punctured parameter plane, which these tests probe from several
directions: running a loop twice, mirroring it, moving the corridor to
the other side of the critical line.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono.equation import critical_point
from mono.lambertw import oracle_roots
from mono.paths import concat, keyhole_loop, loop_around
from mono.permutation import Permutation, compose, extract_permutation, is_transposition
from mono.rootsets import Window
from mono.rootwindow import find_roots
from mono.tracking import track_bundle

from conftest import W5


def _perm(bundle, path):
    end, _ = track_bundle(bundle, path)
    return extract_permutation(bundle, end)


def _local_perm(path):
    # local loops are based at their own start, not at the origin
    bundle = find_roots(path.start, W5)
    return bundle, _perm(bundle, path)


def test_left_corridor_gives_star_transpositions(bundle5):
    # all four keyholes share the base root: label 1 appears in every swap
    got = {n: _perm(bundle5, keyhole_loop(n, 0.5)).cycle_string()
           for n in (-1, 0, 1, 2)}
    assert got == {-1: "(1 2)", 0: "(1 3)", 1: "(1 4)", 2: "(1 5)"}


def test_right_corridor_conjugates(bundle5):
    # crossing to re = 0 passes the corridor through the other sheet
    # pattern: a_n with n >= 1 now swaps neighbors instead of the base
    got = {n: _perm(bundle5, keyhole_loop(n, 0.5, corridor_re=0.5)).cycle_string()
           for n in (-1, 0, 1, 2)}
    assert got == {-1: "(1 2)", 0: "(1 3)", 1: "(3 4)", 2: "(4 5)"}


def test_double_loop_is_identity():
    # transpositions are involutions; winding twice undoes the swap
    _, p = _local_perm(loop_around(1, 0.4, turns=2))
    assert p.is_identity()


def test_clockwise_loop_same_transposition():
    _, p_ccw = _local_perm(loop_around(1, 0.4, turns=1))
    _, p_cw = _local_perm(loop_around(1, 0.4, turns=-1))
    assert p_ccw == p_cw
    assert is_transposition(p_ccw)[0]


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_local_loop_swaps_merging_pair_only(n):
    # the small circle never leaves the neighborhood of a_n, so exactly
    # the two sheets that collide at z_n exchange, and no others
    bundle, p = _local_perm(loop_around(n, 0.4))
    ok, pair = is_transposition(p)
    assert ok
    zc = critical_point(n).z
    by_distance = sorted(bundle.labels(), key=lambda l: abs(bundle.position(l) - zc))
    assert set(pair) == set(by_distance[:2])
    for lab in pair:
        assert abs(bundle.position(lab) - zc) < 1.3  # ~ sqrt(2 rho)


def test_keyhole_radius_does_not_change_class(bundle5):
    a = _perm(bundle5, keyhole_loop(1, 0.5))
    b = _perm(bundle5, keyhole_loop(1, 0.25))
    assert a == b


def test_composed_word_tracks_as_product(bundle5):
    from mono.paths import concat

    g0 = keyhole_loop(0, 0.5)
    g1 = keyhole_loop(1, 0.5)
    word = concat(g0, g1)
    direct = _perm(bundle5, word)
    expected = compose(_perm(bundle5, g0), _perm(bundle5, g1))
    assert direct == expected
    # (1 3) then (1 4): 1 -> 3, 3 -> 1 -> 4, 4 -> 1
    assert direct.cycle_string() == "(1 3 4)"


_LETTERS = [(n, sign) for n in (-1, 0, 1, 2) for sign in (1, -1)]


def _letter(n, sign):
    # every letter is a keyhole generator or its reverse
    loop = keyhole_loop(n)
    return loop if sign > 0 else loop.reverse()


@pytest.fixture(scope="module")
def letter_images(bundle5):
    return {letter: _perm(bundle5, _letter(*letter)).images for letter in _LETTERS}


@settings(max_examples=8)
@given(word=st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=3))
def test_random_word_tracks_as_product_of_letters(bundle5, letter_images, word):
    # the product is composed here, the first letter applied first
    identity = tuple(range(1, len(bundle5) + 1))
    product = identity
    for letter in word:
        product = tuple(letter_images[letter][i - 1] for i in product)
    path = concat(*(_letter(*letter) for letter in word))
    assert _perm(bundle5, path).images == product
    back = _perm(bundle5, path.reverse()).images
    assert tuple(back[i - 1] for i in product) == identity


# Guard for the certified step rule: on W19 (19 roots, heights up to 60)
# and W5, a word tracked with the certificate alone gives the product of
# its letters' transpositions, read off the oracle's roots by height, as
# the same word did under the old fixed cap max_step = 0.05.
_GUARD_WINDOWS = {
    "W19": (Window(-5.0, 5.0, -60.0, 60.0), (-2, -1, 0, 1, 2)),
    "W5": (W5, (-1, 0, 1, 2)),
}


@pytest.fixture(scope="module")
def guard_bundles():
    return {name: find_roots(0j, window) for name, (window, _) in _GUARD_WINDOWS.items()}


def _keyhole_swaps(bundle, window, gens):
    """The pair each keyhole generator swaps, from the oracle alone: the
    real root and the (n+1)-th root above it for n >= 0, or the |n|-th
    root below it for n < 0, by height."""
    oracle = oracle_roots(0j, range(-12, 13), window=window)
    assert oracle.labels() == bundle.labels()
    for lab in oracle.labels():
        assert abs(oracle.position(lab) - bundle.position(lab)) < 1e-9
    by_height = sorted(oracle.labels(), key=lambda lab: oracle.position(lab).imag)
    i = min(range(len(by_height)), key=lambda j: abs(oracle.position(by_height[j]).imag))
    return {n: (by_height[i], by_height[i + (n + 1 if n >= 0 else n)]) for n in gens}


@pytest.mark.parametrize("name", list(_GUARD_WINDOWS))
@settings(max_examples=6)
@given(data=st.data())
def test_certified_steps_match_the_fixed_cap(guard_bundles, name, data):
    bundle = guard_bundles[name]
    window, gens = _GUARD_WINDOWS[name]
    swaps = _keyhole_swaps(bundle, window, gens)
    letters = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    word = data.draw(st.lists(letters, min_size=1, max_size=4), label="word")
    # a transposition is its own inverse; the first letter acts first
    product = tuple(range(1, len(bundle) + 1))
    for n, _sign in word:
        p, q = swaps[n]
        product = tuple(q if i == p else p if i == q else i for i in product)
    end, rep = track_bundle(bundle, concat(*(_letter(*letter) for letter in word)))
    assert rep.max_load < 1.0
    assert extract_permutation(bundle, end).images == product


@pytest.mark.parametrize("name", list(_GUARD_WINDOWS))
@settings(max_examples=6)
@given(data=st.data())
def test_splitting_a_path_changes_nothing(guard_bundles, name, data):
    # tracked whole, a step may run on across the joint of p and q; split
    # there, every step stops at it: each label ends at the same root
    bundle = guard_bundles[name]
    letters = st.tuples(st.sampled_from(_GUARD_WINDOWS[name][1]), st.sampled_from((1, -1)))
    p, q = (_letter(*data.draw(letters, label=side)) for side in ("p", "q"))
    whole, _ = track_bundle(bundle, concat(p, q))
    split, _ = track_bundle(track_bundle(bundle, p)[0], q)
    assert extract_permutation(bundle, whole) == extract_permutation(bundle, split)
    assert max(abs(whole.position(lab) - split.position(lab)) for lab in bundle.labels()) < 1e-9
