"""Label permutations, group closure, and extraction from moved bundles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono.errors import PreconditionError, UnmatchedRootError
from mono.permutation import (
    Permutation,
    compose,
    cycles,
    extract_permutation,
    group_order,
    inverse,
    is_transposition,
)
from mono.rootsets import LabeledRootSet, RootEntry


def test_constructor_validation():
    Permutation((2, 1, 3))
    with pytest.raises(PreconditionError):
        Permutation((1, 1, 3))  # not a bijection
    with pytest.raises(PreconditionError):
        Permutation((0, 1))  # images must be 1-based
    with pytest.raises(PreconditionError):
        Permutation((2, 3))  # image outside range


def test_identity_and_call():
    e = Permutation.identity(4)
    assert e.is_identity()
    assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]
    t = Permutation.transposition(4, 2, 4)
    assert t(2) == 4 and t(4) == 2 and t(1) == 1
    ok, pair = is_transposition(t)
    assert ok and pair == (2, 4)


def test_compose_order_of_application():
    # compose(p, q) applies p first, then q
    p = Permutation.transposition(3, 1, 2)
    q = Permutation.transposition(3, 2, 3)
    pq = compose(p, q)
    assert pq(1) == 3  # 1 -p-> 2 -q-> 3
    qp = compose(q, p)
    assert qp(1) == 2
    assert pq != qp


def test_inverse_and_cycles():
    c = Permutation((2, 3, 1, 5, 4))
    assert compose(c, inverse(c)).is_identity()
    assert cycles(c) == ((1, 2, 3), (4, 5))
    assert c.cycle_string() == "(1 2 3)(4 5)"
    assert Permutation.identity(3).cycle_string() == "()"


def test_star_transpositions_generate_everything():
    gens = [Permutation.transposition(5, 1, k) for k in (2, 3, 4, 5)]
    res = group_order(gens)
    assert res.order == 120
    assert not res.cap_exceeded
    assert res.transitive


def test_three_labels():
    gens = [Permutation.transposition(3, 1, 2), Permutation.transposition(3, 1, 3)]
    assert group_order(gens).order == 6


def test_closure_nine_label_star():
    gens = [Permutation.transposition(9, 1, k) for k in range(2, 10)]
    res = group_order(gens)
    assert res.order == math.factorial(9)
    assert not res.cap_exceeded
    assert res.explored == 9


def test_intransitive_generators():
    gens = [Permutation.transposition(4, 1, 2), Permutation.transposition(4, 3, 4)]
    res = group_order(gens)
    assert not res.transitive
    assert res.order == 4


def test_closure_refuses_three_cycle():
    gens = [Permutation.transposition(3, 1, 2), Permutation((2, 3, 1))]
    with pytest.raises(PreconditionError):
        group_order(gens)


def _bfs_group(gens: list[Permutation]) -> set[Permutation]:
    n = gens[0].size
    seen = {Permutation.identity(n)}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = compose(p, g)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


@st.composite
def _transpositions_and_identities(draw):
    n = draw(st.integers(2, 6))
    pairs = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    gen = st.one_of(
        st.just(Permutation.identity(n)),
        pairs.map(lambda ij: Permutation.transposition(n, *ij)),
    )
    return draw(st.lists(gen, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(_transpositions_and_identities())
def test_closure_matches_bfs(gens):
    group = _bfs_group(gens)
    res = group_order(gens)
    assert res.order == len(group)
    # transitive exactly when the group moves label 1 onto every label
    assert res.transitive == ({p(1) for p in group} == set(range(1, gens[0].size + 1)))


def test_mixed_sizes_rejected():
    with pytest.raises(PreconditionError):
        group_order([Permutation.identity(3), Permutation.identity(4)])
    with pytest.raises(PreconditionError):
        compose(Permutation.identity(3), Permutation.identity(4))


def _set(a, pairs):
    return LabeledRootSet(a, tuple(RootEntry(lab, z) for lab, z in pairs))


def test_extract_identity_and_swap():
    start = _set(0j, [(1, 0j), (2, 1j), (3, 2j)])
    same = _set(0j, [(1, 0j + 1e-12), (2, 1j), (3, 2j)])
    assert extract_permutation(start, same).is_identity()
    swapped = _set(0j, [(1, 1j), (2, 0j), (3, 2j)])
    p = extract_permutation(start, swapped)
    assert p.cycle_string() == "(1 2)"


def test_extract_requires_same_labels_and_base():
    start = _set(0j, [(1, 0j), (2, 1j)])
    other_labels = _set(0j, [(1, 0j), (3, 1j)])
    with pytest.raises(PreconditionError):
        extract_permutation(start, other_labels)
    other_base = _set(0.5 + 0j, [(1, 0j), (2, 1j)])
    with pytest.raises(PreconditionError):
        extract_permutation(start, other_base)


def test_extract_unmatched_and_ambiguous():
    start = _set(0j, [(1, 0j), (2, 1j)])
    far = _set(0j, [(1, 0.5 + 0j), (2, 1j)])
    with pytest.raises(UnmatchedRootError):
        extract_permutation(start, far)
    # two end roots nearly equidistant from one start root
    near = _set(0j, [(1, 5e-9 + 0j), (2, -6e-9 + 0j)])
    with pytest.raises(UnmatchedRootError, match="taken") as ei:
        extract_permutation(start, near)
    assert (ei.value.label, ei.value.distance) == (2, 6e-9)


def test_extract_from_actual_tracking(bundle3):
    from mono.paths import keyhole_loop
    from mono.tracking import track_bundle

    end, _ = track_bundle(bundle3, keyhole_loop(0, 0.5))
    p = extract_permutation(bundle3, end)
    ok, pair = is_transposition(p)
    assert ok and pair == (1, 3)
