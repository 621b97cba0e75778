"""Permutations on root labels and monodromy group bookkeeping.

Conventions: labels are 1-based; compose(p, q) applies p first and then
q, matching the composition of loops traversed p's loop first.  Group
closure takes transpositions, the permutations loops around single
first-order critical values induce, and reads the group's order and
transitivity off the connected components of their graph on the
labels, for any label count.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .errors import PreconditionError
from .rootsets import LabeledRootSet, match_positions

# an end root farther than this from every start root is unmatched
MATCH_TOL = 1e-8


class Permutation(namedtuple("Permutation", "images")):
    """images[i-1] is the image of label i."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise PreconditionError(f"not a permutation of 1..{n}: {images}")
        return super().__new__(cls, images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise PreconditionError(f"bad transposition ({i} {j}) on 1..{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not (1 <= i <= self.size):
            raise PreconditionError(f"label {i} out of range 1..{self.size}")
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(self.size))

    def cycle_string(self) -> str:
        cyc = cycles(self)
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cyc)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q."""
    if p.size != q.size:
        raise PreconditionError(f"size mismatch {p.size} != {q.size}")
    return Permutation(tuple(q.images[p.images[i] - 1] for i in range(p.size)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.size
    for i, img in enumerate(p.images, start=1):
        inv[img - 1] = i
    return Permutation(tuple(inv))


def cycles(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """Nontrivial cycles, each rotated to lead with its smallest label,
    sorted by leader."""
    seen = set()
    out = []
    for i in range(1, p.size + 1):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = p(i)
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p(j)
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return tuple(sorted(out))


def is_transposition(p: Permutation) -> tuple[bool, tuple[int, int] | None]:
    cyc = cycles(p)
    if len(cyc) == 1 and len(cyc[0]) == 2:
        return True, cyc[0]
    return False, None


class ClosureResult(namedtuple("ClosureResult", "order transitive cap_exceeded explored")):
    __slots__ = ()


def group_order(gens) -> ClosureResult:
    """Order and transitivity of the group generated by transpositions
    and identities.

    Transpositions generate the product of the symmetric groups on the
    connected components C of their graph on the labels, so the order is
    the product of |C|!; the components come from a union-find, and the
    group is transitive when there is one component.  Any other
    permutation is refused: a loop around one first-order critical value
    induces at most a transposition.  cap_exceeded is always False and
    explored is the label count.
    """
    if not gens:
        raise PreconditionError("group closure needs at least one generator")
    n = gens[0].size
    if any(p.size != n for p in gens):
        raise PreconditionError("generators act on different label counts")
    parent = list(range(n + 1))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in gens:
        if p.is_identity():
            continue
        ok, pair = is_transposition(p)
        if not ok:
            raise PreconditionError(
                f"closure takes transpositions and identities, got {p.cycle_string()}"
            )
        parent[root(pair[0])] = root(pair[1])
    components = Counter(root(i) for i in range(1, n + 1))
    order = math.prod(math.factorial(c) for c in components.values())
    return ClosureResult(
        order=order, transitive=len(components) == 1, cap_exceeded=False, explored=n
    )


def extract_permutation(start: LabeledRootSet, end: LabeledRootSet) -> Permutation:
    """Match transported end positions back to start positions by nearness.

    Requires the same label sets and the same parameter value (the path
    was closed).  The root that started at label i ends where label
    images[i-1] started: rootsets.match_positions pairs them within
    MATCH_TOL, and raises UnmatchedRootError when a root has no start
    root that near, has two, or lands where another already did.
    """
    if start.labels() != end.labels():
        raise PreconditionError(
            f"label sets differ: {start.labels()} vs {end.labels()}"
        )
    if abs(start.a - end.a) > 1e-9:
        raise PreconditionError(
            f"parameter moved: start a = {start.a!r}, end a = {end.a!r}"
        )
    n = len(start)
    if start.labels() != tuple(range(1, n + 1)):
        raise PreconditionError(f"labels must be 1..{n} for permutation extraction")
    matched, _ = match_positions(end.positions(), start.positions(), MATCH_TOL)
    return Permutation(tuple(j + 1 for j in matched))
