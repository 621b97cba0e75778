"""Permutations on root labels and monodromy group bookkeeping.

Conventions: labels are 1-based; compose(p, q) applies p first and then
q, matching the composition of loops traversed p's loop first.  Group
closure is plain breadth-first enumeration, exact for the label counts
this package works with (N <= 8, orders up to 40320).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import PreconditionError, UnmatchedRootError
from .rootsets import LabeledRootSet

_DEFAULT_CAP = 200000
MAX_CLOSURE_LABELS = 8


@dataclass(frozen=True)
class Permutation:
    """images[i-1] is the image of label i."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise PreconditionError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_mapping(cls, mapping: dict[int, int]) -> "Permutation":
        n = len(mapping)
        if sorted(mapping) != list(range(1, n + 1)):
            raise PreconditionError(f"mapping keys must be 1..{n}")
        return cls(tuple(mapping[i] for i in range(1, n + 1)))

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


@dataclass(frozen=True)
class Generator:
    """A permutation together with a description of the loop that induced it."""

    perm: Permutation
    provenance: str = ""


@dataclass(frozen=True)
class ClosureResult:
    order: int | None
    cap_exceeded: bool
    explored: int


def _as_perms(gens) -> list[Permutation]:
    out = []
    for g in gens:
        out.append(g.perm if isinstance(g, Generator) else g)
    return out


def group_order(gens, *, cap: int = _DEFAULT_CAP, size: int | None = None) -> ClosureResult:
    """Order of the group generated by gens, by breadth-first closure.

    A cap on explored elements bounds the enumeration; exceeding it is
    reported in the result, not raised.  size is needed only for an
    empty generator list.
    """
    perms = _as_perms(gens)
    if not perms:
        if size is None:
            raise PreconditionError("empty generator list needs an explicit size")
        return ClosureResult(order=1, cap_exceeded=False, explored=1)
    n = perms[0].size
    if any(p.size != n for p in perms):
        raise PreconditionError("generators act on different label counts")
    if n > MAX_CLOSURE_LABELS:
        raise PreconditionError(
            f"exact closure supported for up to {MAX_CLOSURE_LABELS} labels, got {n}"
        )
    ident = Permutation.identity(n)
    seen = {ident.images}
    queue = deque([ident])
    while queue:
        p = queue.popleft()
        for g in perms:
            q = compose(p, g)
            if q.images not in seen:
                if len(seen) >= cap:
                    return ClosureResult(order=None, cap_exceeded=True, explored=len(seen))
                seen.add(q.images)
                queue.append(q)
    return ClosureResult(order=len(seen), cap_exceeded=False, explored=len(seen))


def transitivity_check(gens, *, size: int | None = None) -> bool:
    """Whether the generated group moves label 1 onto every label.

    Forward images suffice: in a finite group each inverse is a positive
    power, so the orbit under the generators is the group orbit.
    """
    perms = _as_perms(gens)
    if not perms:
        if size is None:
            raise PreconditionError("empty generator list needs an explicit size")
        return size == 1
    n = perms[0].size
    if any(p.size != n for p in perms):
        raise PreconditionError("generators act on different label counts")
    orbit = {1}
    frontier = [1]
    while frontier:
        i = frontier.pop()
        for p in perms:
            j = p(i)
            if j not in orbit:
                orbit.add(j)
                frontier.append(j)
    return len(orbit) == n


def extract_permutation(
    start: LabeledRootSet,
    end: LabeledRootSet,
    *,
    tol: float = 1e-8,
) -> Permutation:
    """Match transported end positions back to start positions by nearness.

    Requires the same label sets and the same parameter value (the path
    was closed).  Each end root must land within tol of exactly one
    start root; a second start root within ten times the best match
    distance makes the assignment ambiguous, which is an error rather
    than a guess.
    """
    if start.labels() != end.labels():
        raise PreconditionError(
            f"label sets differ: {start.labels()} vs {end.labels()}"
        )
    if abs(start.a - end.a) > 1e-9:
        raise PreconditionError(
            f"parameter moved: start a = {start.a!r}, end a = {end.a!r}"
        )
    labels = start.labels()
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise PreconditionError(f"labels must be 1..{n} for permutation extraction")
    mapping: dict[int, int] = {}
    taken: dict[int, int] = {}
    for lab in labels:
        z_end = end.position(lab)
        dists = sorted(
            (abs(z_end - start.position(m)), m) for m in labels
        )
        d1, m1 = dists[0]
        if d1 > tol:
            raise UnmatchedRootError(
                f"label {lab} transported to {z_end!r}, nearest start root "
                f"(label {m1}) is {d1:.3g} away (> {tol:g})",
                label=lab,
                distance=d1,
            )
        if len(dists) > 1:
            d2, m2 = dists[1]
            if d2 <= 10.0 * d1:
                raise UnmatchedRootError(
                    f"label {lab} matches both {m1} ({d1:.3g}) and {m2} ({d2:.3g}); "
                    f"ambiguous within a factor of 10",
                    label=lab,
                    distance=d1,
                )
        if m1 in taken:
            raise UnmatchedRootError(
                f"labels {taken[m1]} and {lab} both landed on start root {m1}",
                label=lab,
                distance=d1,
            )
        taken[m1] = lab
        # the root that STARTED at lab ENDS at position of m1's start slot:
        # end position of lab sits where m1 began, so lab's root moved to m1
        mapping[lab] = m1
    return Permutation.from_mapping(mapping)
