"""Rectangular windows and labeled root sets.

A LabeledRootSet is the currency passed between the root finder, the
oracle, and the tracker: a parameter value a together with the roots of
z + e^z = a in some region, each carrying a persistent integer label.
Labels are what monodromy permutations act on.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, cmp_to_key

from .errors import PreconditionError, UnmatchedRootError

NEAR_MERGE_RADIUS = 1e-4
REAL_AXIS_TOL = 1e-9


class Window(namedtuple("Window", "re_min re_max im_min im_max")):
    """Closed axis-aligned rectangle in the z-plane."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(map(math.isfinite, self)):
            raise PreconditionError(f"window bounds must be finite, got {self}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise PreconditionError(f"degenerate window {self}")
        return self

    def contains(self, z: complex) -> bool:
        return self.re_min <= z.real <= self.re_max and self.im_min <= z.imag <= self.im_max

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    def corners(self) -> list[complex]:
        """Corners in counterclockwise order starting at the lower left."""
        return [
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        ]

    def expand(self, d: float) -> "Window":
        return Window(self.re_min - d, self.re_max + d, self.im_min - d, self.im_max + d)

    def halves(self, offset: float) -> list["Window"]:
        """The two halves either side of a cut across the longer side.

        The cut runs across Re when the window is at least as wide as it
        is tall, else across Im, at the centre plus offset times that
        side; a cut outside the interior leaves a degenerate half, which
        is refused.
        """
        if self.width >= self.height:
            cut = self.center.real + offset * self.width
            return [
                Window(self.re_min, cut, self.im_min, self.im_max),
                Window(cut, self.re_max, self.im_min, self.im_max),
            ]
        cut = self.center.imag + offset * self.height
        return [
            Window(self.re_min, self.re_max, self.im_min, cut),
            Window(self.re_min, self.re_max, cut, self.im_max),
        ]

    def to_json(self) -> dict:
        return self._asdict()


class RootEntry(namedtuple("RootEntry", "label z multiplicity", defaults=(1,))):
    __slots__ = ()


class LabeledRootSet:
    """Roots of z + e^z = a with persistent labels.

    near_merge_pairs lists every pair of labels closer together than
    NEAR_MERGE_RADIUS.  Entries with multiplicity > 1 mark unresolved
    clusters at, or numerically indistinguishable from, a critical value.
    The set is immutable, and equality and hashing ignore the window.
    """

    def __init__(self, a: complex, entries: tuple[RootEntry, ...], window: Window | None = None):
        self.__dict__.update(a=a, entries=entries, window=window)
        seen = set()
        for e in self.entries:
            if not isinstance(e.label, int) or e.label < 1:
                raise PreconditionError(f"labels must be positive ints, got {e.label!r}")
            if e.label in seen:
                raise PreconditionError(f"duplicate label {e.label}")
            if e.multiplicity < 1:
                raise PreconditionError(f"multiplicity must be >= 1, got {e.multiplicity}")
            if not (math.isfinite(e.z.real) and math.isfinite(e.z.imag)):
                raise PreconditionError(f"non-finite root for label {e.label}")
            seen.add(e.label)
        if self.window is not None:
            for e in self.entries:
                if not self.window.contains(e.z):
                    raise PreconditionError(
                        f"root {e.z!r} (label {e.label}) lies outside the "
                        f"declared window {self.window}"
                    )

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is LabeledRootSet and (self.a, self.entries) == (other.a, other.entries)

    def __hash__(self):
        return hash((self.a, self.entries))

    def __repr__(self):
        return f"LabeledRootSet(a={self.a!r}, entries={self.entries!r}, window={self.window!r})"

    @cached_property
    def near_merge_pairs(self) -> tuple[tuple[int, int], ...]:
        es = self.entries
        close = _close_pairs([e.z for e in es], NEAR_MERGE_RADIUS)
        return tuple(tuple(sorted((es[i].label, es[j].label))) for i, j in close)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(e.label for e in self.entries))

    def position(self, label: int) -> complex:
        for e in self.entries:
            if e.label == label:
                return e.z
        raise PreconditionError(f"no entry with label {label}")

    def positions(self) -> list[complex]:
        """Positions ordered by label."""
        return [e.z for e in sorted(self.entries, key=lambda e: e.label)]

    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def has_near_merge(self) -> bool:
        return bool(self.near_merge_pairs) or any(e.multiplicity > 1 for e in self.entries)

    def to_json(self) -> dict:
        d = {
            "a": self.a,
            "roots": [e._asdict() for e in sorted(self.entries, key=lambda e: e.label)],
            "near_merge_pairs": self.near_merge_pairs,
        }
        if self.window is not None:
            d["window"] = self.window.to_json()
        return d


def _close_pairs(zs, radius: float) -> list[tuple[int, int]]:
    """Index pairs i < j with |zs[i] - zs[j]| < radius, sorted.

    A sweep over the points in order of Im z (roots lie about 2 pi apart
    in Im) stops at the first one whose Im gap reaches the radius: abs of
    a difference is never below the gap between its Im parts.
    """
    order = sorted(range(len(zs)), key=lambda i: zs[i].imag)
    pairs = []
    for k, i in enumerate(order):
        for j in order[k + 1:]:
            if zs[j].imag - zs[i].imag >= radius:
                break
            if abs(zs[i] - zs[j]) < radius:
                pairs.append((min(i, j), max(i, j)))
    return sorted(pairs)


def match_positions(ps, qs, tol: float) -> tuple[list[int], float]:
    """Match every position in ps to its nearest position in qs.

    Returns the index into qs of each p's match, and the worst matched
    distance.  Raises UnmatchedRootError (label: the 1-based position in
    ps; distance: its nearest distance) when the lengths differ, when a
    p has no q within tol, when a second q lies within ten times the
    nearest distance (ambiguous), or when two ps take the same q.  The
    sweep of _close_pairs finds the qs within 10 tol of p, which decide.
    """
    if len(ps) != len(qs):
        raise UnmatchedRootError(f"{len(ps)} roots cannot match {len(qs)}")
    near = [[(math.inf, -1)] * 2 for _ in ps]  # (distance, index) within 10 tol
    for i, j in _close_pairs([*ps, *qs], math.nextafter(10.0 * tol, math.inf)):
        if i < len(ps) <= j:
            near[i].append((abs(ps[i] - qs[j - len(ps)]), j - len(ps)))
    matched, worst = [], 0.0
    for label, p in enumerate(ps, start=1):
        (d1, j), (d2, _) = sorted(near[label - 1])[:2]
        if d1 > tol or d2 <= 10.0 * d1 or j in matched:  # worded from the full row
            row = [(abs(p - q), k) for k, q in enumerate(qs)] + [(math.inf, len(qs))]
            (d1, j), (d2, _) = sorted(row)[:2]
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


def _height_cmp(p: complex, q: complex) -> int:
    """Compare by height, tied within REAL_AXIS_TOL, then by real part."""
    if abs(p.imag - q.imag) < REAL_AXIS_TOL:
        return (p.real > q.real) - (p.real < q.real)
    return -1 if p.imag < q.imag else 1


def canonical_root_set(
    a: complex,
    positions,
    *,
    multiplicities=None,
    window: Window | None = None,
) -> LabeledRootSet:
    """Label roots canonically: sort by (im, re), count from 1, then swap
    label 1 onto the real root if one is present.

    Heights within REAL_AXIS_TOL tie and go by real part, so two roots
    on one horizontal line (as at a basepoint on Im a = (2n+1) pi) keep
    their labels whatever the rounding.  A root counts as real when
    |im z| < REAL_AXIS_TOL, which for this family forces a to be
    (numerically) real as well.
    """
    a = complex(a)
    pos = [complex(z) for z in positions]
    if multiplicities is None:
        multiplicities = [1] * len(pos)
    if len(multiplicities) != len(pos):
        raise PreconditionError("multiplicities length mismatch")
    order = sorted(range(len(pos)), key=cmp_to_key(lambda i, j: _height_cmp(pos[i], pos[j])))
    entries = [
        RootEntry(label=rank + 1, z=pos[i], multiplicity=multiplicities[i])
        for rank, i in enumerate(order)
    ]
    real_idx = [i for i, e in enumerate(entries) if abs(e.z.imag) < REAL_AXIS_TOL]
    if len(real_idx) > 1:
        raise PreconditionError("more than one numerically real root in the set")
    if real_idx and entries[real_idx[0]].label != 1:
        r = real_idx[0]
        one = next(i for i, e in enumerate(entries) if e.label == 1)
        entries[r], entries[one] = (
            RootEntry(1, entries[r].z, entries[r].multiplicity),
            RootEntry(entries[r].label, entries[one].z, entries[one].multiplicity),
        )
    return LabeledRootSet(a=a, entries=tuple(entries), window=window)
