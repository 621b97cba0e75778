"""What callers rely on in mono's records: reprs, which error messages
print; immutability; equality and hashing; keyword construction; and the
messages of the checks the records make on construction."""

import math

import pytest

from mono.equation import critical_point
from mono.errors import PreconditionError
from mono.paths import ArcSegment, ImageSegment, LineSegment, ParamPath
from mono.permutation import ClosureResult, Permutation
from mono.rootsets import LabeledRootSet, RootEntry, Window
from mono.tracking import _blocks

W5 = Window(-5.0, 5.0, -6.0, 18.0)
W5_REPR = "Window(re_min=-5.0, re_max=5.0, im_min=-6.0, im_max=18.0)"
LINE = LineSegment(0j, -2 + 0j)

# name: (record, its repr, one of its fields, an equal record, a record it
# must not equal, and a bad construction with its message, or None)
RECORDS = {
    "window": (
        W5, W5_REPR, "re_min", Window(re_min=-5.0, re_max=5.0, im_min=-6.0, im_max=18.0),
        Window(-5.0, 5.0, -6.0, 19.0),
        (lambda: Window(-5.0, 5.0, 1.0, 1.0),
         "degenerate window Window(re_min=-5.0, re_max=5.0, im_min=1.0, im_max=1.0)"),
    ),
    "line": (
        LINE, "LineSegment(z0=0j, z1=(-2+0j))", "z0", LineSegment(z0=0j, z1=-2 + 0j),
        ImageSegment(0j, -2 + 0j), None,
    ),
    "image": (
        ImageSegment(0j, -2 + 0j), "ImageSegment(z0=0j, z1=(-2+0j))", "z1",
        ImageSegment(z0=0j, z1=-2 + 0j), LINE, None,
    ),
    "arc": (
        ArcSegment(1j, 0.5, 0.0, 1.0),
        "ArcSegment(center=1j, radius=0.5, theta0=0.0, theta1=1.0)", "radius",
        ArcSegment(center=1j, radius=0.5, theta0=0.0, theta1=1.0),
        ArcSegment(1j, 0.5, 1.0, 0.0),
        (lambda: ArcSegment(0j, math.inf, 0.0, 1.0),
         "arc radius must be finite and positive, got inf"),
    ),
    "path": (
        ParamPath((LINE,)),
        "ParamPath(segments=(LineSegment(z0=0j, z1=(-2+0j)),), encircles=None)", "segments",
        ParamPath(segments=(LineSegment(0j, -2 + 0j),)), ParamPath((LINE,), encircles=(0, 0.5)),
        (lambda: ParamPath(()), "path needs at least one segment"),
    ),
    "permutation": (
        Permutation((2, 1, 3)), "Permutation(images=(2, 1, 3))", "images",
        Permutation.transposition(3, 1, 2), Permutation.identity(3),
        (lambda: Permutation((1, 1, 3)), "not a permutation of 1..3: (1, 1, 3)"),
    ),
    "closure": (
        ClosureResult(2, False, False, 3),
        "ClosureResult(order=2, transitive=False, cap_exceeded=False, explored=3)", "order",
        ClosureResult(order=2, transitive=False, cap_exceeded=False, explored=3),
        ClosureResult(6, True, False, 3), None,
    ),
    "critical point": (
        critical_point(0), "CriticalPoint(n=0, z=3.141592653589793j, a=(-1+3.141592653589793j))",
        "n", critical_point(0), critical_point(-1), None,
    ),
    "root entry": (
        RootEntry(1, 0j), "RootEntry(label=1, z=0j, multiplicity=1)", "z",
        RootEntry(label=1, z=0j, multiplicity=1), RootEntry(1, 0j, 2), None,
    ),
    # equality ignores the window
    "root set": (
        LabeledRootSet(0j, (RootEntry(1, 0j),), W5),
        f"LabeledRootSet(a=0j, entries=(RootEntry(label=1, z=0j, multiplicity=1),), "
        f"window={W5_REPR})", "window",
        LabeledRootSet(a=0j, entries=(RootEntry(1, 0j),)), LabeledRootSet(0j, (RootEntry(2, 0j),)),
        (lambda: LabeledRootSet(0j, (RootEntry(1, 20j),), W5),
         f"root 20j (label 1) lies outside the declared window {W5_REPR}"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    rec, text, field, equal, other, bad = RECORDS[name]
    assert repr(rec) == text
    assert rec == equal and hash(rec) == hash(equal) and not rec != equal
    assert rec != other and not rec == other and {rec: 0}.get(other) is None
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    if bad is not None:
        build, message = bad
        with pytest.raises(PreconditionError) as err:
            build()
        assert str(err.value) == message
    if name in ("line", "image"):
        # tracking._blocks pairs a leg with its reverse only within a kind
        circle = ArcSegment(rec.end + 1.0, 1.0, math.pi, 3.0 * math.pi)
        assert _blocks([rec, circle, rec.reversed()]) == [(0, 1, 2, 3)]
        assert _blocks([rec, circle, other.reversed()]) == []
