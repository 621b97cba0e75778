"""An independent permutation oracle from Lambert W branch bookkeeping.

The roots of z + e^z = a are z_k(a) = a - W_k(e^a).  W_k is analytic off
its cut on the negative real axis, so a root keeps its branch k while e^a
stays off that axis, that is between crossings of the lines
Im a = (2m+1) pi.  Where Im a rises through such a line, e^a reaches the
cut at x = -e^{Re a} from above, where branch k has the limit W_k(x)
(the cut is closed from above), and leaves it below, where branch j has
the limit conj(W_{-j}(x)); matching the two limits by value tells which
branch the root continues on.  Composing the crossings along a closed
path gives the permutation it induces, from lambertw.lambert_w alone:
no tracking and no contour counting.

The map depends on x only through the side of the branch point -1/e,
that is the side of Re a = -1, so a piece of the path that stays on one
side applies it once per line crossed, whatever its shape there.
lambert_w sees the phase of the computed e^a, so the strip a point lies
in is read from that same value (_strip), and a path running along a
line, as keyhole loops do, is classified the way lambert_w evaluates it.
"""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mono.equation import critical_value
from mono.errors import PreconditionError
from mono.lambertw import lambert_w
from mono.paths import LineSegment, ParamPath, circle_path, composite_loop, concat, keyhole_loop
from mono.permutation import extract_permutation
from mono.rootsets import Window
from mono.rootwindow import find_roots
from mono.tracking import _blocks, track_bundle

W19 = Window(-5.0, 5.0, -60.0, 60.0)
TWO_PI = 2.0 * math.pi
# a branch value counts as matched this close, and as distinct this far
_SAME, _APART = 1e-8, 1e-3


def _match(target: complex, values: dict) -> int:
    """The key of the one value equal to target, by distance."""
    dist = sorted((abs(v - target), k) for k, v in values.items())
    assert dist[0][0] < _SAME * (1.0 + abs(target)) and dist[1][0] > _APART, (target, dist[:2])
    return dist[0][1]


def _strip(a: complex) -> int:
    """m with Im a - 2 pi m the phase of the computed e^a, in (-pi, pi]."""
    return round((a.imag - cmath.phase(cmath.exp(a))) / TWO_PI)


def _cross(k: int, x: float, up: bool) -> int:
    """Branch after Im a crosses a line at e^a = x, upward or downward."""
    w = complex(x, 0.0)
    near = range(k - 2, k + 3)
    if up:
        return _match(lambert_w(w, k), {j: lambert_w(w, -j).conjugate() for j in near})
    return _match(lambert_w(w, -k).conjugate(), {j: lambert_w(w, j) for j in near})


def _pieces(seg):
    """Pieces [t0, t1] of seg, in order, each either clear of every line
    Im a = (2m+1) pi or on one side of Re a = -1: one branch map holds
    for all the crossings in it."""
    stack = [(0.0, 1.0)]
    while stack:
        t0, t1 = stack.pop()
        a0, reach = seg.point(t0), seg.reach(t0, t1)
        off_line = abs(math.remainder(a0.imag - math.pi, TWO_PI))
        if reach < max(off_line, abs(a0.real + 1.0)):
            yield t0, t1
        else:
            assert reach > 1e-12, f"path runs through a critical value near {a0}"
            tm = 0.5 * (t0 + t1)
            stack += [(tm, t1), (t0, tm)]


def oracle_permutation(start, path):
    """Images of the start labels under the closed path, or None when a
    root ends outside the start set (it left the window)."""
    a0 = path.start
    branch = {}
    for e in start.entries:
        k0 = round((a0 - e.z).imag / TWO_PI)  # a guess, checked by value
        roots = {k: a0 - lambert_w(cmath.exp(a0), k) for k in range(k0 - 1, k0 + 2)}
        branch[e.label] = _match(e.z, roots)
    strip = _strip(a0)
    for seg in path.segments:
        for t0, t1 in _pieces(seg):
            now = _strip(seg.point(t1))
            if now != strip:
                x = -math.exp(seg.point(t0).real)
                for _ in range(abs(now - strip)):
                    branch = {lab: _cross(k, x, now > strip) for lab, k in branch.items()}
                strip = now
    a1 = path.end
    images = []
    for lab in sorted(branch):
        z = a1 - lambert_w(cmath.exp(a1), branch[lab])
        near = [e.label for e in start.entries if abs(e.z - z) < _SAME * (1.0 + abs(z))]
        if len(near) != 1:
            return None
        images.append(near[0])
    return tuple(images)


@pytest.fixture(scope="module")
def bundles(bundle5):
    return {"W5": bundle5, "W19": find_roots(0j, W19)}


# the critical values each window's roots meet (a_n merges the roots at
# z_n = (2n+1) pi i), and one beyond each end, whose loops can carry a
# root out of the window
_NS = {"W5": range(-2, 4), "W19": range(-10, 10)}


def _clear_of_critical(path, ns, floor=1e-3) -> bool:
    """Every a_n with n in ns lies at least floor from the path."""
    for seg in path.segments:
        for n in ns:
            c = critical_value(n)
            if seg.kind == "line":
                d = seg.z1 - seg.z0
                t = min(1.0, max(0.0, ((c - seg.z0) / d).real)) if d else 0.0
                gap = abs(seg.point(t) - c)
            else:
                gap = abs(abs(c - seg.center) - seg.radius)
            if gap < floor:
                return False
    return True


@st.composite
def _near_critical(draw, ns):
    """A point 2e-3 to 1e-2 from some a_n."""
    n = draw(st.sampled_from(ns))
    return critical_value(n) + cmath.rect(draw(st.floats(2e-3, 1e-2)), draw(st.floats(0.0, TWO_PI)))


@st.composite
def _polyline(draw, ns, height):
    n_vertices = draw(st.integers(2, 5))
    free = st.builds(complex, st.floats(-4.0, 2.0), st.floats(*height))
    vertices = [draw(st.one_of(free, _near_critical(ns))) for _ in range(n_vertices)]
    corners = [0j, *vertices, 0j]
    assume(min(abs(q - p) for p, q in zip(corners, corners[1:])) > 1e-2)
    return ParamPath(tuple(LineSegment(p, q) for p, q in zip(corners, corners[1:])))


@st.composite
def _lasso(draw, ns):
    """Out along a line, round a circle some turns, back along the line;
    the circle passes 2e-3 to 1e-2 from a critical value or encloses it."""
    n = draw(st.sampled_from(ns))
    rho = draw(st.floats(0.1, 1.5))
    gap = draw(st.one_of(st.floats(2e-3, 1e-2), st.floats(-1e-2, -2e-3), st.floats(-0.9, 0.9)))
    center = critical_value(n) + cmath.rect(rho + gap * rho, draw(st.floats(0.0, TWO_PI)))
    turns = draw(st.sampled_from([-2, -1, 1, 2, 3]))
    circle = circle_path(center, rho, turns)
    leg = ParamPath((LineSegment(0j, circle.start),))
    return concat(leg, circle, leg.reverse())


@st.composite
def _word(draw, ns):
    letters = draw(st.lists(st.tuples(st.sampled_from(ns), st.floats(0.1, 0.9), st.booleans()),
                            min_size=1, max_size=4))
    loops = [keyhole_loop(n, rho) for n, rho, _ in letters]
    return concat(*(p.reverse() if back else p for p, (_, _, back) in zip(loops, letters)))


@st.composite
def _closed_path(draw):
    window = draw(st.sampled_from(["W5", "W19"]))
    ns = list(_NS[window])
    height = (-8.0, 18.0) if window == "W5" else (-45.0, 45.0)
    path = draw(st.one_of(_polyline(ns, height), _lasso(ns), _word(ns)))
    assume(_clear_of_critical(path, range(-12, 12)))
    return window, path


@settings(max_examples=200, deadline=None)
@given(case=_closed_path())
def test_tracked_permutation_matches_branch_oracle(bundles, case):
    window, path = case
    start = bundles[window]
    expected = oracle_permutation(start, path)
    try:
        end, _ = track_bundle(start, path)
    except PreconditionError as exc:
        assert "outside the window" in str(exc) and expected is None
        return
    assert expected is not None
    assert extract_permutation(start, end).images == expected


def _full_retrace(path):
    """The same points with each segment of every way home split at its
    midpoint: no segment retraces one on the way out, so no leg is reused."""
    segs = list(path.segments)
    for _, _, j, j1 in reversed(_blocks(segs)):
        halves = []
        for seg in segs[j:j1]:
            mid = 0.5 * (seg.z0 + seg.z1)
            halves += [type(seg)(seg.z0, mid), type(seg)(mid, seg.z1)]
        segs[j:j1] = halves
    return ParamPath(tuple(segs), path.encircles)


@st.composite
def _retraced(draw):
    window = draw(st.sampled_from(["W5", "W19"]))
    ns = list(_NS[window])
    loop = st.sampled_from([keyhole_loop, composite_loop])
    path = draw(st.one_of(st.builds(lambda f, n, rho: f(n, rho), loop, st.sampled_from(ns),
                                    st.floats(0.1, 0.9)), _lasso(ns), _word(ns)))
    # a composite loop keeps its circle clear by construction
    assume(path.segments[0].kind == "image" or _clear_of_critical(path, range(-12, 12)))
    full = _full_retrace(path)
    assume(_blocks(list(path.segments)) and not _blocks(list(full.segments)))
    return window, path, full


def _track_or_refusal(start, path):
    try:
        return track_bundle(start, path)
    except PreconditionError as exc:
        assert "outside the window" in str(exc)
        return str(exc).split(" to ")[0], None


@settings(max_examples=40, deadline=None)
@given(case=_retraced())
def test_reused_legs_match_full_retracing(bundles, case):
    # a way home taken from a partner's way out ends where tracking it
    # step by step does, in no more steps
    window, path, full = case
    start = bundles[window]
    (end, rep), (end_full, rep_full) = _track_or_refusal(start, path), _track_or_refusal(start, full)
    if rep is None or rep_full is None:
        assert end == end_full  # the same label refused, outside the window
        return
    assert extract_permutation(start, end) == extract_permutation(start, end_full)
    assert max(abs(end.position(lab) - end_full.position(lab)) for lab in start.labels()) < 1e-10
    assert rep.steps_accepted <= rep_full.steps_accepted and rep_full.legs_reused == 0


def test_oracle_reads_the_keyhole_transpositions(bundle5):
    # criterion 4's swaps, read off the branches alone
    for n, pair in {-1: (1, 2), 0: (1, 3), 1: (1, 4), 2: (1, 5)}.items():
        images = list(range(1, 6))
        images[pair[0] - 1], images[pair[1] - 1] = pair[1], pair[0]
        assert oracle_permutation(bundle5, keyhole_loop(n, 0.5)) == tuple(images)
