"""Acceptance gate: the headline numerical claims, one verdict line each.

Each criterion prints "ACCEPTANCE k: PASS/FAIL - summary" as it runs
(visible with pytest -s) and registers the verdict for the terminal
summary hook in conftest, so the lines always appear at the end of a
pytest run.  Run order matters only for criterion 8, which audits the
residuals accumulated by the earlier tracking criteria and adds a run
of its own when executed alone.
"""

import cmath
import math
import time

import numpy as np
import pytest

import conftest
from conftest import W3, W4, W5
from mono.equation import (
    FAMILY,
    critical_point,
    critical_value,
    nearest_critical,
    newton,
    real_root,
)
from mono.errors import UnmatchedRootError
from mono.figures import FIGURES
from mono.lambertw import oracle_roots
from mono.paths import composite_loop, concat, keyhole_loop
from mono.permutation import (
    Permutation,
    compose,
    extract_permutation,
    group_order,
    inverse,
    is_transposition,
)
from mono.rootsets import Window, match_positions
from mono.rootwindow import find_roots
from mono.tracking import track_bundle

SEED = 20250817
_residuals: list[float] = []


def _verdict(num: int, desc: str, ok: bool):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _track(bundle, path, **options):
    end, rep = track_bundle(bundle, path, **options)
    _residuals.append(rep.max_residual)
    return end, rep


def _perm(bundle, path):
    end, _ = _track(bundle, path)
    return extract_permutation(bundle, end)


def test_criterion_1_critical_lattice():
    ok = True
    for n in range(-50, 51):
        cp = critical_point(n)
        ok &= cp.a == complex(-1.0, (2 * n + 1) * math.pi)
        ok &= abs(FAMILY.deriv(cp.z)) <= 1e-12
        ok &= abs(FAMILY.eval(cp.z) - cp.a) <= 1e-12
        ok &= abs(abs(cmath.exp(cp.z)) - 1.0) <= 1e-12  # first order: |f''| = 1
        if n < 50:
            ok &= abs(critical_value(n + 1) - cp.a - 2j * math.pi) <= 1e-12
    _verdict(1, "critical lattice a_n = -1 + (2n+1) pi i, first order, 2 pi i spaced", ok)


def test_criterion_2_real_root():
    x = real_root()
    ok = abs(x + math.exp(x)) < 1e-14
    ok &= -0.5672 < x < -0.5671
    ok &= abs(x - (-0.5671432904097838)) < 1e-15
    # image of the real line bottoms out at 2x, left of the critical line
    ok &= 2 * x < -1.0
    _verdict(2, "unique real root x = -0.56714..., |x + e^x| < 1e-14, 2x < -1", ok)


def test_criterion_3_random_parameters_match_oracle():
    rng = np.random.default_rng(SEED)
    win = Window(-5.0, 5.0, -12.0, 12.0)
    ok = True
    checked = 0
    while checked < 50:
        a = complex(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        if nearest_critical(a)[1] < 0.05:
            continue
        found = find_roots(a, win)
        ref = oracle_roots(a, range(-6, 7), window=found.window)
        try:  # refuses differing counts too
            match_positions(found.positions(), ref.positions(), 1e-9)
        except UnmatchedRootError:
            ok = False
        checked += 1
    _verdict(3, "50 random parameters: contour roots equal closed-form roots to 1e-9", ok)


def test_criterion_4_keyhole_transpositions_and_shrink(bundle5):
    expected = {-1: (1, 2), 0: (1, 3), 1: (1, 4), 2: (1, 5)}
    ok = True
    for n, pair in expected.items():
        p = _perm(bundle5, keyhole_loop(n, 0.5))
        is_swap, got = is_transposition(p)
        ok &= is_swap and got == pair

    # as the circle shrinks, the swapped pair closes in on the critical
    # point at the sqrt(2 rho) rate of a first-order merge.  Each label
    # keeps its own step schedule, so the pair is compared at the arc
    # positions either label recorded: there the other label's root at
    # the same a is polished by Newton from its nearest recorded row.
    z2 = critical_point(2).z
    approach = {}
    for rho in (0.5, 0.1):
        end, rep = _track(bundle5, keyhole_loop(2, rho), record=True)
        rows = {1: [], 5: []}
        for arc, lab, z, a, _r in rep.trajectory:
            if lab in rows:
                rows[lab].append((arc, z, a))
        closest = math.inf
        for lab, partner in ((1, 5), (5, 1)):
            for arc, z, a in rows[lab]:
                _, z_near, _ = min(rows[partner], key=lambda row: abs(row[0] - arc))
                z_partner, _, _ = newton(z_near, a, 8)
                closest = min(closest, max(abs(z - z2), abs(z_partner - z2)))
        approach[rho] = closest
    ok &= abs(approach[0.5] - 0.986935) < 0.02
    ok &= abs(approach[0.1] - 0.448009) < 0.01
    ok &= abs(approach[0.1] - math.sqrt(0.2)) < 0.01
    _verdict(4, "keyhole loops give (1 2),(1 3),(1 4),(1 5); pair -> z_n like sqrt(2 rho)", ok)


def test_criterion_5_composite_equals_keyhole(bundle5):
    t0 = time.perf_counter()
    ok = True
    for n in (0, 2):
        comp = composite_loop(n, 0.5)
        key = keyhole_loop(n, 0.5)
        ok &= comp.winding_number(critical_value(n)) == 1
        ok &= key.winding_number(critical_value(n)) == 1
        ok &= _perm(bundle5, comp) == _perm(bundle5, key)
    ok &= (time.perf_counter() - t0) < 120.0
    _verdict(5, "composite and keyhole loops agree for n = 0 and n = 2, within budget", ok)


def test_criterion_6_group_closure(bundle5, bundle3):
    gens5 = [_perm(bundle5, keyhole_loop(n, 0.5)) for n in (-1, 0, 1, 2)]
    res5 = group_order(gens5)
    ok = res5.order == 120 and not res5.cap_exceeded
    ok &= res5.transitive
    gens3 = [_perm(bundle3, keyhole_loop(n, 0.5)) for n in (-1, 0)]
    ok &= group_order(gens3).order == 6
    _verdict(6, "five-root loops close to order 120 (= 5!) transitive; three-root to 6", ok)


def test_criterion_7_word_homomorphism(bundle4):
    rng = np.random.default_rng(SEED)
    gen_paths = {n: keyhole_loop(n, 0.5) for n in (-1, 0, 1)}
    gen_perms = {n: _perm(bundle4, p) for n, p in gen_paths.items()}
    ok = True
    for _ in range(20):
        length = int(rng.integers(1, 5))
        word = [int(rng.choice([-1, 0, 1])) for _ in range(length)]
        path = concat(*[gen_paths[n] for n in word])
        direct = _perm(bundle4, path)
        product = Permutation.identity(4)
        for n in word:
            product = compose(product, gen_perms[n])
        ok &= direct == product
        backward = _perm(bundle4, path.reverse())
        ok &= backward == inverse(direct)
    _verdict(7, "20 random loop words track to the product of their letters; inverses invert", ok)


def test_criterion_8_transport_fidelity(bundle5):
    out = keyhole_loop(2, 0.5)
    mid, rep_out = _track(bundle5, out)
    back, rep_back = _track(mid, out.reverse())
    worst_return = max(
        abs(back.position(l) - bundle5.position(l)) for l in bundle5.labels()
    )
    ok = worst_return < 1e-8
    ok &= all(r < 1e-12 for r in _residuals)
    _verdict(8, "every accepted step keeps residual < 1e-12; reverse transport returns to 1e-8", ok)


def test_criterion_9_figures(tmp_path):
    import json
    import re

    anchor_re = re.compile(r'<metadata id="anchors">(.*?)</metadata>', re.S)
    ok = True
    anchors = {}
    for name, fn in FIGURES.items():
        svg = fn()
        target = tmp_path / f"fig_{name}.svg"
        target.write_text(svg)
        ok &= target.stat().st_size > 500
        m = anchor_re.search(svg)
        ok &= m is not None
        anchors[name] = json.loads(m.group(1)) if m else {}

    ok &= abs(anchors["real_graph"]["real_root"] - (-0.5671432904097838)) < 1e-12
    for k, (re_a, im_a) in enumerate(anchors["parameter_path"]["critical_values"]):
        ok &= re_a == -1.0 and abs(im_a - (2 * k + 1) * math.pi) < 1e-12
    ok &= anchors["root_trajectories"]["labels_moved"] == [1, 5]
    w = anchors["keyhole"]["windings"]
    n_enc = anchors["keyhole"]["n"]
    ok &= w[str(n_enc)] == 1 and all(v == 0 for k, v in w.items() if k != str(n_enc))
    _verdict(9, "four SVG figures render with anchor data consistent with criteria 1, 2, 4", ok)
