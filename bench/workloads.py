"""The benchmark's workloads: fixed state, jobs and output checks.

Importing this module imports mono, so the caller times the import as
part of set-up.  Every call into mono goes through a module attribute
(``rootwindow.find_roots``, never a name bound at import time), so the
tracer in ``tracer.py`` sees the calls it rebinds.

Each job runs the program and checks its output against an expectation
derived here, independently of the code under test:

* which labels a keyhole loop swaps follows from the order of the
  oracle roots by height (see ``keyhole_swap``);
* group orders follow from the transposition graph (``closure_order``);
* words are checked against products composed here, not by
  ``mono.permutation``;
* located roots are matched against ``oracle_roots``, the closed-form
  route that shares no code with contour counting.

A failed check raises ``CheckFailed``; the runner counts it as a failed
job.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from typing import Callable, NamedTuple

from mono import cli, lambertw, paths, permutation, rootwindow, tracking
from mono.rootsets import Window

RHO = 0.5
GENERATORS = (-2, -1, 0, 1, 2)
W5_ARG = "-5,5,-6,18"
W5 = Window(*map(float, W5_ARG.split(",")))
W19 = Window(-5.0, 5.0, -60.0, 60.0)
W19_ROOTS = 19
ORACLE_BRANCHES = range(-12, 13)
ORACLE_TOL = 1e-9
RESIDUAL_MAX = 1e-12


class CheckFailed(Exception):
    """A job's output disagrees with its expectation."""


class Job(NamedTuple):
    name: str
    run: Callable[[], None]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- expectations ---------------------------------------------------------


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q (the order in which loops are traversed)."""
    return tuple(q[p[i] - 1] for i in range(len(p)))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, img in enumerate(p, start=1):
        inv[img - 1] = i
    return tuple(inv)


def keyhole_swap(by_height: list[int], real: int, n: int, left: bool) -> tuple[int, int]:
    """Labels swapped by the keyhole loop around a_n.

    by_height lists labels by increasing imaginary part.  With the
    corridor left of the critical line re(a) = -1 the loop is homotopic
    to the composite loop, which swaps the real root with the k-th root
    above it (k = n + 1 for n >= 0) or below it (k = -n for n < 0).  A
    corridor right of the line passes a_0 .. a_{n-1} on their right,
    which conjugates that swap into one of the (k-1)-th and k-th roots.
    """
    i = by_height.index(real)
    k = n + 1 if n >= 0 else n
    partner = by_height[i + k]
    if left or abs(k) == 1:
        return tuple(sorted((real, partner)))
    step = 1 if k > 0 else -1
    return tuple(sorted((by_height[i + k - step], partner)))


def closure_order(n: int, swaps) -> tuple[int, bool]:
    """Order of the group generated by transpositions, and transitivity.

    Such a group is the direct product of the symmetric groups on the
    connected components of the transposition graph.
    """
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in swaps:
        parent[find(i)] = find(j)
    sizes: dict[int, int] = {}
    for label in range(1, n + 1):
        root = find(label)
        sizes[root] = sizes.get(root, 0) + 1
    return math.prod(math.factorial(s) for s in sizes.values()), len(sizes) == 1


def _oracle_layout(a: complex, window: Window, count: int) -> tuple[list[int], int]:
    """Labels by height and the real root's label, from the oracle roots."""
    oracle = lambertw.oracle_roots(a, ORACLE_BRANCHES, window=window)
    if len(oracle) != count:
        raise CheckFailed(f"oracle finds {len(oracle)} roots in {window}, expected {count}")
    by_height = [e.label for e in sorted(oracle.entries, key=lambda e: e.z.imag)]
    real = [e.label for e in oracle.entries if abs(e.z.imag) < 1e-9]
    if len(real) != 1:
        raise CheckFailed(f"expected one real root at a = {a}, found {len(real)}")
    return by_height, real[0]


def _check_against_oracle(found, a: complex) -> None:
    """found must hold W19_ROOTS simple roots, each within ORACLE_TOL of a
    distinct oracle root in the effective window."""
    _require(len(found) == W19_ROOTS, f"a = {a}: {len(found)} roots, expected {W19_ROOTS}")
    _require(found.total_multiplicity() == W19_ROOTS, f"a = {a}: merged roots reported")
    _require(not found.near_merge_pairs, f"a = {a}: near-merge pairs {found.near_merge_pairs}")
    oracle = lambertw.oracle_roots(a, ORACLE_BRANCHES, window=found.window)
    expected = [e.z for e in oracle.entries]
    _require(len(expected) == W19_ROOTS, f"a = {a}: oracle has {len(expected)} roots in window")
    for e in found.entries:
        dists = sorted((abs(e.z - z), k) for k, z in enumerate(expected))
        d, k = dists[0]
        _require(d <= ORACLE_TOL, f"a = {a}: root {e.z} is {d:.3g} from the nearest oracle root")
        expected.pop(k)


# -- group-w5: the user's CLI commands on the five-root window ------------


def _run_cli(argv: list[str]) -> tuple[int, dict]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if not text:
        raise CheckFailed(f"{' '.join(argv)}: exit {code}, no output; stderr: {err.getvalue()!r}")
    return code, json.loads(text)


def _group_job(loops: tuple[int, ...], corridor: str | None, gens: dict) -> Job:
    argv = ["group", "--loops=" + ",".join(map(str, loops)), "--window=" + W5_ARG]
    if corridor is not None:
        argv.append("--corridor-re=" + corridor)
    size = len(gens[loops[0]][0])
    order, transitive = closure_order(size, [gens[n][1] for n in loops])

    def run():
        code, out = _run_cli(argv)
        _require(code == 0, f"{argv}: exit {code}")
        got = [tuple(g["images"]) for g in out["generators"]]
        _require(got == [gens[n][0] for n in loops], f"{argv}: generators {got}")
        _require(out["order"] == order, f"{argv}: order {out['order']} != {order}")
        _require(out["transitive"] is transitive, f"{argv}: transitive {out['transitive']}")
        _require(out["cap_exceeded"] is False, f"{argv}: closure cap exceeded")
        _require(out["labels"] == list(range(1, size + 1)), f"{argv}: labels {out['labels']}")

    return Job(" ".join(argv), run)


def _homotopy_job(n: int, corridor: str | None, left: dict, keyhole: dict) -> Job:
    argv = ["homotopy-check", "--n", str(n), "--window=" + W5_ARG]
    if corridor is not None:
        argv.append("--corridor-re=" + corridor)
    equal = left[n][0] == keyhole[n][0]

    def run():
        code, out = _run_cli(argv)
        _require(code == (0 if equal else 1), f"{argv}: exit {code}")
        _require(out["equal"] is equal, f"{argv}: equal {out['equal']}")
        _require(tuple(out["composite"]["images"]) == left[n][0], f"{argv}: composite {out['composite']['cycle_string']}")
        _require(tuple(out["keyhole"]["images"]) == keyhole[n][0], f"{argv}: keyhole {out['keyhole']['cycle_string']}")
        _require(out["windings_around_a_n"] == {"composite": 1, "keyhole": 1}, f"{argv}: windings {out['windings_around_a_n']}")

    return Job(" ".join(argv), run)


def setup_group(seed: int) -> list[Job]:
    by_height, real = _oracle_layout(0j, W5, 5)
    loops = (-1, 0, 1, 2)

    def table(left):
        out = {}
        for n in loops:
            i, j = keyhole_swap(by_height, real, n, left)
            out[n] = (transposition(5, i, j), (i, j))
        return out

    left, right = table(True), table(False)
    jobs = [_group_job(loops, None, left), _group_job(loops, "0.5", right)]
    jobs += [_homotopy_job(n, None, left, left) for n in loops]
    jobs.append(_homotopy_job(2, "0.5", left, right))  # right corridor: not homotopic, exit 1
    random.Random(seed).shuffle(jobs)
    return jobs


# -- words-w19: loop words tracked whole on the 19-root bundle -------------


def _track(bundle, path):
    end, report = tracking.track_bundle(bundle, path)
    _require(report.max_residual < RESIDUAL_MAX, f"max_residual {report.max_residual:.3g}")
    return permutation.extract_permutation(bundle, end).images


def _generator_job(bundle, n: int, expected: tuple[int, ...]) -> Job:
    def run():
        got = _track(bundle, paths.keyhole_loop(n, RHO))
        _require(got == expected, f"keyhole n={n}: {got}")

    return Job(f"keyhole {n}", run)


def _word_job(bundle, word: list[tuple[int, int]], gens: dict) -> Job:
    product = tuple(range(1, len(bundle) + 1))
    for n, _sign in word:
        product = compose(product, gens[n])  # each letter is an involution
    name = " ".join(f"{n}{'' if sign > 0 else '^-1'}" for n, sign in word)

    def run():
        legs = []
        for n, sign in word:
            leg = paths.keyhole_loop(n, RHO)
            legs.append(leg if sign > 0 else leg.reverse())
        path = paths.concat(*legs)
        got = _track(bundle, path)
        _require(got == product, f"word {name}: {got} != {product}")
        back = _track(bundle, path.reverse())
        _require(back == inverse(product), f"reversed word {name}: {back}")

    return Job(f"word {name}", run)


def setup_words(seed: int) -> list[Job]:
    bundle = rootwindow.find_roots(0j, W19)
    _check_against_oracle(bundle, 0j)
    by_height, real = _oracle_layout(0j, bundle.window, W19_ROOTS)
    gens = {n: transposition(W19_ROOTS, *keyhole_swap(by_height, real, n, True)) for n in GENERATORS}
    rng = random.Random(seed)
    jobs = [_generator_job(bundle, n, gens[n]) for n in GENERATORS]
    # The letter multisets are fixed, so every job costs the same for all
    # seeds: one word of each length L, made of the first L generators.
    # The seed draws the order of the letters and whether each is the
    # loop or its reverse.
    for length in (1, 2, 3, 4):
        letters = list(GENERATORS[:length])
        rng.shuffle(letters)
        jobs.append(_word_job(bundle, [(n, rng.choice((1, -1))) for n in letters], gens))
    rng.shuffle(jobs)
    return jobs


# -- roots-w19: contour root location at seeded basepoints -----------------

# Real anchors put the real root on the quadtree's horizontal split line;
# -0.41 sits in the band near -0.45 where location costs about 3x more.
REAL_ANCHORS = (-3.25, -2.25, -1.25, -0.41, 1.25, 2.25, 3.25)
OFF_AXIS_ANCHORS = tuple(
    complex(x, y) for x in (-3.0, -1.0, 1.0, 3.0) for y in (-2.25, -0.75, 0.75, 2.25)
)
REAL_JITTER = 0.01
OFF_AXIS_JITTER = 0.02


def basepoints(seed: int) -> list[complex]:
    """a = 0, then each anchor moved by a seeded offset.

    Location cost is piecewise constant in a, with rare narrow spikes
    (6x at a = 1, 13x near a = -0.46), so fully random basepoints
    would make pass time depend on the seed.  Small offsets keep each
    basepoint's cost class while giving every seed its own inputs.
    """
    rng = random.Random(seed)
    out = [0j]
    out += [complex(x + rng.uniform(-REAL_JITTER, REAL_JITTER), 0.0) for x in REAL_ANCHORS]
    for c in OFF_AXIS_ANCHORS:
        r = OFF_AXIS_JITTER * math.sqrt(rng.random())
        out.append(c + cmath.rect(r, 2 * math.pi * rng.random()))
    return out


def _roots_job(a: complex) -> Job:
    def run():
        _check_against_oracle(rootwindow.find_roots(a, W19), a)

    return Job(f"roots a={a}", run)


def setup_roots(seed: int) -> list[Job]:
    jobs = [_roots_job(a) for a in basepoints(seed)]
    random.Random(seed).shuffle(jobs)
    return jobs


SETUP = {
    "group-w5": setup_group,
    "words-w19": setup_words,
    "roots-w19": setup_roots,
}
# Tail percentile per workload: fixed so that it picks the same job
# within a pass from run to run, and low enough to leave at least ten
# samples beyond it in a run of the length BENCHMARK.json sets.
TAIL_PERCENTILE = {
    "group-w5": 90,
    "words-w19": 80,
    "roots-w19": 90,
}
