"""Certified predictor-corrector transport of labeled root bundles.

Each root moves along the path on its own step schedule.  A step moves
the parameter a along a piece of the path, predicts the root by the
first-order motion dz = da / f'(z), and corrects with full Newton to
equation's residual rule.  A Rouche disc around the root sizes the step
and certifies that its label does not change root on the way.

The disc.  equation.zero_disc, given a root z_i, its computed residual
res_i and f'(z_i), returns rho_i >= |f(z_i) - a| and the step disc, a
radius R_i and a bound S(R_i): whenever rho_i < S(R_i), exactly one zero
of f = a lies in |w - z_i| < R_i and none on |w - z_i| = R_i (Rouche).

The step.  Let a piece of the path stay within `reach` of its start
(segment.reach bounds the sup of |a(t) - a(u)| over the piece, not the
chord).  When rho_i + reach < S(R_i), Rouche puts exactly one root of
f = a(t) in disc i for every t on the piece, and none on its boundary,
so the root in disc i is the continuation of z_i: label i follows it.  The certificate is the root's
own, so each root is sized by its own disc alone: step_control returns
its largest reach, S(R_i) - rho_i.  The first try on a segment is all of
it, whose reach, start and end track_bundle computes once.  A piece that
ends its segment runs on through each following whole segment while the
summed reaches, joint gaps included (each at most paths.CONTINUITY_TOL,
and counted on every segment's first step), still fit: a(t) stays within
that sum of the a the step starts from, so the same test certifies the
whole piece.  A rejected step halves back inside its own segment.  A
simple root's continuation is unique, so two labels that met would have
started at the same root; roots collide only at a = a_n, where stepping
underflows.  report.max_load records the largest (rho_i + reach) / S(R_i)
over accepted steps, which the certificate keeps below 1, and
report.steps_accepted and steps_rejected count root-steps.

Acceptance.  A corrected root z' is accepted when equation.zero_disc
proves a zero within s of it and |z' - z_i| + s <= R_i, which puts that
zero in disc i: it is the root that label i followed.
report.max_residual and the trajectory keep the computed res.

Retraced legs.  A lasso block P M P^-1 (_blocks: M closed, P walked back
segment by segment) is tracked out and round, and back only where it
must be.  A root whose allowance S(R) - rho at the block start covers
the block's summed reach is held by its disc throughout: M fixes it, it
is no other root's partner, and it keeps its state with no step if its
a is the block end's (else it crosses in one step).  The others stop at
the turn (P's end), so the turn records are complete.  Continuation
along a reversed path is the inverse map, so a root that ends M on the
root some label k held at the turn ends the block on k's root at the
block start, with no step.  A root at z, rho, a after M matches k when
rho_k + |a - a_k| < S(R_k), which puts exactly one root of f = a in k's
turn disc, and |z - z_k| + s <= R_k: the acceptance test's zero within
s of z is that root.  Joint gaps are at most paths.CONTINUITY_TOL and
lie inside certified discs of reach at least MIN_STEP, so moving a
across them changes no root.  A root with no match tracks P^-1 in full;
report.legs_reused counts each way home that a turn record gave.

A step that fails the test (or whose corrector diverges) is rejected
and halved.  A certified reach below MIN_STEP, which happens as the path
runs into a critical value and two roots merge, aborts with
StepUnderflowError, carrying the label, its arc position and the
nearest critical value.  Bundles whose roots start closer than
NEAR_CRITICAL_RADIUS are refused, and so is a loop that carries a root
out of the start window.  record keeps each accepted step's root in
report.trajectory, label by label in arc order, at step ends only: a
step through a segment leaves no row on it, a reused leg replays its
partner's rows on P in reverse, and a root kept in place its last row.
"""

from __future__ import annotations

from .equation import checked_exp, nearest_critical, newton, residual_bound, zero_disc
from .errors import PreconditionError, StepUnderflowError
from .jsonio import atomic_write_text
from .paths import CONTINUITY_TOL, ParamPath
from .rootsets import LabeledRootSet, RootEntry, _close_pairs

_CORRECTOR_MAX_ITER = 8
_GROWTH = 1.6
NEAR_CRITICAL_RADIUS = 1e-3
MIN_STEP = 1e-9


class TrackReport:
    def __init__(self):
        self.steps_accepted = self.steps_rejected = self.legs_reused = 0
        self.max_residual = self.max_load = 0.0
        # rows: (arc_param, label, z, a, residual), label by label
        self.trajectory = []

    def to_csv(self, path) -> None:
        """Write trajectory rows to path as CSV, columns (arc_param, label, re_z, im_z,
        re_a, im_a, residual): numbers, never quoted, rows ending in CRLF as csv's do."""
        rows = ["arc_param,label,re_z,im_z,re_a,im_a,residual"]
        rows += [f"{arc:.9f},{label},{z.real!r},{z.imag!r},{a.real!r},{a.imag!r},{res:.3e}"
                 for arc, label, z, a, res in self.trajectory]
        atomic_write_text(path, "\r\n".join(rows) + "\r\n")


def step_control(disc, rho) -> float:
    """Largest certified reach for a root's next step, S(R) - rho (see
    the module docstring): disc is its (R, S(R)) and rho the bound
    res + tau on |f(z) - a|."""
    return disc[1] - rho


def _underflow(what: str, label: int, arc: float, a: complex) -> StepUnderflowError:
    n_near, d_near = nearest_critical(a)
    return StepUnderflowError(
        f"label {label}: {what} MIN_STEP {MIN_STEP:g} at arc {arc:.6f} "
        f"(nearest critical value index {n_near} at distance {d_near:.3g})",
        label=label,
        arc_param=arc,
        nearest_critical=(n_near, d_near),
    )


def _track_root(label, state, segments, report, rows):
    """Carry one root, state (z, f'(z), rho, a, its disc (R, S(R))), along
    the moving segments on its own step schedule and return its end state;
    each accepted step adds a trajectory row to rows, unless rows is None.
    segments holds (index, segment, gap plus whole reach, whole reach,
    start, end); the gap to each segment is taken from the root's own a."""
    z, d, rho, a_cur, disc = state
    accepted, rejected, max_load, max_res = 0, 0, 0.0, 0.0
    k = 0
    while k < len(segments):
        i_seg, seg, _, whole, start, _ = segments[k]
        gap = abs(start - a_cur)
        u, du = 0.0, 1.0
        while u < 1.0:
            du = 1.0 - u if du > 1.0 - u else du
            allowed = step_control(disc, rho)
            if not allowed >= MIN_STEP:  # NaN included
                raise _underflow("cannot certify a step above", label, i_seg + u, a_cur)
            # geometric sizing: shrink du until the piece's reach fits
            for _ in range(80):
                u_next = 1.0 if 1.0 - (u + du) < 1e-14 else u + du
                reach = gap + (whole if u == 0.0 and u_next == 1.0 else seg.reach(u, u_next))
                if reach <= allowed * 1.0000001 or reach == 0.0:
                    break
                du *= shrink if (shrink := 0.9 * allowed / reach) > 0.1 else 0.1
            else:
                raise StepUnderflowError(
                    f"label {label}: step sizing failed to settle",
                    label=label,
                    arc_param=i_seg + u,
                    nearest_critical=nearest_critical(a_cur),
                )
            if reach < MIN_STEP and u_next < 1.0:
                raise _underflow("step fell below", label, i_seg + u, a_cur)
            # a piece that ends its segment runs on through whole ones that fit
            last = k
            while (u_next == 1.0 and last + 1 < len(segments)
                   and reach + segments[last + 1][2] <= allowed):
                last += 1
                reach += segments[last][2]
            a_next = segments[last][5] if u_next == 1.0 else seg.point(u_next)
            # sizing lets reach exceed its allowance by a relative 1e-7,
            # so the piece's certificate is checked outright
            load = (rho + reach) / disc[1]
            cert = None
            if load < 1.0:
                hit = newton(z + (a_next - a_cur) / d, a_next, _CORRECTOR_MAX_ITER)
                if hit is not None:
                    z_new, res_new, d_new = hit
                    cert = zero_disc(z_new, res_new, d_new, a_next)
            if cert is None or abs(z_new - z) + cert[1] > disc[0]:  # disc[0] is R_i
                rejected += 1
                du *= 0.5
                if reach * 0.5 < MIN_STEP:
                    raise _underflow("rejection halving fell below", label, i_seg + u, a_cur)
                continue
            max_load = load if load > max_load else max_load
            max_res = res_new if res_new > max_res else max_res
            z, d, rho, disc = z_new, d_new, cert[0], cert[2:]
            u, gap, k, a_cur = u_next, 0.0, last, a_next
            accepted += 1
            if rows is not None:
                rows.append((segments[k][0] + u, label, z, a_cur, res_new))
            du *= _GROWTH  # capped at 1 - u as the next try starts
        k += 1
    report.steps_accepted += accepted
    report.steps_rejected += rejected
    report.max_load = max(report.max_load, max_load)
    report.max_residual = max(report.max_residual, max_res)
    return z, d, rho, a_cur, disc


def _blocks(segs):
    """Lasso blocks (i0, i, j, j1) of segs, left to right: P = segs[i0:i],
    a closed M = segs[i:j], and segs[j:j1] equal to P reversed."""
    mate, later = [-1] * len(segs), {}
    for k in range(len(segs) - 1, -1, -1):  # the nearest later reverse of each
        mate[k], later[segs[k]] = later.get(segs[k].reversed(), -1), k
    blocks, i0 = [], 0
    while i0 < len(segs):
        i, j = i0 + 1, mate[i0]
        while i < j and segs[i].reversed() == segs[j - 1]:
            i, j = i + 1, j - 1
        found = i < j and abs(segs[j - 1].end - segs[i].start) <= CONTINUITY_TOL
        if found:
            blocks.append((i0, i, j, mate[i0] + 1))
        i0 = mate[i0] + 1 if found else i0 + 1
    return blocks


def track_bundle(
    start: LabeledRootSet, path: ParamPath, *, record: bool = False
) -> tuple[LabeledRootSet, TrackReport]:
    """Transport every root of the start set along the path.

    Returns the end set (same labels, transported positions, a = path
    end) and a report.  The start set must sit at the path start, with
    simple well-separated roots; bundles flagged near-merge are refused,
    since labels would be ambiguous from the outset.  record fills
    report.trajectory, label by label in arc order.
    """
    if abs(path.start - start.a) > 1e-9:
        raise PreconditionError(
            f"path starts at {path.start!r} but bundle sits at {start.a!r}"
        )
    report = TrackReport()
    states, rows = {}, {}
    for e in start.entries:
        if e.multiplicity != 1:
            raise PreconditionError(
                f"label {e.label} is a multiplicity-{e.multiplicity} cluster; "
                f"move the basepoint away from the critical value"
            )
        ez = checked_exp(e.z)
        fz, d = e.z + ez, 1.0 + ez
        r0 = abs(fz - start.a)
        if r0 > residual_bound(e.z, path.start, d):
            raise PreconditionError(f"label {e.label} starts with residual {r0:.3g}")
        res = abs(fz - path.start)  # tracking starts at path.start
        if (cert := zero_disc(e.z, res, d, path.start)) is None:
            raise PreconditionError(
                f"label {e.label} has no certified one-root disc at the path start"
            )
        states[e.label] = (complex(e.z), d, cert[0], path.start, cert[2:])
        if record:
            rows[e.label] = [(0.0, e.label, complex(e.z), path.start, res)]
    zs = [z for z, *_ in states.values()]
    if close := _close_pairs(zs, NEAR_CRITICAL_RADIUS):
        dmin = min(abs(zs[i] - zs[j]) for i, j in close)
        raise PreconditionError(
            f"bundle separation {dmin:.3g} below "
            f"NEAR_CRITICAL_RADIUS {NEAR_CRITICAL_RADIUS:g}"
        )

    # a constant segment moves nothing
    segments, a_end = [], path.start
    for i, seg in enumerate(path.segments):
        if (whole := seg.reach(0.0, 1.0)) != 0.0:
            a0, a1 = seg.point(0.0), seg.point(1.0)
            segments.append((i, seg, abs(a0 - a_end) + whole, whole, a0, a1))
            a_end = a1

    def run(lab, state, lo, hi):
        return _track_root(lab, state, segments[lo:hi], report, rows.get(lab))

    done = 0
    for i0, i, j, j1 in _blocks([s[1] for s in segments]) + [(len(segments),) * 4]:
        if done < i0:  # the segments between blocks
            for lab, state in states.items():
                states[lab] = run(lab, state, done, i0)
        if i0 == len(segments):
            break
        span, turns, done = sum(s[2] for s in segments[i0:j1]), {}, j1
        for lab, (_, _, rho, a, disc) in states.items():
            if step_control(disc, rho) >= span:  # M fixes it
                if a != segments[j1 - 1][5]:
                    states[lab] = run(lab, states[lab], i0, j1)  # in one step
                elif record:  # it stays put: its row is replayed at the block end
                    rows[lab].append((segments[j1 - 1][0] + 1.0, *rows[lab][-1][1:]))
                continue
            n0 = len(rows.get(lab, ()))
            turn = run(lab, states[lab], i0, i)
            # the block-start state, the rows on P and the turn state
            turns[lab] = (states[lab], rows.get(lab, [])[n0 - 1 : -1], turn)
        for lab, (_, _, turn) in turns.items():
            z, d, rho, a, _ = states[lab] = run(lab, turn, i, j)
            s = 2.0 * rho / abs(d)
            # the zero proved within s of z lies in k's one-root disc; M
            # fixes most roots, so a root's own record is tried first
            for k in (lab, *turns):
                zk, _, rk, ak, (radius, bound) = turns[k][2]
                if rk + abs(a - ak) < bound and abs(z - zk) + s <= radius:
                    break
            else:
                states[lab] = run(lab, states[lab], j, j1)
                continue
            states[lab], p_rows = turns[k][:2]
            report.legs_reused += 1
            if record:  # the arc x on P is the arc flip - x on P reversed
                flip = segments[i][0] + segments[j][0]
                rows[lab] += [(flip - x, lab, *row) for x, _, *row in reversed(p_rows)]
    entries = [RootEntry(lab, z) for lab, (z, *_) in states.items()]
    report.trajectory = [row for lab in states for row in rows.get(lab, ())]

    # A window asserts "all roots in here"; transport to a different
    # parameter value voids that claim, so only closed paths keep it.
    window = start.window if path.closed else None
    for e in entries:
        if window is not None and not window.contains(e.z):
            raise PreconditionError(
                f"the loop{f' around a_{path.encircles[0]}' if path.encircles else ''} "
                f"carries label {e.label} to {e.z!r}, outside the window {window}; "
                f"widen it (--window)"
            )
    return LabeledRootSet(a_end, tuple(entries), window), report
