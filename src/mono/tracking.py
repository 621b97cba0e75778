"""Certified predictor-corrector transport of labeled root bundles.

Each step moves the parameter a along a piece of the path, predicts
every root by the first-order motion dz = da / f'(z), and corrects with
full Newton to equation's residual rule.  A Rouche disc around every
root sizes the step and certifies that no label changes root on the way.

The disc.  Around a root z_i of f(z) = z + e^z write E = |e^{z_i}|,
F = |f'(z_i)|, u = w - z_i and rho_i = res_i + tau_i, the computed
|f(z_i) - a| plus its rounding floor (equation.rounding_floor), which
bounds the exact one.  Then f(w) - a = f(z_i) - a + f'(z_i) u +
e^{z_i} (e^u - 1 - u) exactly, and the last term is at most
exp_tail(E, R) on |u| = R, so whenever rho_i < S(R) = F R - exp_tail(E, R),
f = a has exactly one zero in |u| < R and none on |u| = R (Rouche).

The step.  R_i = min(log1p(F / E), d_min / 2) is the maximiser of S,
capped so that the discs are pairwise disjoint (d_min is the bundle's
least pairwise distance).  Let a piece of the path stay within `reach`
of its start (segment.reach bounds the sup of |a(t) - a(u)| over the
piece, not the chord).  When rho_i + reach < S(R_i) for every i, each
disc holds exactly one root of f = a(t) for every t on the piece, and
no root crosses a disc's boundary: the root that carries label i stays
in disc i, and no two labels can exchange.  step_control returns the
largest such reach, min_i (S(R_i) - rho_i); report.max_load records the
largest (rho_i + reach) / S(R_i) over accepted steps, which the
certificate keeps below 1.

Acceptance.  A corrected root z' with rho' = res' + tau' is accepted
when exp_tail(|e^{z'}|, s) < rho' with s = 2 rho' / |f'(z')|, which
proves a zero within s of z', and when |z' - z_i| + s <= R_i, which puts
that zero in disc i: it is the root that label i followed.
report.max_residual and the trajectory keep the computed res.

A step that fails the test (or whose corrector diverges) is rejected
and halved.  A certified reach below MIN_STEP, which happens as the path
runs into a critical value and two roots merge, aborts with
StepUnderflowError, carrying the arc position and the nearest critical
value.  max_step, when set, caps every step's reach as well, and a cap
that needs more than STEP_BUDGET steps is refused.  Bundles whose roots
start closer than NEAR_CRITICAL_RADIUS are refused, and so is a loop
that carries a root out of the start window.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .equation import FAMILY, exp_tail, nearest_critical, newton, residual_bound, rounding_floor
from .errors import PreconditionError, StepUnderflowError
from .jsonio import atomic_write_text
from .paths import ParamPath
from .rootsets import LabeledRootSet, RootEntry, _near_merge_pairs, min_separation

_CORRECTOR_MAX_ITER = 8
_GROWTH = 1.6
NEAR_CRITICAL_RADIUS = 1e-3
MIN_STEP = 1e-9
# the most steps a max_step cap may ask for
STEP_BUDGET = 1_000_000


@dataclass
class TrackReport:
    steps_accepted: int = 0
    steps_rejected: int = 0
    max_residual: float = 0.0
    max_load: float = 0.0
    min_pairwise_distance: float = math.inf
    trajectory: list = field(default_factory=list)
    # trajectory rows: (arc_param, label, z, a, residual)

    def to_csv(self, path) -> None:
        """Write trajectory rows to path as CSV with columns
        (arc_param, label, re_z, im_z, re_a, im_a, residual)."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["arc_param", "label", "re_z", "im_z", "re_a", "im_a", "residual"])
        for arc, label, z, a, res in self.trajectory:
            w.writerow(
                [f"{arc:.9f}", label, repr(z.real), repr(z.imag),
                 repr(a.real), repr(a.imag), f"{res:.3e}"]
            )
        atomic_write_text(path, buf.getvalue())


def _disc(fa: float, ee: float, half_dmin: float) -> tuple[float, float]:
    """Radius R and bound S(R) of the Rouche disc around a root where
    |f'| = fa and |e^z| = ee, with R capped at half_dmin (module docstring).

    At the maximiser e^R - 1 = F / E, so S(R) = (F + E) R - F there: +inf,
    not NaN, for a lone root whose |e^z| is so small that F / E overflows.
    """
    peak = math.log1p(fa / ee) if ee else math.inf
    if peak <= half_dmin:
        return peak, (fa + ee) * peak - fa
    return half_dmin, fa * half_dmin - exp_tail(ee, half_dmin)


def step_control(discs, rhos, max_step: float | None = None) -> float:
    """Largest certified reach for the next step (see the module docstring).

    discs holds (R_i, S(R_i)) and rhos the bound res_i + tau_i on
    |f(z_i) - a| per root; the result is min_i (S(R_i) - rho_i), capped
    by max_step when one is set, and inf for an empty bundle.
    """
    allowed = min((bound - rho for (_, bound), rho in zip(discs, rhos)), default=math.inf)
    return allowed if max_step is None else min(allowed, max_step)


def _underflow(what: str, arc: float, a: complex) -> StepUnderflowError:
    n_near, d_near = nearest_critical(a)
    return StepUnderflowError(
        f"{what} MIN_STEP {MIN_STEP:g} at arc {arc:.6f} "
        f"(nearest critical value index {n_near} at distance {d_near:.3g})",
        arc_param=arc,
        nearest_critical=(n_near, d_near),
    )


def track_bundle(
    start: LabeledRootSet,
    path: ParamPath,
    *,
    max_step: float | None = None,
    record: bool = False,
) -> tuple[LabeledRootSet, TrackReport]:
    """Transport every root of the start set along the path.

    Returns the end set (same labels, transported positions, a = path
    end) and a report.  The start set must sit at the path start, with
    simple well-separated roots; bundles flagged near-merge are refused,
    since labels would be ambiguous from the outset.  max_step, if set,
    caps each step's reach in the a-plane; record fills report.trajectory.
    """
    if max_step is not None:
        if not MIN_STEP < max_step:
            raise PreconditionError(
                f"max_step must exceed MIN_STEP {MIN_STEP:g}, got {max_step!r}"
            )
        # a step covers about max_step of path at most; the polyline is no
        # longer than the path
        pts = path.sample(0.05)
        need = sum(abs(q - p) for p, q in zip(pts, pts[1:])) / max_step
        if need > STEP_BUDGET:
            raise PreconditionError(
                f"max_step {max_step:g} needs at least {math.ceil(need)} steps "
                f"along this path, over STEP_BUDGET {STEP_BUDGET}; raise max_step"
            )
    if abs(path.start - start.a) > 1e-9:
        raise PreconditionError(
            f"path starts at {path.start!r} but bundle sits at {start.a!r}"
        )
    residuals, rhos, derivs = [], [], []
    for e in start.entries:
        if e.multiplicity != 1:
            raise PreconditionError(
                f"label {e.label} is a multiplicity-{e.multiplicity} cluster; "
                f"move the basepoint away from the critical value"
            )
        fz, d = FAMILY.eval(e.z), FAMILY.deriv(e.z)
        tau, bound = residual_bound(e.z, path.start, d)
        r0 = abs(fz - start.a)
        if r0 > bound:
            raise PreconditionError(f"label {e.label} starts with residual {r0:.3g}")
        res = abs(fz - path.start)  # tracking starts at path.start
        residuals.append(res)
        rhos.append(res + tau)
        derivs.append(d)
    labels = [e.label for e in start.entries]
    zs = [complex(e.z) for e in start.entries]
    # bundle state carried from one accepted step to the next
    dmin = min_separation(zs)
    if dmin < NEAR_CRITICAL_RADIUS:
        raise PreconditionError(
            f"bundle separation {dmin:.3g} below "
            f"NEAR_CRITICAL_RADIUS {NEAR_CRITICAL_RADIUS:g}"
        )
    # (|f'|, |e^z|) per root
    scales = [(abs(d), math.exp(z.real)) for z, d in zip(zs, derivs)]

    report = TrackReport(min_pairwise_distance=dmin)
    a_cur = path.start
    if record:
        for lab, z, res in zip(labels, zs, residuals):
            report.trajectory.append((0.0, lab, z, a_cur, res))

    for i_seg, seg in enumerate(path.segments):
        if seg.reach(0.0, 1.0) == 0.0:  # a constant segment moves nothing
            continue
        u = 0.0
        du = 0.25
        while u < 1.0:
            du = min(du, 1.0 - u)
            half_dmin = 0.5 * dmin
            discs = [_disc(fa, ee, half_dmin) for fa, ee in scales]
            allowed = step_control(discs, rhos, max_step)
            if not allowed >= MIN_STEP:  # NaN included
                raise _underflow("cannot certify a step above", i_seg + u, a_cur)
            # geometric sizing: shrink du until the piece's reach fits
            for _ in range(80):
                u_next = 1.0 if 1.0 - (u + du) < 1e-14 else u + du
                reach = seg.reach(u, u_next)
                if reach <= allowed * 1.0000001 or reach == 0.0:
                    break
                du *= max(0.1, 0.9 * allowed / reach)
            else:
                raise StepUnderflowError(
                    "step sizing failed to settle",
                    arc_param=i_seg + u,
                    nearest_critical=nearest_critical(a_cur),
                )
            if reach < MIN_STEP and u_next < 1.0:
                raise _underflow("step fell below", i_seg + u, a_cur)

            a_next = seg.point(u_next)
            step_a = a_next - a_cur
            am = abs(a_next)
            new_zs, new_derivs, new_res, new_rhos, new_scales = [], [], [], [], []
            load_max = 0.0
            for z, d, (radius, bound), rho in zip(zs, derivs, discs, rhos):
                # sizing lets reach exceed its allowance by a relative 1e-7,
                # so the piece's certificate is checked outright
                load = (rho + reach) / bound
                if not load < 1.0:
                    break
                corrected = newton(z + step_a / d, a_next, _CORRECTOR_MAX_ITER)
                if corrected is None:
                    break
                z_new, res_new, d_new = corrected
                fa, ee = abs(d_new), math.exp(z_new.real)
                rho_new = res_new + rounding_floor(abs(z_new), ee, am, fa)
                s = 2.0 * rho_new / fa if fa else math.inf
                # a zero lies within s of z_new, and so inside disc i
                if not (exp_tail(ee, s) < rho_new and abs(z_new - z) + s <= radius):
                    break
                load_max = max(load_max, load)
                new_zs.append(z_new)
                new_res.append(res_new)
                new_rhos.append(rho_new)
                new_derivs.append(d_new)
                new_scales.append((fa, ee))
            if len(new_zs) < len(zs):
                report.steps_rejected += 1
                du *= 0.5
                if reach * 0.5 < MIN_STEP:
                    raise _underflow("rejection halving fell below", i_seg + u, a_cur)
                continue
            dmin = min_separation(new_zs)
            report.min_pairwise_distance = min(report.min_pairwise_distance, dmin)
            report.max_load = max(report.max_load, load_max)
            report.max_residual = max(report.max_residual, max(new_res, default=0.0))
            zs, derivs, rhos, scales = new_zs, new_derivs, new_rhos, new_scales
            a_cur = a_next
            u = u_next
            report.steps_accepted += 1
            if record:
                for lab, z, res in zip(labels, zs, new_res):
                    report.trajectory.append((i_seg + u, lab, z, a_cur, res))
            du = min(du * _GROWTH, 1.0)

    # A window asserts "all roots in here"; transport to a different
    # parameter value voids that claim, so only closed paths keep it.
    window = start.window if path.closed else None
    for lab, z in zip(labels, zs):
        if window is not None and not window.contains(z):
            raise PreconditionError(
                f"the loop{f' around a_{path.encircles[0]}' if path.encircles else ''} "
                f"carries label {lab} to {z!r}, outside the window {window}; widen it (--window)"
            )
    entries = tuple(RootEntry(lab, z) for lab, z in zip(labels, zs))
    return LabeledRootSet(a_cur, entries, _near_merge_pairs(entries), window), report
