"""Predictor-corrector transport of labeled root bundles along paths.

Each accepted step moves the parameter a along the path by at most
max_step, predicts every root by the first-order motion dz = da / f'(z),
and corrects with full Newton back to residual corrector_tol.  The step
size is additionally capped by COLLISION_FRACTION * d_min * min|f'|,
which keeps every predicted move below a third of the current minimum
root separation, so labels cannot jump between roots mid-flight.  The
bundle's d_min and its f' values are computed once per accepted step
and carried to the next one.  Steps that fail to correct are rejected
and halved; halving below min_step aborts with the nearest critical
value attached, since stalling happens exactly when the path runs into
one.  Bundles whose roots start closer than NEAR_CRITICAL_RADIUS are
refused.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .equation import FAMILY, nearest_critical, newton
from .errors import (
    CollisionError,
    PreconditionError,
    StepUnderflowError,
)
from .paths import ParamPath
from .rootsets import LabeledRootSet, RootEntry, _near_merge_pairs, min_separation

_CORRECTOR_MAX_ITER = 8
_GROWTH = 1.6
_COLLISION_ABORT = 1e-6
# Every predicted root move is capped at COLLISION_FRACTION * d_min.  Two
# roots closing on each other move a combined 2 * fraction * d_min, so
# anything above 1/2 could let them cross in a single step.
COLLISION_FRACTION = 1.0 / 3.0
NEAR_CRITICAL_RADIUS = 1e-3


@dataclass(frozen=True)
class TrackConfig:
    corrector_tol: float = 1e-12
    max_step: float = 0.05
    min_step: float = 1e-9
    record_trajectories: bool = False

    def __post_init__(self):
        if self.corrector_tol <= 0:
            raise PreconditionError("corrector_tol must be positive")
        if not (0 < self.min_step < self.max_step):
            raise PreconditionError("need 0 < min_step < max_step")


@dataclass
class TrackReport:
    steps_accepted: int = 0
    steps_rejected: int = 0
    max_residual: float = 0.0
    min_pairwise_distance: float = math.inf
    trajectory: list = field(default_factory=list)
    # trajectory rows: (arc_param, label, z, a, residual)

    def to_csv(self, target) -> None:
        """Write trajectory rows as CSV with columns
        (arc_param, label, re_z, im_z, re_a, im_a, residual)."""

        def write(fh):
            w = csv.writer(fh)
            w.writerow(["arc_param", "label", "re_z", "im_z", "re_a", "im_a", "residual"])
            for arc, label, z, a, res in self.trajectory:
                w.writerow(
                    [f"{arc:.9f}", label, repr(z.real), repr(z.imag),
                     repr(a.real), repr(a.imag), f"{res:.3e}"]
                )

        if isinstance(target, (str,)) or hasattr(target, "__fspath__"):
            with open(target, "w", newline="") as fh:
                write(fh)
        else:
            write(target)


def step_control(dmin: float, derivs, da_proposed, cfg: TrackConfig) -> float:
    """Largest admissible |da| given the bundle's d_min and its f' values.

    Caps the proposal by max_step and by
    COLLISION_FRACTION * d_min * min|f'|: since each root moves by about
    da / f'(z), this bounds every predicted displacement by
    COLLISION_FRACTION times the minimum separation.
    """
    step = min(cfg.max_step, abs(da_proposed))
    if len(derivs) >= 2:
        step = min(step, COLLISION_FRACTION * dmin * min(abs(d) for d in derivs))
    return step


def track_bundle(
    start: LabeledRootSet,
    path: ParamPath,
    cfg: TrackConfig | None = None,
) -> tuple[LabeledRootSet, TrackReport]:
    """Transport every root of the start set along the path.

    Returns the end set (same labels, transported positions, a = path
    end) and a report.  The start set must sit at the path start, with
    simple well-separated roots; bundles flagged near-merge are refused,
    since labels would be ambiguous from the outset.
    """
    cfg = cfg or TrackConfig()
    if abs(path.start - start.a) > 1e-9:
        raise PreconditionError(
            f"path starts at {path.start!r} but bundle sits at {start.a!r}"
        )
    for e in start.entries:
        if e.multiplicity != 1:
            raise PreconditionError(
                f"label {e.label} is a multiplicity-{e.multiplicity} cluster; "
                f"move the basepoint away from the critical value"
            )
        r0 = abs(FAMILY.eval(e.z) - start.a)
        if r0 > 10.0 * cfg.corrector_tol:
            raise PreconditionError(
                f"label {e.label} starts with residual {r0:.3g}"
            )
    labels = [e.label for e in start.entries]
    zs = [complex(e.z) for e in start.entries]
    # bundle state carried from one accepted step to the next
    dmin = min_separation(zs)
    if dmin < NEAR_CRITICAL_RADIUS:
        raise PreconditionError(
            f"bundle separation {dmin:.3g} below "
            f"NEAR_CRITICAL_RADIUS {NEAR_CRITICAL_RADIUS:g}"
        )
    derivs = [FAMILY.deriv(z) for z in zs]

    report = TrackReport(min_pairwise_distance=dmin)
    a_cur = path.start
    if cfg.record_trajectories:
        for lab, z in zip(labels, zs):
            report.trajectory.append((0.0, lab, z, a_cur, abs(FAMILY.eval(z) - a_cur)))

    for i_seg, seg in enumerate(path.segments):
        # constant segments are skipped; a full circle has equal endpoints
        # but a distinct midpoint, so the interior must be probed too
        if abs(seg.end - seg.start) == 0.0 and abs(seg.point(0.5) - seg.start) == 0.0:
            continue
        u = 0.0
        du = 0.25
        while u < 1.0:
            du = min(du, 1.0 - u)
            allowed = step_control(dmin, derivs, cfg.max_step, cfg)
            # geometric sizing: shrink du until the chord fits the cap
            for _ in range(80):
                u_next = 1.0 if 1.0 - (u + du) < 1e-14 else u + du
                a_next = seg.point(u_next)
                da = abs(a_next - a_cur)
                if da <= allowed * 1.0000001 or da == 0.0:
                    break
                du *= max(0.1, 0.9 * allowed / da)
            else:
                raise StepUnderflowError(
                    "step sizing failed to settle",
                    arc_param=i_seg + u,
                    nearest_critical=nearest_critical(a_cur),
                )
            if da < cfg.min_step and u_next < 1.0:
                n_near, d_near = nearest_critical(a_cur)
                raise StepUnderflowError(
                    f"step fell below min_step {cfg.min_step:g} "
                    f"(nearest critical value index {n_near} at distance {d_near:.3g})",
                    arc_param=i_seg + u,
                    nearest_critical=(n_near, d_near),
                )

            step_a = a_next - a_cur
            new_zs = []
            worst = 0.0
            for z, d in zip(zs, derivs):
                if d == 0:
                    break
                predicted = z + step_a / d
                corrected = newton(predicted, a_next, cfg.corrector_tol, _CORRECTOR_MAX_ITER)
                # corrector must stay inside the predictor's basin
                if corrected is None or abs(corrected[0] - predicted) > COLLISION_FRACTION * dmin:
                    break
                new_zs.append(corrected[0])
                worst = max(worst, corrected[1])
            if len(new_zs) < len(zs):
                report.steps_rejected += 1
                du *= 0.5
                est = da * 0.5
                if est < cfg.min_step:
                    n_near, d_near = nearest_critical(a_cur)
                    raise StepUnderflowError(
                        f"rejection halving fell below min_step near arc {i_seg + u:.6f} "
                        f"(nearest critical value index {n_near} at distance {d_near:.3g})",
                        arc_param=i_seg + u,
                        nearest_critical=(n_near, d_near),
                    )
                continue
            dmin = min_separation(new_zs)
            if dmin < _COLLISION_ABORT:
                raise CollisionError(
                    f"roots within {dmin:.3g} at arc {i_seg + u_next:.6f}",
                    arc_param=i_seg + u_next,
                    distance=dmin,
                )
            report.min_pairwise_distance = min(report.min_pairwise_distance, dmin)
            zs = new_zs
            derivs = [FAMILY.deriv(z) for z in zs]
            a_cur = a_next
            u = u_next
            report.steps_accepted += 1
            report.max_residual = max(report.max_residual, worst)
            if cfg.record_trajectories:
                for lab, z in zip(labels, zs):
                    report.trajectory.append(
                        (i_seg + u, lab, z, a_cur, abs(FAMILY.eval(z) - a_cur))
                    )
            du = min(du * _GROWTH, 1.0)

    entries = tuple(
        RootEntry(label=lab, z=z, multiplicity=1) for lab, z in zip(labels, zs)
    )
    # A window asserts "all roots in here"; transport to a different
    # parameter value voids that claim, so only closed paths keep it.
    end_set = LabeledRootSet(
        a=a_cur,
        entries=entries,
        near_merge_pairs=_near_merge_pairs(entries),
        window=start.window if path.closed else None,
    )
    return end_set, report
