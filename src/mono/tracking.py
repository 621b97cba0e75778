"""Predictor-corrector transport of labeled root bundles along paths.

Each accepted step moves the parameter a along the path by at most
max_step, predicts every root by the first-order motion dz = da / f'(z),
and corrects with full Newton back to residual CORRECTOR_TOL.  The step
size is additionally capped by COLLISION_FRACTION * d_min * min|f'|,
which keeps every predicted move below a third of the current minimum
root separation, so labels cannot jump between roots mid-flight.  The
bundle's f' values come from the corrector (equation.newton returns
f' at each accepted root) and its d_min from one numpy distance
matrix (rootsets.min_separation); both are carried to the next step.
Steps that fail to correct (a non-finite corrector start included) are
rejected and halved; halving below MIN_STEP aborts with the nearest
critical value attached, since stalling happens exactly when the path
runs into one.  Bundles whose roots start closer than
NEAR_CRITICAL_RADIUS are refused.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .equation import FAMILY, nearest_critical, newton
from .errors import CollisionError, PreconditionError, StepUnderflowError
from .jsonio import atomic_write_text
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
CORRECTOR_TOL = 1e-12
MIN_STEP = 1e-9


@dataclass(frozen=True)
class TrackConfig:
    max_step: float = 0.05
    record_trajectories: bool = False

    def __post_init__(self):
        if not MIN_STEP < self.max_step:
            raise PreconditionError(
                f"max_step must exceed MIN_STEP {MIN_STEP:g}, got {self.max_step!r}"
            )


@dataclass
class TrackReport:
    steps_accepted: int = 0
    steps_rejected: int = 0
    max_residual: float = 0.0
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


def step_control(dmin: float, derivs, da_proposed, cfg: TrackConfig) -> float:
    """Largest admissible |da| given the bundle's d_min and its f' values.

    Caps the proposal by max_step and by
    COLLISION_FRACTION * d_min * min|f'|: since each root moves by about
    da / f'(z), this bounds every predicted displacement by
    COLLISION_FRACTION times the minimum separation.
    """
    step = min(cfg.max_step, abs(da_proposed))
    if len(derivs) >= 2:
        step = min(step, COLLISION_FRACTION * dmin * min(map(abs, derivs)))
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
        if r0 > 10.0 * CORRECTOR_TOL:
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
            if da < MIN_STEP and u_next < 1.0:
                n_near, d_near = nearest_critical(a_cur)
                raise StepUnderflowError(
                    f"step fell below MIN_STEP {MIN_STEP:g} "
                    f"(nearest critical value index {n_near} at distance {d_near:.3g})",
                    arc_param=i_seg + u,
                    nearest_critical=(n_near, d_near),
                )

            step_a = a_next - a_cur
            basin = COLLISION_FRACTION * dmin
            new_zs = []
            new_derivs = []
            worst = 0.0
            for z, d in zip(zs, derivs):
                if d == 0:
                    break
                predicted = z + step_a / d
                corrected = newton(predicted, a_next, CORRECTOR_TOL, _CORRECTOR_MAX_ITER)
                # corrector must stay inside the predictor's basin
                if corrected is None or abs(corrected[0] - predicted) > basin:
                    break
                new_zs.append(corrected[0])
                new_derivs.append(corrected[2])
                worst = max(worst, corrected[1])
            if len(new_zs) < len(zs):
                report.steps_rejected += 1
                du *= 0.5
                est = da * 0.5
                if est < MIN_STEP:
                    n_near, d_near = nearest_critical(a_cur)
                    raise StepUnderflowError(
                        f"rejection halving fell below MIN_STEP near arc {i_seg + u:.6f} "
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
            derivs = new_derivs
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
