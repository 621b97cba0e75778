"""Certified predictor-corrector transport of labeled root bundles.

Each step moves the parameter a along a piece of the path, predicts
every root by the first-order motion dz = da / f'(z), and corrects with
full Newton to residual CORRECTOR_TOL.  The step size comes from Smale's
alpha theory, which certifies that no label changes root on the way.

For g(z) = f(z) - a with f(z) = z + e^z, at a point z:

* beta = |f(z) - a| / |f'(z)|, the length of the Newton step;
* gamma = sup_{k>=2} |f^(k)(z) / (k! f'(z))|^{1/(k-1)}, which here has a
  closed form (gamma_bound), since every derivative of order >= 2 is
  e^z; it does not depend on a;
* alpha = beta gamma.

The alpha theorem (Blum, Cucker, Shub & Smale, "Complexity and Real
Computation", 1998, ch. 8, with the uniqueness radius in the sharp form
of Wang Xinghua and Han Danfu): when alpha < ALPHA0 =
(13 - 3 sqrt 17) / 4, Newton from z converges quadratically to a zero
within 2 beta of z, and when alpha <= 3 - 2 sqrt 2 that zero is the
only one within (1 + alpha + sqrt(1 - 6 alpha + alpha^2)) / (4 gamma)
of z, which is at least 0.43 / gamma for alpha <= ALPHA_STEP.

Step lemma, the univariate form of Xu, Burr & Yap ("An approach for
certifying homotopy continuation paths: univariate case", ISSAC 2018)
and Beltran & Leykin ("Certified numerical homotopy tracking",
Exp. Math. 21, 2012).  Let a piece of the path stay within `reach` of
its start (segment.reach bounds the sup of |a(t) - a(u)| over the
piece, not the chord), let d_min be the bundle's least pairwise
distance, and for every root z_i

    reach <= |f'(z_i)| (min(ALPHA_STEP / gamma_i, d_min / 4) - beta_i).

Along the piece beta_i grows to at most beta_i + reach / |f'(z_i)|, so
alpha stays at most ALPHA_STEP, and the ball of radius
R_i = 2 (beta_i + reach / |f'(z_i)|) <= min(0.2 / gamma_i, d_min / 2)
around z_i holds exactly one root of f = a(t) for every t on the piece:
the root that carries label i moves inside it.  The balls are pairwise
disjoint, so no two labels can exchange.  step_control returns the
largest such reach.  A step is accepted only when 2 max R_i <= d_min
(the balls are checked disjoint outright, since sizing lets a piece
exceed its allowance by a relative 1e-7) and every corrected root z_i'
has alpha(z_i') < ALPHA0 and |z_i' - z_i| + 2 beta_i' <= R_i, which
puts the zero Newton converges to from z_i' inside the ball: it is the
root that label i followed.  Residuals are the binary64 values; the
certificate carries no rounding-error bounds.

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

from .equation import FAMILY, nearest_critical, newton
from .errors import PreconditionError, StepUnderflowError
from .jsonio import atomic_write_text
from .paths import ParamPath
from .rootsets import LabeledRootSet, RootEntry, _near_merge_pairs, min_separation

_CORRECTOR_MAX_ITER = 8
_GROWTH = 1.6
NEAR_CRITICAL_RADIUS = 1e-3
CORRECTOR_TOL = 1e-12
MIN_STEP = 1e-9
# the most steps a max_step cap may ask for
STEP_BUDGET = 1_000_000
# Smale's constant: alpha below it makes a point an approximate zero.
ALPHA0 = (13.0 - 3.0 * math.sqrt(17.0)) / 4.0
# The alpha every root may reach within a step, with margin below ALPHA0.
ALPHA_STEP = 0.1

# gamma_bound: the terms k = 2..12 as (k!, 1 / (k - 1)), the tail by e / 13
_GAMMA_TERMS = tuple((float(math.factorial(k)), 1.0 / (k - 1)) for k in range(2, 13))
_GAMMA_TAIL = math.e / 13.0


@dataclass
class TrackReport:
    steps_accepted: int = 0
    steps_rejected: int = 0
    max_residual: float = 0.0
    max_alpha: float = 0.0
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


def gamma_bound(d: complex) -> float:
    """Upper bound on Smale's gamma of z + e^z - a at a point where
    f'(z) = 1 + e^z = d.

    Every f^(k), k >= 2, is e^z, so with r = |e^z| / |f'(z)| gamma is
    sup_{k>=2} (r / k!)^{1/(k-1)}.  For r >= 2/3 the k = 2 term r / 2 is
    the sup, since (r/2)^{k-1} >= r / k! there (k! >= 2 * 3^{k-2}).
    Otherwise every term with k >= 13 is at most (1/k!)^{1/(k-1)}
    <= e / k <= e / 13 (from k! >= (k/e)^k), so the max of the terms
    k = 2..12 and e / 13 bounds gamma.  e^z is read off f' as d - 1: no
    exp is taken.
    """
    r = abs(d - 1.0) / abs(d) if d else math.inf
    if r >= 2.0 / 3.0:
        return 0.5 * r
    return max(_GAMMA_TAIL, *((r / fact) ** power for fact, power in _GAMMA_TERMS))


def step_control(dmin: float, certs, max_step: float | None = None) -> float:
    """Largest certified reach for the next step (see the module docstring).

    certs holds (|f'_i|, beta_i, gamma_i) per root; the result is
    min_i |f'_i| (min(ALPHA_STEP / gamma_i, dmin / 4) - beta_i), capped
    by max_step when one is set, and inf for an empty bundle.
    """
    quarter = 0.25 * dmin
    allowed = min(
        (fa * (min(ALPHA_STEP / g, quarter) - b) for fa, b, g in certs), default=math.inf
    )
    return allowed if max_step is None else min(allowed, max_step)


def _certify(d: complex, residual: float) -> tuple[float, float, float]:
    """(|f'|, beta, gamma) at a root where f' = d and |f - a| = residual."""
    fa = abs(d)
    return fa, residual / fa if fa else math.inf, gamma_bound(d)


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
    residuals = []
    for e in start.entries:
        if e.multiplicity != 1:
            raise PreconditionError(
                f"label {e.label} is a multiplicity-{e.multiplicity} cluster; "
                f"move the basepoint away from the critical value"
            )
        fz = FAMILY.eval(e.z)
        r0 = abs(fz - start.a)
        if r0 > 10.0 * CORRECTOR_TOL:
            raise PreconditionError(
                f"label {e.label} starts with residual {r0:.3g}"
            )
        residuals.append(abs(fz - path.start))  # tracking starts at path.start
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
    certs = list(map(_certify, derivs, residuals))

    report = TrackReport(
        min_pairwise_distance=dmin,
        max_alpha=max((b * g for _, b, g in certs), default=0.0),
    )
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
            allowed = step_control(dmin, certs, max_step)
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
            half_dmin = 0.5 * dmin
            new_zs, new_derivs, new_res, new_certs = [], [], [], []
            alpha_max = 0.0
            for z, d, (fa, b, _) in zip(zs, derivs, certs):
                corrected = newton(z + step_a / d, a_next, CORRECTOR_TOL, _CORRECTOR_MAX_ITER)
                if corrected is None:
                    break
                z_new, res, d_new = corrected
                cert = _certify(d_new, res)
                alpha = cert[1] * cert[2]
                # root i stays inside the ball of this radius along the piece
                radius = 2.0 * (b + reach / fa)
                if not (
                    alpha < ALPHA0
                    and radius <= half_dmin
                    and abs(z_new - z) + 2.0 * cert[1] <= radius
                ):
                    break
                alpha_max = max(alpha_max, alpha)
                new_zs.append(z_new)
                new_res.append(res)
                new_derivs.append(d_new)
                new_certs.append(cert)
            if len(new_zs) < len(zs):
                report.steps_rejected += 1
                du *= 0.5
                if reach * 0.5 < MIN_STEP:
                    raise _underflow("rejection halving fell below", i_seg + u, a_cur)
                continue
            dmin = min_separation(new_zs)
            report.min_pairwise_distance = min(report.min_pairwise_distance, dmin)
            report.max_alpha = max(report.max_alpha, alpha_max)
            report.max_residual = max(report.max_residual, max(new_res, default=0.0))
            zs, derivs, certs = new_zs, new_derivs, new_certs
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
