"""Command line interface.

Every command prints one canonical-JSON document on stdout;
--json-out additionally writes it to a file atomically.  Exit codes:
0 success, 1 completed with a non-clean verdict (near-merge warning,
cross-check mismatch), 2 precondition violation, 3 numerical failure.
A JSON config file (--config) supplies per-command defaults; explicit
flags win over the config, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .equation import critical_point, nearest_critical
from .errors import MonoError, NumericalError, PreconditionError
from .figures import FIGURES
from .jsonio import atomic_write_text, canonical_json
from .lambertw import oracle_roots
from .paths import (
    DEFAULT_RHO,
    KEYHOLE_CORRIDOR_RE,
    ParamPath,
    circle_path,
    composite_loop,
    keyhole_loop,
    loop_around,
)
from .permutation import (
    Generator,
    cycles,
    extract_permutation,
    group_order,
    is_transposition,
    transitivity_check,
)
from .rootsets import Window, match_positions
from .rootwindow import find_roots
from .tracking import TrackConfig, track_bundle

DEFAULT_WINDOW = "-5,5,-6,18"
EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


def _parse_complex(s) -> complex:
    try:
        if isinstance(s, (int, float)):
            return complex(s)
        if isinstance(s, (list, tuple)) and len(s) == 2:
            return complex(s[0], s[1])
        txt = str(s).strip()
        if "," in txt:
            re_s, im_s = txt.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(txt.replace(" ", ""))
    except (TypeError, ValueError):
        raise PreconditionError(f"complex value must be re,im, got {s!r}") from None


def _parse_window(s) -> Window:
    if isinstance(s, Window):
        return s
    parts = s if isinstance(s, (list, tuple)) else str(s).split(",")
    try:
        bounds = [float(v) for v in parts]
    except (TypeError, ValueError):
        bounds = []
    if len(bounds) != 4:
        raise PreconditionError(f"window must be re_min,re_max,im_min,im_max, got {s!r}")
    return Window(*bounds)


def _parse_loops(raw) -> list[int]:
    try:
        if isinstance(raw, str):
            return [int(v) for v in raw.split(",") if v.strip()]
        return [int(v) for v in raw]
    except (TypeError, ValueError):
        raise PreconditionError(
            f"loops must be comma-separated critical indices, got {raw!r}"
        ) from None


def _cpx(z: complex) -> list[float]:
    return [z.real, z.imag]


class _Resolver:
    """Flag > config-file > built-in default."""

    def __init__(self, args, command):
        self.args = args
        self.section = {}
        if getattr(args, "config", None):
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except OSError as exc:
                raise PreconditionError(
                    f"cannot read config file {args.config!r}: {exc.strerror}"
                ) from None
            except ValueError as exc:
                raise PreconditionError(
                    f"config file {args.config!r} is not valid JSON: {exc}"
                ) from None
            if not isinstance(cfg, dict):
                raise PreconditionError("config file must hold a JSON object")
            self.section = cfg.get(command, {})
            if not isinstance(self.section, dict):
                raise PreconditionError(f"config section {command!r} must be an object")

    def get(self, key, default):
        v = getattr(self.args, key, None)
        if v is not None and v is not False:
            return v
        if key in self.section:
            return self.section[key]
        return default


def _track_cfg(r: _Resolver, *, record=False) -> TrackConfig:
    return TrackConfig(
        corrector_tol=float(r.get("corrector_tol", 1e-12)),
        max_step=float(r.get("max_step", 0.05)),
        min_step=float(r.get("min_step", 1e-9)),
        record_trajectories=bool(record),
    )


def cmd_critical(args) -> tuple[dict, int]:
    r = _Resolver(args, "critical")
    n_from = int(r.get("n_from", -3))
    n_to = int(r.get("n_to", 3))
    if n_from > n_to:
        raise PreconditionError("need n_from <= n_to")
    pts = [critical_point(n) for n in range(n_from, n_to + 1)]
    spacing_err = 0.0
    for p, q in zip(pts, pts[1:]):
        spacing_err = max(spacing_err, abs((q.a - p.a) - 2j * math.pi))
    return {
        "command": "critical",
        "points": [
            {"n": p.n, "z": _cpx(p.z), "a": _cpx(p.a), "order": p.order} for p in pts
        ],
        "spacing_2pi_max_error": spacing_err,
    }, EXIT_OK


def cmd_roots(args) -> tuple[dict, int]:
    r = _Resolver(args, "roots")
    a = _parse_complex(r.get("a", "0,0"))
    window = _parse_window(r.get("window", DEFAULT_WINDOW))
    rs = find_roots(a, window)
    n_crit, d_crit = nearest_critical(a)
    payload = {
        "command": "roots",
        "a": _cpx(a),
        "count": rs.total_multiplicity(),
        "roots": rs.to_json()["roots"],
        "near_merge_pairs": [list(p) for p in rs.near_merge_pairs],
        "nearest_critical": {"n": n_crit, "distance": d_crit},
        "window": rs.window.to_json(),
    }
    if rs.has_near_merge():
        payload["warning"] = "near-merge: parameter is at or near a critical value"
        return payload, EXIT_VERDICT
    return payload, EXIT_OK


def cmd_oracle(args) -> tuple[dict, int]:
    r = _Resolver(args, "oracle")
    a = _parse_complex(r.get("a", "0,0"))
    k_from = int(r.get("k_from", -3))
    k_to = int(r.get("k_to", 3))
    window = r.get("window", None)
    window = _parse_window(window) if window is not None else None
    if k_from > k_to:
        raise PreconditionError("need k_from <= k_to")
    ks = range(k_from, k_to + 1)
    rs = oracle_roots(a, ks, window=window)
    payload = {
        "command": "oracle",
        "a": _cpx(a),
        "k_range": [k_from, k_to],
        "count": len(rs),
        "roots": rs.to_json()["roots"],
        "near_merge_pairs": [list(p) for p in rs.near_merge_pairs],
    }
    code = EXIT_OK
    if r.get("compare", False):
        cmp_window = _parse_window(r.get("window", DEFAULT_WINDOW))
        located = find_roots(a, cmp_window)
        inside = [e.z for e in rs if located.window.contains(e.z)]
        ok, worst = match_positions(
            inside, [e.z for e in located.entries], 1e-9
        )
        payload["compare"] = {
            "window": located.window.to_json(),
            "contour_count": located.total_multiplicity(),
            "oracle_count_in_window": len(inside),
            "match": ok,
            "worst_distance": worst if math.isfinite(worst) else None,
        }
        if not ok:
            code = EXIT_VERDICT
    return payload, code


def _build_path(r: _Resolver) -> ParamPath:
    kind = r.get("path", "keyhole")
    n = int(r.get("n", 0))
    rho = float(r.get("rho", DEFAULT_RHO))
    turns = int(r.get("turns", 1))
    corridor = float(r.get("corridor_re", KEYHOLE_CORRIDOR_RE))
    if kind == "keyhole":
        return keyhole_loop(n, rho, corridor_re=corridor)
    if kind == "composite":
        return composite_loop(n, rho)
    if kind == "loop":
        return loop_around(n, rho, turns)
    if kind == "circle":
        center = _parse_complex(r.get("center", "0,0"))
        return circle_path(center, rho, turns)
    raise PreconditionError(f"unknown path kind {kind!r}")


def _permutation_block(start, end) -> dict:
    perm = extract_permutation(start, end)
    is_t, pair = is_transposition(perm)
    return {
        "images": list(perm.images),
        "cycles": [list(c) for c in cycles(perm)],
        "cycle_string": perm.cycle_string(),
        "is_transposition": is_t,
        "transposed_pair": list(pair) if pair else None,
        "is_identity": perm.is_identity(),
    }


def cmd_track(args) -> tuple[dict, int]:
    r = _Resolver(args, "track")
    window = _parse_window(r.get("window", DEFAULT_WINDOW))
    path = _build_path(r)
    csv_out = r.get("csv_out", None)
    start = find_roots(path.start, window)
    cfg = _track_cfg(r, record=bool(csv_out) or bool(r.get("record", False)))
    end, report = track_bundle(start, path, cfg)
    payload = {
        "command": "track",
        "path": path.to_json(),
        "window": start.window.to_json(),
        "start": start.to_json(),
        "end": end.to_json(),
        "report": {
            "steps_accepted": report.steps_accepted,
            "steps_rejected": report.steps_rejected,
            "max_residual": report.max_residual,
            "min_pairwise_distance": report.min_pairwise_distance,
        },
    }
    if path.closed:
        payload["permutation"] = _permutation_block(start, end)
    if csv_out:
        report.to_csv(_out_path(args, csv_out))
        payload["csv"] = _out_path(args, csv_out)
    return payload, EXIT_OK


def cmd_loop(args) -> tuple[dict, int]:
    r = _Resolver(args, "loop")
    n = int(r.get("n", 0))
    rho = float(r.get("rho", DEFAULT_RHO))
    turns = int(r.get("turns", 1))
    window = _parse_window(r.get("window", DEFAULT_WINDOW))
    path = loop_around(n, rho, turns)
    start = find_roots(path.start, window)
    end, report = track_bundle(start, path, _track_cfg(r))
    payload = {
        "command": "loop",
        "n": n,
        "rho": rho,
        "turns": turns,
        "basepoint": _cpx(path.start),
        "window": start.window.to_json(),
        "start": start.to_json(),
        "permutation": _permutation_block(start, end),
        "report": {
            "steps_accepted": report.steps_accepted,
            "steps_rejected": report.steps_rejected,
            "max_residual": report.max_residual,
        },
    }
    return payload, EXIT_OK


def cmd_homotopy_check(args) -> tuple[dict, int]:
    r = _Resolver(args, "homotopy-check")
    n = int(r.get("n", 0))
    rho = float(r.get("rho", DEFAULT_RHO))
    corridor = float(r.get("corridor_re", KEYHOLE_CORRIDOR_RE))
    window = _parse_window(r.get("window", DEFAULT_WINDOW))
    composite = composite_loop(n, rho)
    keyhole = keyhole_loop(n, rho, corridor_re=corridor)
    if r.get("control_winding_zero", False):
        # negative control: corridor out and back, no circle, winding 0
        segs = keyhole.segments
        mid = len(segs) // 2
        keyhole = ParamPath(segs[:mid] + segs[mid + 1 :], closed=True)
    start = find_roots(0j, window)
    cfg = _track_cfg(r)
    end_c, _ = track_bundle(start, composite, cfg)
    end_k, _ = track_bundle(start, keyhole, cfg)
    block_c = _permutation_block(start, end_c)
    block_k = _permutation_block(start, end_k)
    a_n = critical_point(n).a
    equal = block_c["images"] == block_k["images"]
    payload = {
        "command": "homotopy-check",
        "n": n,
        "rho": rho,
        "corridor_re": corridor,
        "window": start.window.to_json(),
        "composite": block_c,
        "keyhole": block_k,
        "windings_around_a_n": {
            "composite": composite.winding_number(a_n),
            "keyhole": keyhole.winding_number(a_n) if keyhole.closed else None,
        },
        "equal": equal,
    }
    return payload, EXIT_OK if equal else EXIT_VERDICT


def cmd_group(args) -> tuple[dict, int]:
    r = _Resolver(args, "group")
    loop_ns = _parse_loops(r.get("loops", "-1,0,1,2"))
    if not loop_ns:
        raise PreconditionError("no loop indices given")
    rho = float(r.get("rho", DEFAULT_RHO))
    corridor = float(r.get("corridor_re", KEYHOLE_CORRIDOR_RE))
    window = _parse_window(r.get("window", DEFAULT_WINDOW))
    cap = int(r.get("cap", 200000))
    start = find_roots(0j, window)
    cfg = _track_cfg(r)
    gens = []
    gen_blocks = []
    for n in loop_ns:
        path = keyhole_loop(n, rho, corridor_re=corridor)
        end, _ = track_bundle(start, path, cfg)
        perm = extract_permutation(start, end)
        gens.append(Generator(perm, provenance=f"keyhole n={n} rho={rho}"))
        gen_blocks.append(
            {"n": n, "cycle_string": perm.cycle_string(), "images": list(perm.images)}
        )
    closure = group_order(gens, cap=cap)
    payload = {
        "command": "group",
        "window": start.window.to_json(),
        "labels": list(start.labels()),
        "rho": rho,
        "corridor_re": corridor,
        "generators": gen_blocks,
        "order": closure.order,
        "cap_exceeded": closure.cap_exceeded,
        "transitive": transitivity_check(gens),
        "factorial_of_label_count": math.factorial(len(start.labels())),
    }
    return payload, EXIT_OK


def cmd_figures(args) -> tuple[dict, int]:
    r = _Resolver(args, "figures")
    which = r.get("which", "all")
    names = list(FIGURES) if which == "all" else [w.strip() for w in str(which).split(",")]
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        raise PreconditionError(f"unknown figures {unknown}; available: {sorted(FIGURES)}")
    manifest = {}
    for name in names:
        svg = FIGURES[name]()
        path = _out_path(args, f"fig_{name}.svg")
        atomic_write_text(path, svg)
        manifest[name] = path
    return {"command": "figures", "written": manifest}, EXIT_OK


def _out_dir(args) -> str:
    out = getattr(args, "out_dir", None) or os.environ.get("MONO_OUT") or "."
    return out


def _out_path(args, name: str) -> str:
    if os.path.isabs(name):
        return name
    return os.path.join(_out_dir(args), name)


_COMMANDS = {
    "critical": cmd_critical,
    "roots": cmd_roots,
    "oracle": cmd_oracle,
    "track": cmd_track,
    "loop": cmd_loop,
    "homotopy-check": cmd_homotopy_check,
    "group": cmd_group,
    "figures": cmd_figures,
}


def build_parser() -> argparse.ArgumentParser:
    # Global flags live on a parent parser with SUPPRESS defaults so they are
    # accepted both before and after the subcommand name.  With a plain
    # default the subparser pass would overwrite a value parsed earlier.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON file with per-command option defaults")
    common.add_argument("--out-dir", dest="out_dir", help="output directory (or $MONO_OUT)")
    common.add_argument("--json-out", dest="json_out", help="also write the JSON result here")
    common.add_argument("--seed", type=int, help="recorded in output for reproducibility")

    ap = argparse.ArgumentParser(
        prog="mono",
        description="Monodromy of z + e^z = a: root windows, loops, permutations.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("critical", help="critical points and values a_n = -1 + (2n+1) pi i")
    p.add_argument("--n-from", dest="n_from", type=int)
    p.add_argument("--n-to", dest="n_to", type=int)

    p = add_parser("roots", help="locate roots in a window by contour counting")
    p.add_argument("--a", help="parameter, as re,im")
    p.add_argument("--window", help="re_min,re_max,im_min,im_max")

    p = add_parser("oracle", help="closed-form roots a - W_k(e^a)")
    p.add_argument("--a", help="parameter, as re,im")
    p.add_argument("--k-from", dest="k_from", type=int)
    p.add_argument("--k-to", dest="k_to", type=int)
    p.add_argument("--window", help="restrict to a window")
    p.add_argument("--compare", action="store_true",
                   help="cross-check against the contour root finder")

    p = add_parser("track", help="transport a root bundle along a path")
    p.add_argument("--path", choices=["keyhole", "composite", "loop", "circle"])
    p.add_argument("--n", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--turns", type=int)
    p.add_argument("--corridor-re", dest="corridor_re", type=float)
    p.add_argument("--center", help="circle center, as re,im")
    p.add_argument("--window", help="window defining the bundle")
    p.add_argument("--csv-out", dest="csv_out", help="write trajectory CSV here")
    p.add_argument("--max-step", dest="max_step", type=float)

    p = add_parser("loop", help="simple circle around a critical value")
    p.add_argument("--n", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--turns", type=int)
    p.add_argument("--window", help="window defining the bundle")

    p = add_parser("homotopy-check",
                       help="composite loop vs keyhole loop around the same a_n")
    p.add_argument("--n", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--corridor-re", dest="corridor_re", type=float)
    p.add_argument("--window", help="window defining the bundle")
    p.add_argument("--control-winding-zero", dest="control_winding_zero",
                   action="store_true",
                   help="replace the keyhole by a winding-0 corridor (negative control)")

    p = add_parser("group", help="group generated by keyhole loop permutations")
    p.add_argument("--loops", help="comma-separated critical indices, e.g. -1,0,1,2")
    p.add_argument("--rho", type=float)
    p.add_argument("--corridor-re", dest="corridor_re", type=float)
    p.add_argument("--window")
    p.add_argument("--cap", type=int)

    p = add_parser("figures", help="write SVG figures")
    p.add_argument("--which", help="all or comma-separated figure names")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = _COMMANDS[args.command](args)
    except PreconditionError as exc:
        sys.stderr.write(f"precondition error: {exc}\n")
        return EXIT_PRECONDITION
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except MonoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    if getattr(args, "seed", None) is not None:
        payload["seed"] = args.seed
    text = canonical_json(payload)
    sys.stdout.write(text)
    if getattr(args, "json_out", None):
        atomic_write_text(_out_path(args, args.json_out), text)
    return code


if __name__ == "__main__":
    sys.exit(main())
