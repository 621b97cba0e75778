"""Command line interface.

Every command prints one canonical-JSON document on stdout;
--json-out additionally writes it to a file atomically, before stdout.
Exit codes: 0 success, 1 completed with a non-clean verdict (near-merge
warning, cross-check mismatch), 2 precondition violation (an unwritable
output path included), 3 numerical failure.
Each option is declared once, in OPTIONS, with the parser that types
it; COMMANDS lists each subcommand's options and their defaults, and
build_parser generates the flags from both tables.  A JSON config file
(--config) supplies per-command values under the same names; explicit
flags win over the config, which wins over built-in defaults, and the
winner goes through the option's parser whichever source it came from.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .equation import critical_point, nearest_critical
from .errors import MonoError, NumericalError, PreconditionError, UnmatchedRootError
from .jsonio import atomic_write_text, canonical_json, complex_to_json
from .lambertw import MAX_BRANCH, oracle_roots
from .paths import (
    DEFAULT_RHO,
    KEYHOLE_CORRIDOR_RE,
    ParamPath,
    circle_path,
    composite_loop,
    keyhole_loop,
    loop_around,
)
from .permutation import cycles, extract_permutation, group_order, is_transposition
from .rootsets import Window, match_positions
from .rootwindow import find_roots
from .tracking import track_bundle

DEFAULT_WINDOW = "-5,5,-6,18"
EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


def _scalar(kind: type, accepts: tuple):
    """Strict parser: values of the accepted types only, never a bool
    where a number is wanted, so a config value is typed like its flag."""

    def parse(v):
        if isinstance(v, accepts) and (kind is bool or not isinstance(v, bool)):
            try:
                return kind(v)
            except ValueError:
                pass
        raise PreconditionError(f"expected {kind.__name__}, got {v!r}")

    return parse


_int = _scalar(int, (int, str))
_float = _scalar(float, (int, float, str))
_bool = _scalar(bool, (bool,))
_str = _scalar(str, (str,))
_number = _scalar(float, (int, float))


def _parse_complex(s) -> complex:
    try:
        if isinstance(s, (int, float)):
            return complex(_number(s))
        if isinstance(s, (list, tuple)) and len(s) == 2:
            return complex(_number(s[0]), _number(s[1]))
        txt = str(s).strip()
        if "," in txt:
            re_s, im_s = txt.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(txt.replace(" ", ""))
    except (TypeError, ValueError, PreconditionError):
        raise PreconditionError(f"complex value must be re,im, got {s!r}") from None


def _parse_window(s) -> Window:
    parts = s if isinstance(s, (list, tuple)) else str(s).split(",")
    try:
        bounds = [_float(v) for v in parts]
    except PreconditionError:
        bounds = []
    if len(bounds) != 4:
        raise PreconditionError(f"window must be re_min,re_max,im_min,im_max, got {s!r}")
    return Window(*bounds)


def _parse_loops(raw) -> list[int]:
    try:
        parts = [v for v in raw.split(",") if v.strip()] if isinstance(raw, str) else list(raw)
        return [_int(v) for v in parts]
    except (TypeError, PreconditionError):
        raise PreconditionError(
            f"loops must be comma-separated critical indices, got {raw!r}"
        ) from None


# name -> (parser, help); a flag is --name with "_" spelled "-", and
# options parsed by _bool are store_true flags
OPTIONS = {
    "n_from": (_int, "first critical index"),
    "n_to": (_int, "last critical index"),
    "a": (_parse_complex, "parameter, as re,im"),
    "k_from": (_int, "first Lambert W branch"),
    "k_to": (_int, "last Lambert W branch"),
    "window": (_parse_window, "re_min,re_max,im_min,im_max"),
    "compare": (_bool, "cross-check against the contour root finder"),
    "path": (_str, "keyhole, composite, loop or circle"),
    "n": (_int, "critical index"),
    "rho": (_float, "radius around the critical value"),
    "turns": (_int, "number of turns"),
    "corridor_re": (_float, "real part of the keyhole corridor"),
    "center": (_parse_complex, "circle center, as re,im"),
    "csv_out": (_str, "write trajectory CSV here"),
    "control_winding_zero": (_bool, "use a winding-0 corridor as keyhole (negative control)"),
    "loops": (_parse_loops, "comma-separated critical indices, e.g. -1,0,1,2"),
    "which": (_str, "all or comma-separated figure names"),
}


def _config_section(args) -> dict:
    if not getattr(args, "config", None):
        return {}
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
    section = cfg.get(args.command, {})
    if not isinstance(section, dict):
        raise PreconditionError(f"config section {args.command!r} must be an object")
    return section


def _resolve(args, defaults: dict) -> argparse.Namespace:
    """Set each of the command's options on args to the flag, else the
    config value, else the default, passed through the option's parser.
    Only an option whose default is None may be left None."""
    section = _config_section(args)
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise PreconditionError(f"unknown keys {unknown} in config section {args.command!r}")
    for key, default in defaults.items():
        flag = getattr(args, key)
        value = flag if flag is not None else section.get(key, default)
        if value is not None or default is not None:
            try:
                value = OPTIONS[key][0](value)
            except PreconditionError as exc:
                raise PreconditionError(f"{args.command}.{key}: {exc}") from None
        setattr(args, key, value)
    return args


def cmd_critical(o) -> tuple[dict, int]:
    if o.n_from > o.n_to:
        raise PreconditionError("need n_from <= n_to")
    pts = [critical_point(n) for n in range(o.n_from, o.n_to + 1)]
    spacing_err = 0.0
    for p, q in zip(pts, pts[1:]):
        spacing_err = max(spacing_err, abs((q.a - p.a) - 2j * math.pi))
    return {
        "command": "critical",
        # every critical point is first order (equation.critical_point)
        "points": [
            {"n": p.n, "z": complex_to_json(p.z), "a": complex_to_json(p.a), "order": 1}
            for p in pts
        ],
        "spacing_2pi_max_error": spacing_err,
    }, EXIT_OK


def cmd_roots(o) -> tuple[dict, int]:
    rs = find_roots(o.a, o.window)
    n_crit, d_crit = nearest_critical(o.a)
    payload = {
        "command": "roots",
        "a": complex_to_json(o.a),
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


def cmd_oracle(o) -> tuple[dict, int]:
    k_from, k_to = (-3 if o.k_from is None else o.k_from), (3 if o.k_to is None else o.k_to)
    if k_from > k_to:
        raise PreconditionError("need k_from <= k_to")
    rs = oracle_roots(o.a, range(k_from, k_to + 1), window=o.window)
    payload = {
        "command": "oracle",
        "a": complex_to_json(o.a),
        "k_range": [k_from, k_to],
        "count": len(rs),
        "roots": rs.to_json()["roots"],
        "near_merge_pairs": [list(p) for p in rs.near_merge_pairs],
    }
    code = EXIT_OK
    if o.compare:
        w = o.window if o.window is not None else _parse_window(DEFAULT_WINDOW)
        if o.k_from is None and o.k_to is None:
            # the branches whose roots can lie in w (|Im W| <= e^re_max, |Im W_k - 2k pi| <= 2 pi)
            top = math.exp(min(w.re_max, 700.0))
            lo, hi = max(o.a.imag - w.im_max, -top), min(o.a.imag - w.im_min, top)
            k0, k1 = math.floor(lo / (2 * math.pi)) - 1, math.ceil(max(lo, hi) / (2 * math.pi)) + 1
            if k0 < -MAX_BRANCH or k1 > MAX_BRANCH:
                raise PreconditionError(f"the window needs branches {k0}..{k1}, past {MAX_BRANCH}")
            rs = oracle_roots(o.a, range(k0, k1 + 1))
        located = find_roots(o.a, w)
        inside = [e.z for e in rs if located.window.contains(e.z)]
        try:
            _, worst = match_positions(inside, [e.z for e in located.entries], 1e-9)
        except UnmatchedRootError as exc:
            worst, code = exc.distance, EXIT_VERDICT
        payload["compare"] = {
            "window": located.window.to_json(),
            "contour_count": located.total_multiplicity(),
            "oracle_count_in_window": len(inside),
            "match": code == EXIT_OK,
            "worst_distance": worst,
        }
    return payload, code


def _build_path(o) -> ParamPath:
    if o.path == "keyhole":
        return keyhole_loop(o.n, o.rho, corridor_re=o.corridor_re)
    if o.path == "composite":
        return composite_loop(o.n, o.rho)
    if o.path == "loop":
        return loop_around(o.n, o.rho, o.turns)
    if o.path == "circle":
        return circle_path(o.center, o.rho, o.turns)
    raise PreconditionError(f"unknown path kind {o.path!r}")


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


def _report_block(report) -> dict:
    keys = ("steps_accepted", "steps_rejected", "legs_reused", "max_residual", "max_load")
    return {key: getattr(report, key) for key in keys}


def cmd_track(o) -> tuple[dict, int]:
    path = _build_path(o)
    start = find_roots(path.start, o.window)
    end, report = track_bundle(start, path, record=bool(o.csv_out))
    payload = {
        "command": "track",
        "path": path.to_json(),
        "window": start.window.to_json(),
        "start": start.to_json(),
        "end": end.to_json(),
        "report": _report_block(report),
        "permutation": _permutation_block(start, end),
    }
    if o.csv_out:
        report.to_csv(_out_path(o, o.csv_out))
        payload["csv"] = _out_path(o, o.csv_out)
    return payload, EXIT_OK


def cmd_loop(o) -> tuple[dict, int]:
    path = loop_around(o.n, o.rho, o.turns)
    start = find_roots(path.start, o.window)
    end, report = track_bundle(start, path)
    payload = {
        "command": "loop",
        "n": o.n,
        "rho": o.rho,
        "turns": o.turns,
        "basepoint": complex_to_json(path.start),
        "window": start.window.to_json(),
        "start": start.to_json(),
        "permutation": _permutation_block(start, end),
        "report": _report_block(report),
    }
    return payload, EXIT_OK


def cmd_homotopy_check(o) -> tuple[dict, int]:
    composite = composite_loop(o.n, o.rho)
    keyhole = keyhole_loop(o.n, o.rho, corridor_re=o.corridor_re)
    if o.control_winding_zero:
        # negative control: corridor out and back, no circle, winding 0
        segs = keyhole.segments
        mid = len(segs) // 2
        keyhole = ParamPath(segs[:mid] + segs[mid + 1 :])
    start = find_roots(0j, o.window)
    end_c, _ = track_bundle(start, composite)
    end_k, _ = track_bundle(start, keyhole)
    block_c = _permutation_block(start, end_c)
    block_k = _permutation_block(start, end_k)
    a_n = critical_point(o.n).a
    equal = block_c["images"] == block_k["images"]
    payload = {
        "command": "homotopy-check",
        "n": o.n,
        "rho": o.rho,
        "corridor_re": o.corridor_re,
        "window": start.window.to_json(),
        "composite": block_c,
        "keyhole": block_k,
        "windings_around_a_n": {
            "composite": composite.winding_number(a_n),
            "keyhole": keyhole.winding_number(a_n),
        },
        "equal": equal,
    }
    return payload, EXIT_OK if equal else EXIT_VERDICT


def cmd_group(o) -> tuple[dict, int]:
    if not o.loops:
        raise PreconditionError("no loop indices given")
    start = find_roots(0j, o.window)
    gens = []
    gen_blocks = []
    for n in o.loops:
        path = keyhole_loop(n, o.rho, corridor_re=o.corridor_re)
        end, _ = track_bundle(start, path)
        perm = extract_permutation(start, end)
        gens.append(perm)
        gen_blocks.append(
            {"n": n, "cycle_string": perm.cycle_string(), "images": list(perm.images)}
        )
    closure = group_order(gens)
    payload = {
        "command": "group",
        "window": start.window.to_json(),
        "labels": list(start.labels()),
        "rho": o.rho,
        "corridor_re": o.corridor_re,
        "generators": gen_blocks,
        "order": closure.order,
        "cap_exceeded": closure.cap_exceeded,
        "transitive": closure.transitive,
        "factorial_of_label_count": math.factorial(len(start.labels())),
    }
    return payload, EXIT_OK


def cmd_figures(o) -> tuple[dict, int]:
    from .figures import FIGURES  # only this command draws, so only it loads figures

    names = list(FIGURES) if o.which == "all" else [w.strip() for w in o.which.split(",")]
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        raise PreconditionError(f"unknown figures {unknown}; available: {sorted(FIGURES)}")
    manifest = {}
    for name in names:
        svg = FIGURES[name]()
        path = _out_path(o, f"fig_{name}.svg")
        atomic_write_text(path, svg)
        manifest[name] = path
    return {"command": "figures", "written": manifest}, EXIT_OK


def _out_path(args, name: str) -> str:
    if os.path.isabs(name):
        return name
    out_dir = getattr(args, "out_dir", None) or os.environ.get("MONO_OUT") or "."
    return os.path.join(out_dir, name)


# name -> (handler, help, {option: default})
COMMANDS = {
    "critical": (cmd_critical, "critical points and values a_n = -1 + (2n+1) pi i",
                 {"n_from": -3, "n_to": 3}),
    "roots": (cmd_roots, "locate roots in a window by contour counting",
              {"a": "0,0", "window": DEFAULT_WINDOW}),
    "oracle": (cmd_oracle, "closed-form roots a - W_k(e^a)",
               {"a": "0,0", "k_from": None, "k_to": None, "window": None, "compare": False}),
    "track": (cmd_track, "transport a root bundle along a path",
              {"path": "keyhole", "n": 0, "rho": DEFAULT_RHO, "turns": 1,
               "corridor_re": KEYHOLE_CORRIDOR_RE, "center": "0,0", "window": DEFAULT_WINDOW,
               "csv_out": None}),
    "loop": (cmd_loop, "simple circle around a critical value",
             {"n": 0, "rho": DEFAULT_RHO, "turns": 1, "window": DEFAULT_WINDOW}),
    "homotopy-check": (cmd_homotopy_check, "composite loop vs keyhole loop around the same a_n",
                       {"n": 0, "rho": DEFAULT_RHO, "corridor_re": KEYHOLE_CORRIDOR_RE,
                        "window": DEFAULT_WINDOW, "control_winding_zero": False}),
    "group": (cmd_group, "group generated by keyhole loop permutations",
              {"loops": "-1,0,1,2", "rho": DEFAULT_RHO, "corridor_re": KEYHOLE_CORRIDOR_RE,
               "window": DEFAULT_WINDOW}),
    "figures": (cmd_figures, "write SVG figures", {"which": "all"}),
}


# built once: a build costs about 2 ms, and in-process callers call main often
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Global flags live on a parent parser with SUPPRESS defaults so they are
    # accepted both before and after the subcommand name.  With a plain
    # default the subparser pass would overwrite a value parsed earlier.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON file with per-command option values")
    common.add_argument("--out-dir", dest="out_dir", help="output directory (or $MONO_OUT)")
    common.add_argument("--json-out", dest="json_out", help="also write the JSON result here")
    common.add_argument("--seed", type=int, help="recorded in output for reproducibility")

    ap = argparse.ArgumentParser(
        prog="mono",
        description="Monodromy of z + e^z = a: root windows, loops, permutations.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for key in defaults:
            parse, option_help = OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if parse is _bool:
                p.add_argument(flag, dest=key, action="store_true", default=None,
                               help=option_help)
            else:
                p.add_argument(flag, dest=key, help=option_help)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, defaults = COMMANDS[args.command]
    try:
        payload, code = handler(_resolve(args, defaults))
        if getattr(args, "seed", None) is not None:
            payload["seed"] = args.seed
        text = canonical_json(payload)
        if getattr(args, "json_out", None):
            atomic_write_text(_out_path(args, args.json_out), text)
    except PreconditionError as exc:
        sys.stderr.write(f"precondition error: {exc}\n")
        return EXIT_PRECONDITION
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except MonoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
