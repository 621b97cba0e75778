"""Command-line interface: output schemas, exit codes, config resolution.

Most cases drive main() in process; one subprocess test proves the
installed console script works end to end.
"""

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mono
from mono.cli import COMMANDS, main
from mono.equation import critical_point
from mono.lambertw import oracle_roots
from mono.paths import CONTINUITY_TOL, circle_path
from mono.rootsets import Window
from mono.rootwindow import find_roots


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_critical_lattice(capsys):
    code, d, _ = run(capsys, "critical", "--n-from", "-2", "--n-to", "2")
    assert code == 0
    assert len(d["points"]) == 5
    mid = d["points"][2]
    assert mid["n"] == 0
    assert mid["a"] == [-1.0, math.pi]
    assert mid["z"] == [0.0, math.pi]
    assert d["spacing_2pi_max_error"] < 1e-12


def test_critical_empty_range_is_precondition(capsys):
    code, _, err = run(capsys, "critical", "--n-from", "5", "--n-to", "2")
    assert code == 2
    assert "precondition" in err


def test_roots_clean_window(capsys):
    code, d, _ = run(capsys, "roots", "--a=0,0", "--window=-5,5,-6,6")
    assert code == 0
    assert len(d["roots"]) == 3
    labels = [r["label"] for r in d["roots"]]
    assert labels == [1, 2, 3]
    z1 = d["roots"][0]["z"]
    assert abs(z1[0] + 0.5671432904097838) < 1e-10 and abs(z1[1]) < 1e-12
    assert "warning" not in d


def test_roots_near_merge_warns(capsys):
    code, d, _ = run(capsys, "roots", "--a=-1,3.141592653589793", "--window=-1,1,2,4")
    assert code == 1
    # the pair merging at z_0 is one double entry there, not two simple roots
    assert d["count"] == 2 and d["near_merge_pairs"] == []
    assert [(r["multiplicity"], r["z"]) for r in d["roots"]] == [(2, [0.0, math.pi])]
    assert "warning" in d


def test_oracle_compare_match(capsys):
    code, d, _ = run(
        capsys, "oracle", "--a=0.3,-0.2", "--k-from", "-4", "--k-to", "4",
        "--compare", "--window=-5,5,-9,9",
    )
    assert code == 0
    assert d["compare"]["match"] is True
    assert d["compare"]["worst_distance"] < 1e-9


def test_oracle_compare_mismatch_exits_one(capsys):
    # deliberately truncated branch range misses roots inside the window
    code, d, _ = run(
        capsys, "oracle", "--a=0,0", "--k-from", "0", "--k-to", "1",
        "--compare", "--window=-5,5,-9,9",
    )
    assert code == 1
    assert d["compare"]["match"] is False


@pytest.mark.parametrize(
    "window, located",
    [("-5,5,-60,60", 19), ("-5,5,-6,18", 5), ("-5,5,-2000,2000", 47)],
    ids=["tall", "default", "height-2000"],
)
def test_oracle_compare_takes_its_branches_from_the_window(capsys, window, located):
    # with no --k-from or --k-to, the comparison takes every Lambert W
    # branch whose roots can lie in the window (past Re z = 5 the roots
    # rise no higher than e^5), while the listing keeps the default -3..3
    code, d, _ = run(capsys, "oracle", "--a=0,0", f"--window={window}", "--compare")
    assert code == 0
    assert d["k_range"] == [-3, 3] and d["compare"]["match"] is True
    assert d["compare"]["oracle_count_in_window"] == d["compare"]["contour_count"] == located


def test_oracle_compare_refuses_branches_past_the_oracle(capsys):
    # roots up to Re z = 10 reach heights of e^10, so a window 4,000 tall
    # needs branches near |k| = 320, past lambert_w's 64: refused at once
    code, d, err = run(capsys, "oracle", "--a=0,0", "--window=-5,10,-2000,2000", "--compare")
    assert (code, d) == (2, None)
    assert "needs branches -320..320, past 64" in err


def test_oracle_refuses_a_whose_exponential_underflows(capsys):
    code, d, err = run(capsys, "oracle", "--a=-800,0")
    assert (code, d) == (2, None)
    assert err.startswith("precondition error: e^a underflows to 0 at a = (-800+0j)")


def test_track_closed_loop_permutation(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    code, d, _ = run(
        capsys, "track", "--path", "keyhole", "--n", "0",
        "--window=-5,5,-6,6", "--csv-out", str(csv),
    )
    assert code == 0
    assert d["permutation"]["cycle_string"] == "(1 3)"
    assert d["report"]["max_residual"] < 1e-12
    # each of the three roots takes its way home from a partner's way out
    assert d["report"]["legs_reused"] == 3
    header = csv.read_text().splitlines()[0]
    assert header == "arc_param,label,re_z,im_z,re_a,im_a,residual"


@pytest.mark.parametrize(
    "argv, n_roots",
    [
        (["--center=0.5,0", "--rho", "0.3", "--window=-1,0,-1,1"], 1),
        (["--center=1e300,0", "--rho", "0.5"], 0),
    ],
    ids=["one-root", "no-root"],
)
def test_track_below_two_roots_reports_cleanly(capsys, argv, n_roots):
    # a bundle of one root or none tracks like any other: exit 0, the
    # five report fields, and the identity on its labels
    code, d, err = run(capsys, "track", "--path", "circle", *argv)
    assert (code, err) == (0, "")
    assert len(d["start"]["roots"]) == n_roots
    report = d["report"]
    assert set(report) == {"steps_accepted", "steps_rejected", "legs_reused", "max_residual", "max_load"}
    assert (report["steps_accepted"] > 0) == (n_roots > 0)
    assert 0.0 <= report["max_load"] < 1.0 and 0.0 <= report["max_residual"] < 1e-12
    assert d["permutation"]["images"] == list(range(1, n_roots + 1))


def test_track_through_critical_value_names_the_label(capsys):
    # the circle runs through a_0 halfway round: the two roots that merge
    # at z_0 cannot be stepped past it, exit 3, and the message says which
    code, d, err = run(
        capsys, "track", "--path", "circle", "--center=-1.5,3.141592653589793",
        "--rho", "0.5", "--window=-5,5,-6,6",
    )
    assert (code, d) == (3, None)
    start = find_roots(circle_path(complex(-1.5, math.pi), 0.5).start, Window(-5.0, 5.0, -6.0, 6.0))
    pair = sorted(start.entries, key=lambda e: abs(e.z - critical_point(0).z))[:2]
    assert re.match(rf"numerical failure: label ({pair[0].label}|{pair[1].label}): ", err)
    assert "nearest critical value index 0" in err


def test_track_composite_segment_records(capsys):
    code, d, _ = run(capsys, "track", "--path", "composite", "--n", "2")
    assert code == 0
    segs = d["path"]["segments"]
    assert [s["kind"] for s in segs] == ["image", "image", "arc", "image", "image"]

    def at(rec, end):
        if rec["kind"] == "image":
            z = complex(*rec["z1" if end else "z0"])
            return z + cmath.exp(z)
        theta = rec["theta1" if end else "theta0"]
        return complex(*rec["center"]) + rec["radius"] * cmath.exp(1j * theta)

    # the loop is closed, so each segment's neighbour wraps around
    for i, rec in enumerate(segs):
        if rec["kind"] == "image":
            assert abs(at(rec, False) - at(segs[i - 1], True)) < CONTINUITY_TOL
            assert abs(at(rec, True) - at(segs[(i + 1) % len(segs)], False)) < CONTINUITY_TOL


def test_track_through_critical_value_exit_three(capsys):
    code, _, err = run(
        capsys, "track", "--path", "circle",
        "--center=-1.5,3.141592653589793", "--rho", "0.5",
        "--window=-5,5,-6,6",
    )
    assert code == 3
    assert "numerical" in err


def test_loop_local_swap(capsys):
    code, d, _ = run(capsys, "loop", "--n", "1", "--window=-5,5,-6,18")
    assert code == 0
    # small circle around a_1 swaps only the pair that merges at z_1
    assert d["permutation"]["cycle_string"] == "(3 4)"
    assert d["permutation"]["is_transposition"] is True
    assert d["report"]["legs_reused"] == 0  # a circle has no leg to retrace


def test_homotopy_check_agrees(capsys):
    code, d, _ = run(capsys, "homotopy-check", "--n", "0", "--window=-5,5,-6,6")
    assert code == 0
    assert d["equal"] is True
    assert d["windings_around_a_n"] == {"composite": 1, "keyhole": 1}


def test_homotopy_negative_control(capsys):
    code, d, _ = run(
        capsys, "homotopy-check", "--n", "0", "--window=-5,5,-6,6",
        "--control-winding-zero",
    )
    assert code == 1
    assert d["equal"] is False
    assert d["windings_around_a_n"]["keyhole"] == 0
    assert d["keyhole"]["cycle_string"] == "()"


def test_group_command(capsys):
    code, d, _ = run(capsys, "group", "--loops=-1,0", "--window=-5,5,-6,6")
    assert code == 0
    assert d["order"] == 6
    assert d["transitive"] is True
    assert d["factorial_of_label_count"] == 6
    gen_cycles = [g["cycle_string"] for g in d["generators"]]
    assert gen_cycles == ["(1 2)", "(1 3)"]


def test_group_command_nineteen_roots(capsys):
    # the closure has no label bound: 19 labels, loops (1 9)(1 11)(1 12)(1 13)
    code, d, _ = run(capsys, "group", "--loops=-1,0,1,2", "--window=-5,5,-60,60")
    assert code == 0
    assert len(d["labels"]) == 19
    assert [g["cycle_string"] for g in d["generators"]] == [
        "(1 9)", "(1 11)", "(1 12)", "(1 13)",
    ]
    assert d["order"] == 120
    assert d["transitive"] is False
    assert d["cap_exceeded"] is False


_EMPTY = hashlib.sha256(b"").hexdigest()
_LOOPS_19 = "--loops=" + ",".join(map(str, range(-9, 9)))
# argv: (exit code, sha256 of stdout, sha256 of stderr).  A change to any
# payload byte shows here; a deliberate output change re-pins its digest
# and says so.  The floats come from the platform's libm (glibc, x86-64).
_GOLDEN = {
    ("critical",): (
        0, "2e35258cf49a3c3b4c6bf49ee5f957201ce9a87b7cd604a6bf98a578fda4d334", _EMPTY,
    ),
    ("roots",): (
        0, "920fe8a5ea0b9b774f3098c6b95cbd95e86b6596e5a1eb8075dcaee0c848ba0c", _EMPTY,
    ),
    ("roots", "--window=-30,5,-60,60"): (
        0, "965bf8eaa00765ca82d3514ea0ba055cbe27940d487de4680356f3e8c9eab81c", _EMPTY,
    ),
    ("roots", "--a=-1,3.141592653589793", "--window=-5,5,-60,60"): (
        1, "49899c13e498df7c899888fd51c242326778c905e8e987d2ccc2065e299dec2e", _EMPTY,
    ),
    ("roots", "--a=-1,3.141592653589793", "--window=-5,5,-1e6,1e6"): (
        2, _EMPTY, "3e3cff85d08e9ecda7b18b16a24ea4edb652cbc20610059733825b261c06e37d",
    ),
    ("oracle", "--compare"): (
        0, "f824f2965654f3eac6f94f51d8d2262aa2297b44382d506de917d6d77a41fcfa", _EMPTY,
    ),
    ("track", "--path=keyhole", "--n=1"): (
        0, "3005c7b53de363f4b6ed12ac2f77b9f7c3b433d43cb50795b71e783b0c1816ff", _EMPTY,
    ),
    ("track", "--path=composite", "--n=0"): (
        0, "bf9d2fbdb44ba92a9e7bea21a941e26be33cb013648244349409398351e1ab42", _EMPTY,
    ),
    ("track", "--path=circle", "--center=0,3", "--rho=2"): (
        0, "ed38ff21a6c9b328ae49f7c2355e0ba0850909682a4c24136952d20a415ffc0e", _EMPTY,
    ),
    ("loop", "--n=1"): (
        0, "13b6294feda313f7ab6275e542d3f8287c877e665c886466686231e5b1843ac3", _EMPTY,
    ),
    ("homotopy-check", "--n=2"): (
        0, "ed5895dbdeec99594ba839fdfbee7d9d5a7beaae2d04faf3e8efcccd88d8dd75", _EMPTY,
    ),
    ("homotopy-check", "--n=2", "--corridor-re=0.5"): (
        1, "7dfb1505a59a7cfb9acaefb33b368ab601835c45b0fb69bb96096c5caa937296", _EMPTY,
    ),
    ("group", "--loops=-1,0,1,2", "--window=-5,5,-6,18"): (
        0, "06dd2e26a6ee2b8c7040eb22dd28b911524c9670aa25f3dca43ebed464d32708", _EMPTY,
    ),
    ("group", "--loops=-1,0,1,2", "--window=-5,5,-6,18", "--corridor-re=0.5"): (
        0, "4832da435b5f4f0974588c7b56075443b9e4997cb703a050921697eb73a21888", _EMPTY,
    ),
    ("group", _LOOPS_19, "--window=-5,5,-60,60"): (
        0, "c601b06cc077dea0371ce15fd90c6dbadc009c8af1eaa798c0d51cf8ddb631a6", _EMPTY,
    ),
}


def test_golden_cli_bytes(capsys):
    got = {}
    for argv in _GOLDEN:
        code = main(list(argv))
        out = capsys.readouterr()
        got[argv] = (code, *(hashlib.sha256(s.encode()).hexdigest() for s in out))
    assert got == _GOLDEN


# written file: (argv that writes it, sha256 of its bytes); stdout names
# the file's path, so the file itself is what is pinned
_GOLDEN_FILES = {
    "keyhole.csv": (
        ("track", "--path=keyhole", "--n=0", "--window=-5,5,-60,60", "--csv-out=keyhole.csv"),
        "e588205dddaf0f2306ca9bd34036e9f0bf34eee30051eebba8902d485028205d",
    ),
    "composite.csv": (
        ("track", "--path=composite", "--n=1", "--csv-out=composite.csv"),
        "ebba7c1a4c30e46923cef62b48c78a475cc71bc5537ceced65bf873f2944f20c",
    ),
    "fig_real_graph.svg": (
        ("figures",), "9fe553fa59de6641cc3cd45d20e4fc0d301c6c01a262c12589ddbc21621004fb",
    ),
    "fig_parameter_path.svg": (
        ("figures",), "345779bcf09cc69745efac7a10377ea31d5da32158c62f85d0c32ee4c10ccf22",
    ),
    "fig_root_trajectories.svg": (
        ("figures",), "52b8e902571f3846d64b3cefdb2123bdbc82de1793febcea637860ec6fe88e73",
    ),
    "fig_keyhole.svg": (
        ("figures",), "a35e5b82e9a25a40618259daaa6696ce3478bbf50b0a5db4dc9c05e2fba72bba",
    ),
}


def test_golden_written_files(capsys, tmp_path):
    for argv in dict.fromkeys(argv for argv, _ in _GOLDEN_FILES.values()):
        assert main([*argv, f"--out-dir={tmp_path}"]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _GOLDEN_FILES}
    assert got == {name: digest for name, (_, digest) in _GOLDEN_FILES.items()}


def test_figures_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MONO_OUT", str(tmp_path))
    code, d, _ = run(capsys, "figures", "--which", "real_graph")
    assert code == 0
    written = d["written"]
    assert list(written) == ["real_graph"]
    assert (tmp_path / "fig_real_graph.svg").exists()


def test_config_file_both_positions(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loop": {"rho": 0.4, "window": "-5,5,-6,6"}}))
    code, d, _ = run(capsys, "loop", "--n", "0", "--config", str(cfg))
    assert code == 0 and d["rho"] == 0.4
    code, d, _ = run(capsys, "--config", str(cfg), "loop", "--n", "0")
    assert code == 0 and d["rho"] == 0.4
    # explicit flag beats the config value
    code, d, _ = run(capsys, "loop", "--n", "0", "--rho", "0.3", "--config", str(cfg))
    assert code == 0 and d["rho"] == 0.3


def test_config_rejects_non_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "loop", "--n", "0", "--config", str(cfg))
    assert code == 2


def test_json_out_matches_stdout(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, d, _ = run(
        capsys, "critical", "--n-from", "0", "--n-to", "0",
        "--json-out", str(out), "--seed", "11",
    )
    assert code == 0
    assert d["seed"] == 11
    assert json.loads(out.read_text()) == d


def test_bad_window_exit_two(capsys):
    code, _, err = run(capsys, "roots", "--a=0,0", "--window=5,-5,0,1")
    assert code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["roots", "--no-such-flag"])
    assert ei.value.code == 2


def test_step_cap_is_unknown_input(capsys, tmp_path):
    # Rouche discs alone size the steps: a cap is neither a flag nor a key
    with pytest.raises(SystemExit) as ei:
        main(["track", "--max-step", "0.1"])
    assert ei.value.code == 2
    cfg = _config(tmp_path, '{"track": {"max_step": 0.1}}')
    code, payload, err = run(capsys, "track", "--config", cfg)
    assert (code, payload) == (2, None)
    assert "unknown keys ['max_step']" in err


def test_console_script_installed():
    # the child finds mono where this process does, installed or from src/
    src = os.path.dirname(os.path.dirname(mono.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-m", "mono.cli", "critical", "--n-from", "0", "--n-to", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert [p["n"] for p in d["points"]] == [0, 1]


def _config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["roots", "--a=foo"],
        lambda tmp: ["roots", "--a=inf,0"],
        lambda tmp: ["group", "--loops=a"],
        lambda tmp: ["roots", "--window=a,b,c,d"],
        lambda tmp: ["roots", "--config", str(tmp / "missing.json")],
        lambda tmp: ["roots", "--config", _config(tmp, "{not json")],
        lambda tmp: ["group", "--config", _config(tmp, '{"group": {"loops": 5}}')],
        lambda tmp: ["loop", "--config", _config(tmp, '{"loop": {"n": "x"}}')],
        lambda tmp: ["loop", "--config", _config(tmp, '{"loop": {"n": 1.7}}')],
        lambda tmp: ["critical", "--config", _config(tmp, '{"critical": {"n_from": [1]}}')],
        lambda tmp: ["group", "--config", _config(tmp, '{"group": {"rho": "big"}}')],
        lambda tmp: ["oracle", "--config", _config(tmp, '{"oracle": {"compare": "no"}}')],
        lambda tmp: ["group", "--config", _config(tmp, '{"group": {"loops": [0, 1.7]}}')],
        lambda tmp: ["group", "--config", _config(tmp, '{"group": {"cap": 5}}')],
        lambda tmp: ["roots", "--a=0,0", "--window=-5,710,-1,1"],
        # f - a past 1e308 on the edge Re z = 709.7 overflows its modulus
        lambda tmp: ["roots", "--a=-1.7e308,0", "--window=-5,709.7,-30,30"],
        lambda tmp: ["roots", "--config", _config(tmp, '{"roots": {"a": true}}')],
        lambda tmp: ["roots", "--config", _config(tmp, '{"roots": {"window": [true, 5, -6, 6]}}')],
        lambda tmp: ["track", "--path", "keyhole", "--corridor-re=nan"],
        lambda tmp: ["group", "--corridor-re=inf"],
        lambda tmp: ["track", "--path", "circle", "--rho=nan"],
        lambda tmp: ["roots", "--a=0,1e300"],
        lambda tmp: ["roots", "--json-out", str(tmp)],
        lambda tmp: ["track", "--path", "loop", "--csv-out", str(tmp)],
        lambda tmp: ["figures", "--which", "real_graph", "--out-dir", _config(tmp, "{}")],
    ],
    ids=[
        "complex", "complex-not-finite", "loops", "window",
        "config-missing", "config-not-json", "config-loops-type",
        "config-int-type", "config-int-fraction", "config-int-list",
        "config-float-type", "config-bool-type", "config-loops-fraction", "config-unknown-key",
        "window-exp-overflow", "boundary-f-overflow", "config-complex-bool", "config-window-bool",
        "corridor-nan", "corridor-inf", "circle-radius-nan", "critical-index-huge",
        "json-out-unwritable", "csv-out-unwritable", "out-dir-unwritable",
    ],
)
def test_bad_input_exits_two_without_traceback(capsys, tmp_path, argv):
    code, payload, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert payload is None
    assert err.startswith("precondition error: ")


@pytest.mark.parametrize(
    "argv, code, prefix, cause",
    [
        (["roots", "--a=0,1e300"], 2, "precondition", "|n| = 1.59e+299 exceeds"),
        (["loop", "--n", str(10**23)], 2, "precondition", "|n| = 1e+23 exceeds 1000000"),
        # on the edge Re z = 5, 2e6 long, pieces where neither term of
        # f - a dominates fail down to the finest spacing 7.63: Newton from
        # them finds 5.12469 - 168.045i, 0.116 outside the tenth expansion
        (
            ["roots", "--a=0,0", "--window=-5,5,-1e6,1e6"], 2, "precondition",
            "root at 5.12469-168.045j lies 0.116 from the window edge, "
            "under its finest sample spacing 7.63",
        ),
        # the end angle of 20,000 turns misses the start by 3.5e-12
        (
            ["track", "--path", "loop", "--turns", "20000"], 2, "precondition",
            "radius 0.5 with turns = 20000 cannot close",
        ),
        # one turn of radius 5000 misses its start by 1.2e-12: the radius
        # is the cause, and the message names both remedies
        (
            ["track", "--path", "circle", "--rho", "5000"], 2, "precondition",
            "radius 5000 with turns = 1 cannot close",
        ),
    ],
    ids=[
        "critical-index-huge", "loop-index-huge", "edge-cover-long",
        "loop-turns-huge", "circle-radius-huge",
    ],
)
def test_error_message_names_the_cause(capsys, argv, code, prefix, cause):
    t0 = time.perf_counter()
    got, payload, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert got == code
    assert payload is None
    assert err.startswith(prefix)
    assert cause in err
    assert len(err) < 400


@pytest.mark.parametrize(
    "argv, cause",
    [
        # the loop around a_1 carries a root above Im z = 6
        (["group", "--loops=1", "--window=-5,5,-6,6"], "the loop around a_1 carries label 1"),
        (["homotopy-check", "--n", "1", "--window=-5,5,-6,6"], "the loop around a_1 carries"),
    ],
    ids=["group-root-leaves-window", "homotopy-root-leaves-window"],
)
def test_refusal_is_fast_and_names_the_fix(capsys, argv, cause):
    t0 = time.perf_counter()
    code, payload, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, payload) == (2, None)
    assert err.startswith("precondition error: ") and cause in err
    assert "widen it (--window)" in err


@pytest.mark.parametrize(
    "a, window",
    [
        ("-2.3,0.9", "-15,5,24,99"),
        ("-2.2,-2.4", "-15,5,50,110"),
        ("0.1,-1.4", "-15,5,58,92"),
        ("1.3,-2.9", "-28,5,60,128"),
        ("0.2,-2.4", "-29,5,15,121"),
        ("3.7,1.6", "-25,5,24,129"),
        ("0.7,-0.1", "-24,5,34,109"),
        ("3.4,-0.8", "-20,5,-27,63"),
    ],
)
def test_newton_seed_past_exp_range_is_no_hit(capsys, a, window):
    # in the first four windows a Newton run from an isolation seed jumps
    # past EXP_RE_MAX (to Re z = 732, 1368, 920 and 2462); that seed found
    # nothing, and the window is still valid.  Which seeds run, and in
    # which cells, depends on the cuts and on the seed order, so these
    # windows were found by searching round-number windows under grid
    # seeds, shortest Newton step first.  The last four jumped when cells
    # were seeded from the centre, then the quarter points; no seed of
    # theirs jumps now, and they stay as wide-left windows that match
    # the oracle.
    code, d, _ = run(
        capsys, "oracle", f"--a={a}", "--k-from", "-20", "--k-to", "20",
        "--compare", f"--window={window}",
    )
    assert code == 0
    assert d["compare"]["match"] is True


def test_roots_below_the_residual_floor_still_polished(capsys):
    code, d, _ = run(capsys, "roots", "--a=0,0", "--window=-10,10,100,120")
    assert code == 0
    assert len(d["roots"]) == 3


@pytest.mark.parametrize(
    "window", ["-10,10,150,170", "-10,10,140,160", "-5,5,-200,200", "-5,5,-2000,2000"],
    ids=["residual-floor", "height-140", "height-200", "height-2000"],
)
def test_roots_above_height_130_match_oracle(capsys, window):
    # near z = 5 + 155.5i rounding alone keeps |f - a| above 1e-12; Newton
    # stops within that rounding floor, so every root polishes.  On the
    # 2000 window the root 5.0058 - 149.19i lies 0.0058 inside the edge
    # Re z = 5, under its finest spacing 0.015, yet no certified piece's
    # disc reaches it: the window is counted as it stands, 47 roots
    t0 = time.perf_counter()
    code, d, _ = run(
        capsys, "oracle", "--a=0,0", "--k-from", "-40", "--k-to", "40",
        "--compare", f"--window={window}",
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert d["compare"]["match"] is True
    assert d["compare"]["window"]["im_max"] == float(window.split(",")[3])


@pytest.mark.parametrize(
    "window, count",
    [("-5,709.7,-30,30", 11), ("-5,5,-3e5,-1e5", 0)],
    ids=["window-near-exp-overflow", "edge-long-far"],
)
def test_roots_on_dominated_edges_match_oracle(capsys, window, count):
    # e^z is at least twice z - a along the edge Re z = 709.7, and z - a at
    # least twice e^z along every edge of -5,5,-3e5,-1e5: those edges are
    # certified whole, so neither window is refused or expanded, and each
    # count is the oracle's
    t0 = time.perf_counter()
    code, d, _ = run(capsys, "roots", "--a=0,0", f"--window={window}")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    w = Window(*map(float, window.split(",")))
    assert d["count"] == count == len(oracle_roots(0j, range(-64, 65), window=w))
    assert d["window"] == w.to_json()


def test_group_on_tall_window(capsys):
    # 47 roots up to |Im z| = 200; the four default loops move only five
    code, d, _ = run(capsys, "group", "--window=-5,5,-200,200")
    assert code == 0
    assert d["order"] == 120 and len(d["labels"]) == 47


# Values per option: (valid, invalid).  Values that are valid but make a
# run arbitrarily long (thousands of turns or critical indices) are left
# out: they are slow, not wrong.
_FLAG_VALUES = {
    "n_from": (["-2", "0", "3"], ["x", "1.5"]),
    "n_to": (["-3", "1", "4"], ["x"]),
    "a": (["0,0", "0.3,-0.2", "-1,3.141592653589793"], ["nan,0", "foo", "1e300,0", "-800,0"]),
    "k_from": (["-3", "0"], ["x"]),
    "k_to": (["-1", "2"], ["1.5"]),
    "window": (["-5,5,-6,6", "-5,5,-6,18", "-1,1,-1,1"], ["5,-5,0,1", "a,b,c,d", "-5,710,-1,1"]),
    "path": (["keyhole", "composite", "loop", "circle"], ["spiral"]),
    "n": (["-2", "-1", "0", "1", "2"], ["10000000", "x"]),
    "rho": (["0.3", "0.5", "2"], ["0.05", "4", "nan"]),
    "turns": (["-2", "-1", "0", "1", "2"], ["x"]),
    "corridor_re": (["-2", "0.5", "0"], ["-1", "nan", "inf", "1e308"]),
    "center": (["0,0", "0.5,0.5", "-1.5,3.141592653589793", "1e300,0"], ["x"]),
    "loops": (["-1,0,1,2", "0", "-2,2"], ["", "a", "0,1.5"]),
    "which": (["real_graph", "keyhole", "real_graph,keyhole"], ["nope"]),
}
_BOOL_OPTIONS = ("compare", "control_winding_zero")
_JSON_ODDITIES = [True, None, [1], {"x": 1}, 1.5, -3, 0, "", 1e6]


def _rarely(draw) -> bool:
    return draw(st.integers(0, 5)) == 5


@st.composite
def _invocations(draw, out_dir):
    """argv for one subcommand, each option absent, a flag or a config
    value; an option is invalid about one time in six."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, config = [command], {}
    for key in COMMANDS[command][2]:
        source = draw(st.sampled_from(("absent", "flag", "config")))
        if source == "absent" or key == "csv_out":
            continue
        if key in _BOOL_OPTIONS:
            value = draw(st.booleans())
            if source == "flag" and value:
                argv.append("--" + key.replace("_", "-"))
            elif source == "config":
                config[key] = draw(st.sampled_from(["yes", 1])) if _rarely(draw) else value
            continue
        valid, invalid = _FLAG_VALUES[key]
        if not _rarely(draw):
            text = draw(st.sampled_from(valid))
        elif source == "config":
            text = draw(st.sampled_from(invalid + _JSON_ODDITIES))
        else:
            text = draw(st.sampled_from(invalid))
        if source == "flag":
            argv.append(f"--{key.replace('_', '-')}={text}")
        else:
            config[key] = text
    if _rarely(draw):
        config["bogus"] = 1
    if config:
        path = out_dir / f"cfg{draw(st.integers(0, 10**9))}.json"
        path.write_text(json.dumps({command: config}))
        argv += ["--config", str(path)]
    return argv + ["--out-dir", str(out_dir)]


@pytest.fixture(scope="module")
def cli_out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@settings(max_examples=60)
@given(data=st.data())
def test_random_invocations_exit_with_a_documented_code(cli_out_dir, data):
    # each subcommand, on any mix of flags and config values, ends in a
    # documented exit code with JSON or a message, never a traceback
    argv = data.draw(_invocations(cli_out_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
