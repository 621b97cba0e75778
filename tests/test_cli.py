"""Command-line interface: output schemas, exit codes, config resolution.

Most cases drive main() in process; one subprocess test proves the
installed console script works end to end.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import mono
from mono.cli import main


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
    assert d["near_merge_pairs"] == [[1, 2]]
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


def test_track_closed_loop_permutation(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    code, d, _ = run(
        capsys, "track", "--path", "keyhole", "--n", "0",
        "--window=-5,5,-6,6", "--csv-out", str(csv),
    )
    assert code == 0
    assert d["permutation"]["cycle_string"] == "(1 3)"
    assert d["report"]["max_residual"] < 1e-12
    header = csv.read_text().splitlines()[0]
    assert header == "arc_param,label,re_z,im_z,re_a,im_a,residual"


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
    ],
    ids=[
        "complex", "complex-not-finite", "loops", "window",
        "config-missing", "config-not-json", "config-loops-type",
    ],
)
def test_bad_input_exits_two_without_traceback(capsys, tmp_path, argv):
    code, payload, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert payload is None
    assert err.startswith("precondition error: ")
