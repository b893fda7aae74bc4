"""CLI: config validation, exit codes, output format and determinism."""

import json
import math
import subprocess
import sys

import pytest

from firesim import cli


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {"model": {"space": "discrete", "r": 1,
                  "profile": {"kind": "constant", "value": 1.0}},
        "seed": 7, "reps": 60}


def test_unknown_top_level_key_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {**BASE, "typo": 1})
    assert cli.main(["run", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_unknown_profile_key_exit_2(tmp_path):
    bad = {"model": {"profile": {"kind": "constant", "valeu": 1.0}}}
    cfg = write_cfg(tmp_path, "c.json", bad)
    assert cli.main(["schedule", "--config", cfg]) == 2


def test_bad_gamma_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"schedule": {"gamma": 2.5, "k_max": 3}})
    assert cli.main(["schedule", "--config", cfg]) == 2
    assert "(1,2)" in capsys.readouterr().err


def test_missing_config_exit_2(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_run_csv_output(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {**BASE, "run": {"targets": [4, 16]}})
    out = str(tmp_path / "out.csv")
    assert cli.main(["run", "--config", cfg, "--out", out, "--workers", "1"]) == 0
    lines = open(out).read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("config_hash" in c for c in comments)
    assert any("master_seed 7" in c for c in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",")[0] == "quantity"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 2
    tau4 = float(data[0].split(",")[1])
    tau16 = float(data[1].split(",")[1])
    assert 0 < tau4 < tau16


def test_run_determinism_across_workers(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {**BASE, "run": {"targets": [8]}})
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["run", "--config", cfg, "--out", out1, "--workers", "1"]) == 0
    assert cli.main(["run", "--config", cfg, "--out", out2, "--workers", "3"]) == 0
    assert open(out1).read() == open(out2).read()


def test_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {**BASE, "run": {"targets": [8]}})
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cli.main(["run", "--config", cfg, "--out", out1, "--workers", "1"])
    cli.main(["run", "--config", cfg, "--out", out2, "--workers", "1",
              "--seed", "8"])
    assert open(out1).read() != open(out2).read()


def test_schedule_output(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"schedule": {"gamma": 1.5, "k_max": 5}})
    out = str(tmp_path / "s.csv")
    assert cli.main(["schedule", "--config", cfg, "--out", out]) == 0
    rows = [ln.split(",") for ln in open(out).read().splitlines()
            if not ln.startswith("#")][1:]
    assert len(rows) == 5
    by_k = {int(r[0]): r for r in rows}
    assert int(by_k[3][2]) == 15
    assert float(by_k[3][3]) == pytest.approx(math.log(30))
    for r in rows:
        assert float(r[3]) >= float(r[1]) - 1e-9     # T_k >= gamma^k


def test_schedule_overflow_partial_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"schedule": {"gamma": 1.9, "k_max": 30}})
    out = str(tmp_path / "s.csv")
    assert cli.main(["schedule", "--config", cfg, "--out", out]) == 3
    rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")][1:]
    assert 0 < len(rows) < 30


def test_validate_oracles_json(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"validate": {"suite": "oracles"}})
    out = str(tmp_path / "r.json")
    assert cli.main(["validate", "--config", cfg, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["report"]["pass"] is True
    assert "config_hash" in doc


def test_validate_unknown_suite_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"validate": {"suite": "made-up"}})
    assert cli.main(["validate", "--config", cfg]) == 2


def test_validate_lemma1_small(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {**BASE, "validate": {"suite": "lemma1", "k": 2, "cycles": 20}})
    out = str(tmp_path / "r.json")
    assert cli.main(["validate", "--config", cfg, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["report"]["domination_violations"] == 0


def test_sweep_output(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {**BASE, "sweep": {"x_grid": [8, 32]}})
    out = str(tmp_path / "w.csv")
    assert cli.main(["sweep", "--config", cfg, "--out", out, "--workers", "1"]) == 0
    lines = open(out).read().splitlines()
    assert any("kappa_hat" in ln for ln in lines if ln.startswith("#"))
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 2


def test_emit_plot_data(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {**BASE, "run": {"targets": [4]}})
    out = str(tmp_path / "o.csv")
    assert cli.main(["run", "--config", cfg, "--out", out, "--workers", "1",
                     "--emit-plot-data"]) == 0
    trace = open(out + ".trace.csv").read().splitlines()
    header = next(ln for ln in trace if not ln.startswith("#"))
    assert header == "time,rightmost,censored"
    assert len(trace) > len([ln for ln in trace if ln.startswith("#")]) + 1


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"schedule": {"gamma": 1.5, "k_max": 2}})
    proc = subprocess.run([sys.executable, "-m", "firesim.cli", "schedule",
                           "--config", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "n_k" in proc.stdout


def test_run_all_censored_writes_nan(tmp_path):
    # no replication burns site 8 by time 0.01
    cfg = write_cfg(tmp_path, "c.json", {**BASE, "run": {"targets": [8], "time_cap": 0.01}})
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "firesim.cli",
                           "run", "--config", cfg, "--reps", "3", "--workers", "1",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[1].split(",") == ["tau_8", "nan", "nan", "0", "7", "3"]


def test_config_hash_stability():
    h1 = cli.config_hash({"a": 1, "b": [1, 2]})
    h2 = cli.config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert h1 != cli.config_hash({"a": 2, "b": [1, 2]})


def test_periodic_profile_schedule(tmp_path):
    periodic = {"kind": "periodic", "values": [0.5, 1.0], "c1": 0.5, "c2": 1.0}
    cfg = write_cfg(tmp_path, "c.json", {"model": {"profile": periodic},
                                         "schedule": {"gamma": 1.5, "k_max": 3}})
    assert cli.main(["schedule", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    no_c2 = {k: v for k, v in periodic.items() if k != "c2"}
    cfg = write_cfg(tmp_path, "d.json", {"model": {"profile": no_c2}})
    assert cli.main(["schedule", "--config", cfg]) == 2


@pytest.mark.parametrize("suite", ["thresholds", "lemma1", "alpha_k", "growth",
                                   "permutation"])
def test_lattice_suite_on_continuous_model_exit_2(tmp_path, capsys, suite):
    cfg = write_cfg(tmp_path, "c.json", {"model": {"space": "continuous"},
                                         "validate": {"suite": suite,
                                                      "permutation": [1, 0]}})
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "discrete model" in capsys.readouterr().err


def test_continuous_moments_rejects_non_unit_model(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"model": {"space": "continuous", "intensity": 2.0},
                                         "validate": {"suite": "continuous-moments"}})
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "intensity" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, "d.json", {"model": {"space": "continuous"},
                                         "validate": {"suite": "continuous-moments",
                                                      "t_values": [1.0]}})
    assert cli.main(["validate", "--config", cfg, "--reps", "200",
                     "--out", str(tmp_path / "r.json")]) != 2
