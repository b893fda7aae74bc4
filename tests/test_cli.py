"""CLI: config validation, exit codes, output format and determinism."""

import hashlib
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


# sha256 of the CSV body and of the --emit-plot-data trace of the run below,
# as written by the serial (one replication at a time) engine
RUN_CSV_SHA = "a5b49a1c056b6fb76580c92dc3d12818587311e216507131ecae49c78be19509"
RUN_TRACE_SHA = "15938a646ea306ae8a8b0996cb967c3efb1ecfbf93c22c93ea6c9b278b3cb3f5"


def test_run_determinism_across_workers(tmp_path):
    # the time cap leaves 27 of 60 replications short of 8 and 54 of 64
    cfg = write_cfg(tmp_path, "c.json",
                    {**BASE, "run": {"targets": [8, 64], "time_cap": 4.5}})
    digests = set()
    for workers in ("1", "2", "3"):
        out = tmp_path / f"{workers}.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--workers", workers,
                         "--emit-plot-data"]) == 3
        digests.add(tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                          for path in (out, tmp_path / f"{workers}.csv.trace.csv")))
    assert digests == {(RUN_CSV_SHA, RUN_TRACE_SHA)}


@pytest.mark.parametrize("space,reps,workers,sizes", [
    ("discrete", 100, 1, [32, 32, 32, 4]),
    ("discrete", 100, 8, [13] * 7 + [9]),
    ("discrete", 5, 8, [1] * 5),
    ("continuous", 5, 1, [1] * 5),
])
def test_run_jobs_cover_the_replications_in_order(space, reps, workers, sizes):
    model = cli._build_model({"space": space})
    blocks = cli._rep_blocks(model, reps, workers)
    assert [len(b) for b in blocks] == sizes
    assert [i for b in blocks for i in b] == list(range(reps))


@pytest.mark.parametrize("model,section,bad", [
    ({}, "run", {"targets": [0]}),
    ({}, "run", {"targets": [8, 0.5]}),
    ({}, "run", {"targets": ["8"]}),
    ({}, "run", {"targets": [True]}),
    ({}, "run", {"targets": 8}),
    ({"space": "continuous"}, "run", {"targets": [0.0]}),
    ({"space": "continuous"}, "run", {"targets": [-1.5]}),
    ({}, "run", {"targets": [8], "time_cap": 0}),
    ({}, "run", {"targets": [8], "time_cap": -3.0}),
    ({}, "run", {"targets": [8], "time_cap": "10"}),
    ({}, "sweep", {"x_grid": [0, 16]}),
    ({}, "sweep", {"x_grid": [16, None]}),
    ({"space": "continuous"}, "sweep", {"x_grid": [2.0, 0.0]}),
    ({}, "sweep", {"x_grid": [16], "time_cap": 0.0}),
    ({}, "run", {"targets": [10 ** 400]}),
    ({}, "run", {"targets": [8], "time_cap": 10 ** 400}),
    ({}, "run", {"targets": [2 ** 64]}),
    ({}, "sweep", {"x_grid": [16, 1e19]}),
], ids=["run-zero", "run-fraction-below-1", "run-string", "run-bool", "run-not-a-list",
        "run-continuous-zero", "run-continuous-negative", "run-time-cap-zero",
        "run-time-cap-negative", "run-time-cap-string", "sweep-zero", "sweep-null",
        "sweep-continuous-zero", "sweep-time-cap-zero", "run-int-beyond-float",
        "run-time-cap-int-beyond-float", "run-above-site-cap", "sweep-above-site-cap"])
def test_bad_targets_and_time_cap_exit_2(tmp_path, capsys, model, section, bad):
    cfg = write_cfg(tmp_path, "c.json", {"model": model, "reps": 4, section: bad})
    assert cli.main([section, "--config", cfg, "--workers", "1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_continuous_fractional_target_accepted(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"model": {"space": "continuous"}, "reps": 3,
                                         "run": {"targets": [0.5], "time_cap": 4.0}})
    assert cli.main(["run", "--config", cfg, "--workers", "1",
                     "--out", str(tmp_path / "o.csv")]) in (0, 3)


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


SCHEDULE_OVERFLOW_CSV = """\
# firesim 0.1.0
# config_hash 5d5cbe85c740f6c7
# master_seed 0
# gamma 1.9
k,gamma_k,n_k,T_k,slack
1,1.9,4,2.0794415416798357,0.17944154167983584
2,3.61,19,3.637586159726386,0.027586159726386228
3,6.858999999999999,477,6.860663671448287,0.001663671448287829
4,13.032099999999998,228423,13.032101632779375,1.6327793765924525e-06
"""


def test_schedule_overflow_partial_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"schedule": {"gamma": 1.9, "k_max": 30}})
    out = str(tmp_path / "s.csv")
    assert cli.main(["schedule", "--config", cfg, "--out", out]) == 3
    rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")][1:]
    assert 0 < len(rows) < 30
    assert open(out).read() == SCHEDULE_OVERFLOW_CSV


def test_validate_oracles_json(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"validate": {"suite": "oracles"}})
    out = str(tmp_path / "r.json")
    assert cli.main(["validate", "--config", cfg, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["report"]["pass"] is True
    assert "config_hash" in doc


def test_validate_thresholds_verdict(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {**BASE, "reps": 2000,
                     "validate": {"suite": "thresholds", "n": 1000, "epsilon": 0.2}})
    out = str(tmp_path / "r.json")
    assert cli.main(["validate", "--config", cfg, "--out", out]) == 0
    report = json.loads(open(out).read())["report"]
    assert report["pass"] is True and report["below_ok"] and report["above_ok"]


def test_validate_thresholds_envelope_miss_exit_3(tmp_path):
    # the envelopes are asymptotic: at r = 4, n = 10 the early tail is about
    # 0.54 against an envelope of 0.33
    model = {"r": 4, "profile": {"kind": "constant", "value": 1.0}}
    cfg = write_cfg(tmp_path, "c.json",
                    {**BASE, "model": model, "reps": 2000,
                     "validate": {"suite": "thresholds", "n": 10, "epsilon": 0.1}})
    out = str(tmp_path / "r.json")
    assert cli.main(["validate", "--config", cfg, "--out", out]) == 3
    report = json.loads(open(out).read())["report"]
    assert report["pass"] is False and report["above_ok"] is False
    assert report["p_above_at_early"] > report["envelope_above"]


def test_validate_alpha_k_reports_no_verdict(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {**BASE, "reps": 4, "validate": {"suite": "alpha_k", "k": 2}})
    out = str(tmp_path / "r.json")
    assert cli.main(["validate", "--config", cfg, "--out", out]) == 0
    report = json.loads(open(out).read())["report"]
    assert "pass" not in report
    assert report["reps"] + report["censored"] == 4


def test_import_leaves_scipy_optimize_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, firesim, firesim.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
