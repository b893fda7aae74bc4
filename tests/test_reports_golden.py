"""Every command's output on a set of small configs, pinned byte for byte.

`tests/data/reports_golden.json` holds, for each case below, the exit code
and the text `firesim` writes: the CSVs of `run` (and the trace CSV of
`--emit-plot-data`), of `sweep` (lattice and continuous) and of
`schedule` (a whole ladder, and one cut short by the site cap, which pins
the T_k of `_brentq`), and the JSON reports of the `validate` suites prop1
(lattice and continuous), growth, lemma1, alpha_k, permutation, thresholds
and continuous-moments.  Floats are written by repr, so comparing the texts
with `==` compares every float exactly; the continuous trace pins the
reaches of `_Continuum`, which no report shows to the last bit.  The
headers hold the tool version and the config hash, so a version bump is a
regeneration too.

The suites that draw through numpy `Generator` distributions (thresholds,
continuous-moments) depend on numpy too, which does not promise to keep
those streams across releases, so the file records the numpy version that
made it and those cases fail, naming both versions, under another one.
continuous-moments runs at criterion 10's size, where t = 3 draws about
1.9 M gaps.

Regenerate (only when the pinned behaviour is meant to change) with

    PYTHONPATH=src python tests/test_reports_golden.py
"""

import json
import pathlib
import tempfile

import numpy as np
import pytest

from firesim import cli

DATA = pathlib.Path(__file__).parent / "data" / "reports_golden.json"

LATTICE = {"space": "discrete", "r": 1, "profile": {"kind": "constant", "value": 1.0}}
PERIODIC = {"kind": "periodic", "values": [0.7, 1.3, 1.0], "c1": 0.7, "c2": 1.3}
CONTINUOUS = {"space": "continuous"}
WIDE = {"space": "continuous", "connect_distance": 1.5, "ignite_distance": 0.7}


def _validate(model, seed, reps, **section):
    return "validate", {"model": model, "seed": seed, "reps": reps, "validate": section}, []


# name -> (command, config, extra flags)
CASES = {
    "run-readme": ("run", {"model": LATTICE, "seed": 7, "reps": 40,
                           "run": {"targets": [16, 256]}}, ["--emit-plot-data"]),
    "run-periodic-r2": ("run", {"model": {"r": 2, "profile": PERIODIC}, "seed": 3, "reps": 30,
                                "run": {"targets": [4, 37.5, 300], "time_cap": 40}}, []),
    "run-continuous": ("run", {"model": CONTINUOUS, "seed": 5, "reps": 8,
                               "run": {"targets": [1.0, 2.0, 3.5], "time_cap": 8}},
                       ["--emit-plot-data"]),
    "sweep": ("sweep", {"model": LATTICE, "seed": 11, "reps": 10,
                        "sweep": {"x_grid": [4, 16, 64, 256]}}, []),
    "sweep-continuous": ("sweep", {"model": CONTINUOUS, "seed": 12, "reps": 6,
                                   "sweep": {"x_grid": [1.5, 2.0, 3.5], "time_cap": 8}}, []),
    "schedule": ("schedule", {"model": LATTICE, "seed": 13,
                              "schedule": {"gamma": 1.5, "k_max": 5}}, []),
    "schedule-partial": ("schedule", {"model": LATTICE, "seed": 14,
                                      "schedule": {"gamma": 1.9, "k_max": 30}}, []),
    "prop1-lattice": _validate(LATTICE, 1, 3, suite="prop1", horizon=5, targets=[4, 16]),
    "prop1-lattice-r3": _validate({"r": 3, "profile": PERIODIC}, 2, 3, suite="prop1",
                                  horizon=4, targets=[4, 16]),
    "prop1-continuous": _validate(CONTINUOUS, 3, 3, suite="prop1", horizon=8, targets=[2, 4]),
    "prop1-continuous-wide": _validate(WIDE, 4, 3, suite="prop1", horizon=5, targets=[3, 10]),
    "growth": _validate(LATTICE, 5, 20, suite="growth", gamma=1.5, k=2),
    "lemma1": _validate(LATTICE, 6, 2, suite="lemma1", gamma=1.5, k=2, cycles=12),
    "alpha_k": _validate(LATTICE, 7, 10, suite="alpha_k", gamma=1.5, k=2),
    "permutation": _validate({"profile": PERIODIC}, 8, 20, suite="permutation", x=4,
                             permutation=[2, 4, 1, 3]),
    "thresholds": _validate(LATTICE, 9, 2000, suite="thresholds", n=1000, epsilon=0.2),
    "continuous-moments": _validate(CONTINUOUS, 10, 10**5, suite="continuous-moments",
                                    t_values=[1.0, 2.0, 3.0]),
}
GENERATOR_CASES = {"thresholds", "continuous-moments"}


def _output(name: str, tmp: pathlib.Path) -> dict:
    """The exit code and the files `firesim` writes for case `name`."""
    command, cfg, flags = CASES[name]
    config, out = tmp / f"{name}.json", tmp / f"{name}.out"
    config.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(config), "--out", str(out), "--workers", "1",
                     *flags])
    got = {"code": code, "out": out.read_text()}
    trace = tmp / f"{name}.out.trace.csv"
    if trace.exists():
        got["trace"] = trace.read_text()
    return got


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(golden, tmp_path, name):
    if name in GENERATOR_CASES:
        assert golden["numpy"] == np.__version__, (
            f"{name} was pinned under numpy {golden['numpy']}, this is numpy {np.__version__}")
    assert _output(name, tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = {name: _output(name, pathlib.Path(tmp)) for name in CASES}
    out["numpy"] = np.__version__
    DATA.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
