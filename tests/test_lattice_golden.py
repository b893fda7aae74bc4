"""The lattice engine reproduces committed golden traces exactly.

`tests/data/lattice_golden.json` pins every burn time, reach and censoring
flag of `run_fire`, every `run_blue_experiment` record and every
`detect_gap_event` verdict for r in {1, 2, 3} under constant, periodic and
iid-uniform rate profiles.  `tests/data/memoryless_golden.json` pins the
`run_fire` traces of the memoryless state (`coupled=False`) on the same
grid.  Floats are stored by repr and compared with `==`, so any change to
the arrival sums, the vacancy draws or the burn rule shows here.

Regenerate (only when the pinned behaviour is meant to change) with

    PYTHONPATH=src python tests/test_lattice_golden.py
"""

import json
import pathlib

import pytest

from firesim import fire
from firesim.model import CapExceeded, ModelConfig, NoiseField, RateProfile
from firesim.rng import replication_seed

DATA = pathlib.Path(__file__).parent / "data"

PROFILES = {
    "constant": RateProfile.constant(1.0),
    "periodic": RateProfile.periodic((0.7, 1.3, 1.0), 0.7, 1.3),
    "iid-uniform": RateProfile.iid_uniform(0.6, 1.4, seed=3),
}
SEEDS = range(4)

# name -> (function, keyword arguments); run_fire cases cover targets,
# a fixed reach window, neither, a site cap and an unmet target.
RUNS = {
    "targets": ("run_fire", {"targets": [5, 100]}),
    "reach_window": ("run_fire", {"targets": (), "time_cap": 6.0, "reach_window": 256}),
    "neither": ("run_fire", {"targets": (), "time_cap": 4.0}),
    "site_cap": ("run_fire", {"targets": (), "time_cap": 5.0, "site_cap": 256}),
    "unmet": ("run_fire", {"targets": [5000], "time_cap": 3.0}),
    "blue": ("run_blue_experiment", {"n_k": 6, "cycles": 4}),
    "blue_window": ("run_blue_experiment", {"n_k": 20, "cycles": 3, "reach_window": 40}),
    "blue_time_cap": ("run_blue_experiment", {"n_k": 8, "cycles": 5, "time_cap": 10.0}),
    "gap": ("detect_gap_event", [(12, 0.5, 1.0), (40, 2.0, 0.7), (200, 1.0, 3.0)]),
}

# memoryless run_fire cases: targets, a fixed reach window, a target left
# unmet at the time cap, and a site cap that raises CapExceeded
MEMORYLESS = {
    "targets": ("run_fire", {"targets": [5, 100], "coupled": False}),
    "reach_window": ("run_fire", {"targets": (), "time_cap": 6.0, "reach_window": 256,
                                  "coupled": False}),
    "unmet": ("run_fire", {"targets": [5000], "time_cap": 3.0, "coupled": False}),
    "site_cap": ("run_fire", {"targets": (), "time_cap": 8.0, "site_cap": 128,
                              "coupled": False}),
}
GOLDEN = {"lattice_golden.json": RUNS, "memoryless_golden.json": MEMORYLESS}


def _run(runs: dict, name: str, r: int, profile: str, seed: int):
    cfg = ModelConfig(space="discrete", r=r, profile=PROFILES[profile])
    noise = NoiseField(replication_seed(1000 + r, seed), cfg)
    func, kwargs = runs[name]
    try:
        if func == "run_fire":
            trace = fire.run_fire(noise, cfg, **kwargs)
            return {"events": [[float(ev.time), int(ev.rightmost), bool(ev.censored)]
                               for ev in trace.events],
                    "tau": {str(x): float(t) for x, t in trace.tau.items()},
                    "complete": trace.complete, "censored": trace.censored}
        if func == "run_blue_experiment":
            recs = fire.run_blue_experiment(noise, cfg, **kwargs)
            return [[rec.i, float(rec.tau_i), int(rec.rho_i), int(rec.rho_F_i),
                     rec.censored_B, rec.censored_F] for rec in recs]
        return [bool(fire.detect_gap_event(noise, cfg, span, start, dur))
                for span, start, dur in kwargs]
    except CapExceeded:
        return "CapExceeded"


def _cases():
    return [(file, name, r, profile) for file, runs in GOLDEN.items() for name in runs
            for r in (1, 2, 3) for profile in PROFILES]


def _key(name, r, profile, seed):
    return f"{name}/r{r}/{profile}/{seed}"


@pytest.fixture(scope="module")
def golden():
    return {file: json.loads((DATA / file).read_text()) for file in GOLDEN}


def _case_id(case):
    file, name, r, profile = case
    return f"{name}-{r}-{profile}" if file == "lattice_golden.json" else \
        f"memoryless-{name}-{r}-{profile}"


@pytest.mark.parametrize("file,name,r,profile", _cases(), ids=map(_case_id, _cases()))
def test_lattice_matches_golden(golden, file, name, r, profile):
    for seed in SEEDS:
        got = json.loads(json.dumps(_run(GOLDEN[file], name, r, profile, seed)))
        assert got == golden[file][_key(name, r, profile, seed)], _key(name, r, profile, seed)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for file, runs in GOLDEN.items():
        out = {_key(name, r, profile, seed): _run(runs, name, r, profile, seed)
               for name in runs for r in (1, 2, 3) for profile in PROFILES for seed in SEEDS}
        (DATA / file).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
