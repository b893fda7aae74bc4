"""The lattice engine reproduces committed golden traces exactly.

`tests/data/lattice_golden.json` pins every burn time, reach and censoring
flag of `run_fire`, every `run_blue_experiment` record (also batched
through `run_blue_experiments`) and every `detect_gap_event` verdict for
r in {1, 2, 3} under constant, periodic and iid-uniform rate profiles.
`tests/data/memoryless_golden.json` pins the `run_fire` traces of the
memoryless state (`coupled=False`) on the same grid.  Floats are stored
by repr and compared with `==`, so any change to the arrival sums, the
vacancy draws or the burn rule shows here.  `test_draw_counts_are_pinned`
pins how many exponentials the coupled state draws, which the floats do
not show.

The `reach_window` entries pin runs to time 6 that censored every burn at
a fixed window of 256 sites, a mode `run_fire` no longer has.  They are
kept as made and checked against runs to target 96, whose window is the
same 256 sites: such a run is the pinned trace up to its first burn that
reaches 96.

Regenerate (only when the pinned behaviour is meant to change) with

    PYTHONPATH=src python tests/test_lattice_golden.py
"""

import contextlib
import json
import pathlib

import pytest

from firesim import experiments, fire
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
# the window of a target against a pinned fixed-window run, neither, a
# site cap and an unmet target.  An upper-case key names a cap of `fire`,
# set for the case alone (`_patched`).
RUNS = {
    "targets": ("run_fire", {"targets": [5, 100]}),
    "reach_window": ("window", {"targets": [96], "time_cap": 6.0}),
    "neither": ("run_fire", {"targets": (), "time_cap": 4.0}),
    "site_cap": ("run_fire", {"targets": (), "time_cap": 5.0, "DEFAULT_SITE_CAP": 256}),
    "unmet": ("run_fire", {"targets": [5000], "time_cap": 3.0}),
    "blue": ("run_blue_experiment", {"n_k": 6, "cycles": 4, "reach_window": 384}),
    "blue_window": ("run_blue_experiment", {"n_k": 20, "cycles": 3, "reach_window": 40}),
    "blue_time_cap": ("run_blue_experiment", {"n_k": 8, "cycles": 5, "reach_window": 512,
                                              "DEFAULT_TIME_CAP": 10.0}),
    "gap": ("detect_gap_event", [(12, 0.5, 1.0), (40, 2.0, 0.7), (200, 1.0, 3.0)]),
}

# memoryless run_fire cases: targets, the window of a target, a target
# left unmet at the time cap, and a site cap that raises CapExceeded
MEMORYLESS = {
    "targets": ("run_fire", {"targets": [5, 100], "coupled": False}),
    "reach_window": ("window", {"targets": [96], "time_cap": 6.0, "coupled": False}),
    "unmet": ("run_fire", {"targets": [5000], "time_cap": 3.0, "coupled": False}),
    "site_cap": ("run_fire", {"targets": (), "time_cap": 8.0, "DEFAULT_SITE_CAP": 128,
                              "coupled": False}),
}
GOLDEN = {"lattice_golden.json": RUNS, "memoryless_golden.json": MEMORYLESS}


@contextlib.contextmanager
def _patched(kwargs: dict):
    """The keyword arguments `kwargs` without its upper-case keys, which
    set caps of `fire` inside the block and are restored after it."""
    with pytest.MonkeyPatch.context() as patch:
        for key, value in kwargs.items():
            if key.isupper():
                patch.setattr(fire, key, value)
        yield {key: value for key, value in kwargs.items() if not key.isupper()}


def _records(recs) -> list:
    return [[rec.i, float(rec.tau_i), int(rec.rho_i), int(rec.rho_F_i),
             rec.censored_B, rec.censored_F] for rec in recs]


def _run(runs: dict, name: str, r: int, profile: str, seed: int):
    cfg = ModelConfig(space="discrete", r=r, profile=PROFILES[profile])
    noise = NoiseField(replication_seed(1000 + r, seed), cfg)
    func, kwargs = runs[name]
    if func == "detect_gap_event":
        return [bool(fire.detect_gap_event(noise, span, start, dur))
                for span, start, dur in kwargs]
    try:
        with _patched(kwargs) as kwargs:
            if func == "run_blue_experiment":
                return _records(fire.run_blue_experiment(noise, **kwargs))
            trace = fire.run_fire(noise, **kwargs)
    except CapExceeded:
        return "CapExceeded"
    return {"events": [[float(ev.time), int(ev.rightmost), bool(ev.censored)]
                       for ev in trace.events],
            "tau": {str(x): float(t) for x, t in trace.tau.items()},
            "complete": trace.complete, "censored": trace.censored}


def _window_prefix(pinned: dict, x: int) -> dict:
    """The trace of a run to x, from the pinned trace of a run without
    targets that censored every burn at the same window: its events up to
    the first that reaches x."""
    events = pinned["events"]
    hit = [i for i, ev in enumerate(events) if ev[1] >= x]
    events = events[:hit[0] + 1] if hit else events
    return {"events": events, "tau": {str(x): events[-1][0]} if hit else {},
            "complete": bool(hit), "censored": any(ev[2] for ev in events)}


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
    func, kwargs = GOLDEN[file][name]
    for seed in SEEDS:
        got = json.loads(json.dumps(_run(GOLDEN[file], name, r, profile, seed)))
        want = golden[file][_key(name, r, profile, seed)]
        if func == "window":
            want = _window_prefix(want, *kwargs["targets"])
        assert got == want, _key(name, r, profile, seed)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("profile", PROFILES)
def test_blue_batch_matches_golden(golden, monkeypatch, r, profile):
    """The blue cases of seeds 0-3 as one `run_blue_experiments` batch, in
    blocks of 1, 2 and all pairs, give the golden records of their runs
    alone, and a run stopped at the time cap gives CapExceeded in place."""
    cfg = ModelConfig(space="discrete", r=r, profile=PROFILES[profile])
    noises = [NoiseField(replication_seed(1000 + r, seed), cfg) for seed in SEEDS]
    for name, (func, kwargs) in RUNS.items():
        if func != "run_blue_experiment":
            continue
        cap = fire._window(cfg, [kwargs["n_k"]], kwargs["reach_window"])
        want = [golden["lattice_golden.json"][_key(name, r, profile, seed)] for seed in SEEDS]
        for pairs in (1, 2, len(SEEDS)):
            monkeypatch.setattr(fire, "_CELLS", 2 * pairs * cap)
            with _patched(kwargs) as args:
                batch = fire.run_blue_experiments(noises, **args)
            got = ["CapExceeded" if isinstance(res, CapExceeded) else _records(res)
                   for res in batch]
            assert json.loads(json.dumps(got)) == want, (name, pairs)


# exponentials `NoiseField._arrival_block` draws: the golden `blue` case
# over seeds 0-3 by (r, profile), and one lattice `prop1` replication
BLUE_DRAWS = {(1, "constant"): 118147, (1, "periodic"): 114204, (1, "iid-uniform"): 107512,
              (2, "constant"): 62284, (2, "periodic"): 73108, (2, "iid-uniform"): 56434,
              (3, "constant"): 49308, (3, "periodic"): 64193, (3, "iid-uniform"): 39717}
PROP1_DRAWS = 242741


def _drawn(run) -> int:
    """The exponentials `run()` draws through `NoiseField._arrival_block`."""
    drawn, block = [0], NoiseField._arrival_block

    def counted(self, *args):
        sums, times = block(self, *args)
        drawn[0] += sums.size
        return sums, times

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NoiseField, "_arrival_block", counted)
        run()
    return drawn[0]


def test_draw_counts_are_pinned():
    """The draw widths of the coupled state, pinned by the exponentials it
    draws; the floats it keeps do not show them.  A change that means to
    draw differently updates these counts."""
    for r, profile in BLUE_DRAWS:
        got = _drawn(lambda: [_run(RUNS, "blue", r, profile, seed) for seed in SEEDS])
        assert got == BLUE_DRAWS[r, profile], (r, profile)
    cfg = ModelConfig(space="discrete", r=1, profile=PROFILES["periodic"])
    assert _drawn(lambda: experiments.validate_prop1(cfg, 20.0, 1, 7, (4, 16))) == PROP1_DRAWS


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for file, runs in GOLDEN.items():
        pinned = json.loads((DATA / file).read_text())   # the fixed-window runs are kept
        out = {_key(name, r, profile, seed): pinned[_key(name, r, profile, seed)]
               if runs[name][0] == "window" else _run(runs, name, r, profile, seed)
               for name in runs for r in (1, 2, 3) for profile in PROFILES for seed in SEEDS}
        (DATA / file).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
