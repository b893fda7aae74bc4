"""Command-line entry point.

Parses a JSON run configuration, dispatches to the simulators, oracles and
validators, and persists results as CSV/JSON for downstream plotting.  All
outputs embed the config hash, master seed and tool version; bodies are
byte-identical across re-runs and worker counts.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, analytic, experiments, fire
from .model import CapExceeded, ModelConfig, NoiseField, ProfileTooShort, RateProfile
from .rng import replication_seed


class ConfigError(Exception):
    pass


_TOP_KEYS = {"model", "seed", "reps", "run", "validate", "schedule", "sweep"}
# the keys each model space, profile kind and validate suite reads
_SPACE_KEYS = {"discrete": {"space", "r", "profile"},
               "continuous": {"space", "intensity", "connect_distance", "ignite_distance"}}
_KIND_KEYS = {"constant": {"kind", "value"},
              "explicit": {"kind", "values", "c1", "c2"},
              "periodic": {"kind", "values", "c1", "c2"},
              "iid-uniform": {"kind", "c1", "c2", "seed"}}
_SUITE_KEYS = {"prop1": {"suite", "horizon", "targets"},
               "thresholds": {"suite", "n", "epsilon"},
               "lemma1": {"suite", "gamma", "k", "cycles"},
               "alpha_k": {"suite", "gamma", "k"},
               "growth": {"suite", "gamma", "k"},
               "permutation": {"suite", "x", "permutation"},
               "oracles": {"suite"},
               "continuous-moments": {"suite", "t_values"}}
_SECTION_KEYS = {
    "run": {"targets", "time_cap"},
    "validate": set().union(*_SUITE_KEYS.values()),
    "schedule": {"gamma", "k_max"},
    "sweep": {"x_grid", "time_cap"},
}
_SUITES = tuple(_SUITE_KEYS)
_LATTICE_SUITES = {"thresholds", "lemma1", "alpha_k", "growth", "permutation"}
_MOMENT_GAPS = 1 << 30   # most gaps continuous-moments draws at one t: reps * (e^t - 1)


def _check_keys(mapping, allowed: set, where: str, reader: str = "") -> None:
    """ConfigError unless `mapping` is an object of only `allowed` keys:
    those `where` may hold, or those `reader` reads when named."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    extra = ", ".join(sorted(set(mapping) - allowed))
    if extra:
        raise ConfigError(f"{reader} reads no {where} key(s) {extra}" if reader
                          else f"unknown key(s) in {where}: {extra}")


def _build_profile(spec) -> RateProfile:
    where = "model.profile"
    _check_keys(spec, set().union(*_KIND_KEYS.values()), where)
    kind = spec.get("kind", "constant")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError(f"unknown profile kind {kind!r}")
    _check_keys(spec, _KIND_KEYS[kind], where, f"a {kind} profile")
    if kind == "constant":
        return RateProfile.constant(float(_number(spec.get("value", 1.0), f"{where}.value")))
    c1, c2 = (float(_number(spec.get(key), f"{where}.{key}")) for key in ("c1", "c2"))
    try:
        if kind == "iid-uniform":
            return RateProfile.iid_uniform(c1, c2, _integer(spec.get("seed", 0), f"{where}.seed",
                                                            0, most=2 ** 64 - 1))
        return RateProfile(kind, c1, c2, tuple(_numbers(spec.get("values"), f"{where}.values")))
    except ValueError as exc:
        raise ConfigError(f"bad profile spec: {exc}") from exc


def _build_model(spec) -> ModelConfig:
    _check_keys(spec, set().union(*_SPACE_KEYS.values()), "model")
    space = spec.get("space", "discrete")
    if isinstance(space, str) and space in _SPACE_KEYS:    # else ModelConfig names it
        _check_keys(spec, _SPACE_KEYS[space], "model", f"the {space} model")
    kwargs = {key: float(_number(spec[key], f"model.{key}"))
              for key in ("intensity", "connect_distance", "ignite_distance") if key in spec}
    if "profile" in spec:
        kwargs["profile"] = _build_profile(spec["profile"])
    try:
        return ModelConfig(space=space,
                           r=_integer(spec.get("r", 1), "model.r", 1, most=fire.DEFAULT_SITE_CAP),
                           **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    for section, allowed in _SECTION_KEYS.items():
        if section in cfg:
            _check_keys(cfg[section], allowed, section)
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _number(value, where: str, *, least: float | None = None,
            most: float = math.inf) -> float:
    """`value` if it is a finite number > 0 (>= `least` when given) and
    <= `most`; ConfigError otherwise."""
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value) and value <= most
              and (value > 0 if least is None else value >= least))
    except OverflowError:   # an int too large for a float
        ok = False
    if not ok:
        bound = "> 0" if least is None else f">= {least}"
        if most < math.inf:
            bound += f" and <= {most}"
        raise ConfigError(f"{where} must be a finite number {bound}; got {value!r}")
    return value


def _integer(value, where: str, least: int, most: float = math.inf) -> int:
    """`value` if it is a JSON integer in [`least`, `most`]; ConfigError
    otherwise."""
    if type(value) is not int or not least <= value <= most:    # bool is not an int here
        bound = f">= {least}" + (f" and <= {most}" if most < math.inf else "")
        raise ConfigError(f"{where} must be an integer {bound}; got {value!r}")
    return value


def _numbers(values, where: str, **bounds) -> list:
    """A non-empty list of numbers, each within `_number`'s `bounds`."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list")
    return [_number(v, f"each entry of {where}", **bounds) for v in values]


def _targets(model: ModelConfig, values, where: str) -> list:
    """A non-empty list of targets: numbers >= 1 on the lattice, > 0 on
    the continuous model, and within the site cap on both."""
    least = 1 if model.space == "discrete" else None
    return _numbers(values, where, least=least, most=fire.DEFAULT_SITE_CAP)


def _time_cap(section: dict, where: str) -> float:
    return float(_number(section.get("time_cap", fire.DEFAULT_TIME_CAP), f"{where}.time_cap"))


def _gamma(section: dict, where: str) -> float:
    gamma = float(_number(section.get("gamma", 1.5), f"{where}.gamma"))
    if not 1.0 < gamma < 2.0:
        raise ConfigError(f"gamma must satisfy gamma in (1,2); got {gamma}")
    return gamma


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(path: str | None, body: str) -> None:
    """Write `body` to the file `path`, or to stdout without one."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(body)


def write_csv(path: str | None, comments: list[str], columns: list[str],
              rows: list[tuple]) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _header(cfg: dict, seed: int, extra: list[str] = ()) -> list[str]:
    return [f"firesim {__version__}", f"config_hash {config_hash(cfg)}",
            f"master_seed {seed}", *extra]


# ---------------------------------------------------------------------------
# replication workers (module level: must be picklable)
# ---------------------------------------------------------------------------

_REP_BLOCK = 32   # most lattice replications one `run` job steps in lockstep


def _rep_blocks(model: ModelConfig, reps: int, workers: int) -> list[range]:
    """The replication indices of `run`'s jobs, in order: one replication a
    job on the continuous model, which has no lockstep form; on the lattice
    blocks of at most _REP_BLOCK, small enough that every worker gets one.
    Each replication has the floats of its run alone, so the blocks do not
    change the output."""
    block = 1 if model.space == "continuous" else min(_REP_BLOCK, -(-reps // max(1, workers)))
    return [range(lo, min(lo + block, reps)) for lo in range(0, reps, block)]


def _tau_block(args):
    """tau of each target for a block of replications, each run once to the
    largest target, in lockstep: one list per target, NaN where a
    replication raised CapExceeded or stopped at the time cap first."""
    config, targets, seeds, time_cap = args
    return [[math.nan if tau is None else tau for tau in taus]
            for taus in experiments.first_burn_times(config, seeds, targets, time_cap=time_cap)]


def _pmap(fn, args_list, workers: int):
    # at most one worker a job and one a CPU: a fork pool starts them all at once
    workers = min(workers, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(a) for a in args_list]
    chunk = max(1, len(args_list) // (8 * workers))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, args_list, chunksize=chunk))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(cfg: dict, args) -> int:
    model = _build_model(cfg.get("model", {}))
    section = cfg.get("run", {})
    targets = _targets(model, section.get("targets"), "run.targets")
    time_cap = _time_cap(section, "run")
    seed, reps = args.seed, args.reps
    jobs = [(model, targets, [replication_seed(seed, i) for i in block], time_cap)
            for block in _rep_blocks(model, reps, args.workers)]
    rows = []
    for target, blocks in zip(targets, zip(*_pmap(_tau_block, jobs, args.workers))):
        vals = np.concatenate(blocks)
        good = vals[~np.isnan(vals)]
        rows.append((f"tau_{target}", *experiments._mean_and_stderr(good),
                     len(good), seed, len(vals) - len(good)))
    write_csv(args.out, _header(cfg, seed),
              ["quantity", "estimate", "stderr", "reps", "seed", "censored"], rows)
    if args.emit_plot_data:
        trace = fire.run_fire(NoiseField(replication_seed(seed, 0), model),
                              targets=[max(targets)], time_cap=time_cap, coupled=False)
        ev_rows = [(ev.time, ev.rightmost, ev.censored) for ev in trace.events]
        out = (args.out + ".trace.csv") if args.out else None
        write_csv(out, _header(cfg, seed, ["burn events of replication 0"]),
                  ["time", "rightmost", "censored"], ev_rows)
    return 3 if any(row[-1] for row in rows) else 0


def cmd_schedule(cfg: dict, args) -> int:
    model = _build_model(cfg.get("model", {}))
    if model.space != "discrete":
        raise ConfigError("schedule needs the discrete model")
    section = cfg.get("schedule", {})
    gamma = _gamma(section, "schedule")
    k_max = _integer(section.get("k_max", 5), "schedule.k_max", 1)
    status = 0
    try:
        entries = analytic.schedule(model.profile, model.r, gamma, k_max)
    except OverflowError as exc:
        entries = exc.entries
        status = 3
    rows = [(e.k, e.gamma_k, e.n_k, e.T_k, e.T_k - e.gamma_k) for e in entries]
    write_csv(args.out, _header(cfg, args.seed, [f"gamma {gamma!r}"]),
              ["k", "gamma_k", "n_k", "T_k", "slack"], rows)
    return status


def cmd_sweep(cfg: dict, args) -> int:
    model = _build_model(cfg.get("model", {}))
    section = cfg.get("sweep", {})
    x_grid = _targets(model, section.get("x_grid"), "sweep.x_grid")
    time_cap = _time_cap(section, "sweep")
    report = experiments.scaling_study(model, x_grid, args.reps, args.seed,
                                       time_cap=time_cap)
    rows = [(row["x"], row["mean_tau"], row["stderr"], row["reps"],
             row["censored"]) for row in report["rows"]]
    write_csv(args.out,
              _header(cfg, args.seed,
                      [f"kappa_hat {report['kappa_hat']!r}",
                       f"min_tau_over_log_x {report['min_tau_over_log_x']!r}"]),
              ["x", "mean_tau", "stderr", "reps", "censored"], rows)
    censored = any(row["censored"] for row in report["rows"])
    return 3 if censored else 0


def cmd_validate(cfg: dict, args) -> int:
    model = _build_model(cfg.get("model", {}))
    section = cfg.get("validate", {})
    suite = section.get("suite")
    if suite not in _SUITES:
        raise ConfigError(f"validate.suite must be one of {', '.join(_SUITES)}")
    if suite in _LATTICE_SUITES and model.space != "discrete":
        raise ConfigError(f"suite {suite!r} needs the discrete model")
    _check_keys(section, _SUITE_KEYS[suite], "validate", f"suite {suite!r}")
    if suite == "continuous-moments" and (
            model.intensity, model.connect_distance, model.ignite_distance) != (1.0, 1.0, 1.0):
        raise ConfigError("suite 'continuous-moments' checks the unit model only: "
                          "intensity, connect_distance and ignite_distance must be 1")
    seed, reps = args.seed, args.reps
    if suite in ("lemma1", "alpha_k", "growth"):
        report = _ladder_suite(model, section, suite, seed, reps)
    elif suite == "prop1":
        report = experiments.validate_prop1(
            model, float(_number(section.get("horizon", 5.0), "validate.horizon")),
            reps, seed, targets=_targets(model, section.get("targets", [4, 16]),
                                         "validate.targets"))
    elif suite == "thresholds":
        epsilon = section.get("epsilon", 0.2)
        if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)) \
                or not 0 < epsilon < 1:
            raise ConfigError(f"validate.epsilon must be a number in (0, 1); got {epsilon!r}")
        n = _integer(section.get("n", 10_000), "validate.n", 2, most=fire.DEFAULT_SITE_CAP)
        report = experiments.validate_thresholds(model, n, float(epsilon), reps, seed)
    elif suite == "permutation":
        if model.r != 1:
            raise ConfigError(f"suite 'permutation' checks r = 1 only; got model.r = {model.r}")
        x = _integer(section.get("x", 4), "validate.x", 1, most=fire.DEFAULT_SITE_CAP)
        perm = section.get("permutation")
        if not (isinstance(perm, list) and len(perm) == x
                and all(type(v) is int for v in perm) and sorted(perm) == list(range(1, x + 1))):
            raise ConfigError(f"validate.permutation must order the sites 1..{x}; got {perm!r}")
        report = experiments.validate_permutation(model.profile, x, perm, reps, seed)
    elif suite == "oracles":
        report = experiments.validate_oracles()
    else:
        t_values = _numbers(section.get("t_values", [1.0, 2.0, 3.0]),
                            f"validate.t_values (at most {_MOMENT_GAPS} gaps over {reps} reps)",
                            most=math.log1p(_MOMENT_GAPS / reps))
        report = experiments.validate_continuous_moments(t_values, reps, seed)
    doc = {"firesim": __version__, "config_hash": config_hash(cfg),
           "master_seed": seed, "report": report}
    _write(args.out, json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n")
    return 0 if report.get("pass", True) else 3


def _ladder_suite(model: ModelConfig, section: dict, suite: str, seed: int,
                  reps: int) -> dict:
    """The report of lemma1, alpha_k or growth: the suites that run at
    level k of the time ladder."""
    gamma = _gamma(section, "validate")
    k = _integer(section.get("k", 4), "validate.k", 1)
    try:
        if suite == "lemma1":
            return experiments.validate_lemma1(
                model, gamma, k, _integer(section.get("cycles", 100), "validate.cycles", 1),
                seed)
        if suite == "growth":
            return experiments.estimate_growth(model, gamma, k, reps, seed)
        est = experiments.estimate_alpha_k(model, gamma, k, reps, seed)
    except OverflowError as exc:    # n_k passed the ladder's cap by level k + 1
        raise ConfigError(f"validate.k = {k} is too large: {exc}") from exc
    return {"suite": "alpha_k", "alpha_hat": est.mean, "stderr": est.stderr,
            "reps": est.reps, "censored": est.censored}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firesim",
        description="Forest-fire process simulator and analytic toolkit")
    parser.add_argument("command", choices=["run", "validate", "schedule", "sweep"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides config)")
    parser.add_argument("--reps", type=int, default=None,
                        help="replications (overrides config)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="worker processes for `run`, at most one a job and one "
                             "a CPU (default: CPU count); other commands ignore it")
    parser.add_argument("--emit-plot-data", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        args.seed = _integer(cfg.get("seed", 0) if args.seed is None else args.seed,
                             "seed", 0, most=2 ** 64 - 1)
        args.reps = _integer(cfg.get("reps", 100) if args.reps is None else args.reps,
                             "reps", 2)
        handler = {"run": cmd_run, "validate": cmd_validate,
                   "schedule": cmd_schedule, "sweep": cmd_sweep}[args.command]
        return handler(cfg, args)
    except (ConfigError, ProfileTooShort) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}; lower the horizon, time_cap or targets",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
