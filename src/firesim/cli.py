"""Command-line entry point.

Parses a JSON run configuration, dispatches to the simulators, oracles and
validators, and persists results as CSV/JSON for downstream plotting.  All
outputs embed the config hash, master seed and tool version; bodies are
byte-identical across re-runs and worker counts.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, analytic, experiments, fire
from .model import ModelConfig, NoiseField, RateProfile
from .rng import replication_seed


class ConfigError(Exception):
    pass


_TOP_KEYS = {"model", "seed", "reps", "run", "validate", "schedule", "sweep"}
_MODEL_KEYS = {"space", "r", "profile", "intensity",
               "connect_distance", "ignite_distance"}
_PROFILE_KEYS = {"kind", "value", "values", "c1", "c2", "seed"}
_SECTION_KEYS = {
    "run": {"targets", "time_cap"},
    "validate": {"suite", "horizon", "targets", "n", "epsilon", "gamma", "k",
                 "cycles", "t_values", "x", "permutation"},
    "schedule": {"gamma", "k_max"},
    "sweep": {"x_grid", "time_cap"},
}
_SUITES = ("prop1", "thresholds", "lemma1", "alpha_k", "growth",
           "permutation", "oracles", "continuous-moments")
_LATTICE_SUITES = {"thresholds", "lemma1", "alpha_k", "growth", "permutation"}


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _build_profile(spec: dict) -> RateProfile:
    _check_keys(spec, _PROFILE_KEYS, "model.profile")
    kind = spec.get("kind", "constant")
    try:
        if kind == "constant":
            return RateProfile.constant(float(spec.get("value", 1.0)))
        if kind == "explicit":
            return RateProfile.explicit(tuple(spec["values"]),
                                        float(spec["c1"]), float(spec["c2"]))
        if kind == "periodic":
            return RateProfile.periodic(tuple(spec["values"]),
                                        float(spec["c1"]), float(spec["c2"]))
        if kind == "iid-uniform":
            return RateProfile.iid_uniform(float(spec["c1"]), float(spec["c2"]),
                                           int(spec.get("seed", 0)))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad profile spec: {exc}") from exc
    raise ConfigError(f"unknown profile kind {kind!r}")


def _build_model(spec: dict) -> ModelConfig:
    _check_keys(spec, _MODEL_KEYS, "model")
    kwargs = {}
    if "profile" in spec:
        kwargs["profile"] = _build_profile(spec["profile"])
    for key in ("intensity", "connect_distance", "ignite_distance"):
        if key in spec:
            kwargs[key] = float(spec[key])
    try:
        return ModelConfig(space=spec.get("space", "discrete"),
                           r=int(spec.get("r", 1)), **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    for section, allowed in _SECTION_KEYS.items():
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"section {section!r} must be an object")
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


def _targets(model: ModelConfig, values, where: str) -> list:
    """A non-empty list of targets: numbers >= 1 on the lattice, > 0 on
    the continuous model, and within the site cap on both."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list")
    least = 1 if model.space == "discrete" else None
    return [_number(v, f"each entry of {where}", least=least, most=fire.DEFAULT_SITE_CAP)
            for v in values]


def _time_cap(section: dict, where: str) -> float:
    return float(_number(section.get("time_cap", fire.DEFAULT_TIME_CAP), f"{where}.time_cap"))


def _require_gamma(gamma: float) -> float:
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


def write_csv(path: str | None, comments: list[str], columns: list[str],
              rows: list[tuple]) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    body = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


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
    """tau_target of a block of replications, run in lockstep; NaN where a
    replication raised CapExceeded or stopped at the time cap."""
    config, target, seeds, time_cap = args
    taus = experiments.first_burn_times(config, seeds, target, time_cap=time_cap)
    return [math.nan if tau is None else tau for tau in taus]


def _pmap(fn, args_list, workers: int):
    if workers <= 1 or len(args_list) < 2:
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
    rows = []
    any_censoring = False
    for target in targets:
        jobs = [(model, target, [replication_seed(seed, i) for i in block], time_cap)
                for block in _rep_blocks(model, reps, args.workers)]
        vals = np.concatenate(_pmap(_tau_block, jobs, args.workers))
        good = vals[~np.isnan(vals)]
        censored = int(np.isnan(vals).sum())
        any_censoring = any_censoring or censored > 0
        rows.append((f"tau_{target}", *experiments._mean_and_stderr(good),
                     len(good), seed, censored))
    write_csv(args.out, _header(cfg, seed),
              ["quantity", "estimate", "stderr", "reps", "seed", "censored"], rows)
    if args.emit_plot_data:
        trace = fire.run_fire(NoiseField(replication_seed(seed, 0), model),
                              model, targets=[max(targets)], time_cap=time_cap,
                              coupled=False)
        ev_rows = [(ev.time, ev.rightmost, ev.censored) for ev in trace.events]
        out = (args.out + ".trace.csv") if args.out else None
        write_csv(out, _header(cfg, seed, ["burn events of replication 0"]),
                  ["time", "rightmost", "censored"], ev_rows)
    return 3 if any_censoring else 0


def cmd_schedule(cfg: dict, args) -> int:
    model = _build_model(cfg.get("model", {}))
    section = cfg.get("schedule", {})
    gamma = _require_gamma(float(section.get("gamma", 1.5)))
    k_max = int(section.get("k_max", 5))
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
    if suite == "continuous-moments" and (
            model.intensity, model.connect_distance, model.ignite_distance) != (1.0, 1.0, 1.0):
        raise ConfigError("suite 'continuous-moments' checks the unit model only: "
                          "intensity, connect_distance and ignite_distance must be 1")
    seed, reps = args.seed, args.reps
    if suite == "prop1":
        report = experiments.validate_prop1(
            model, float(section.get("horizon", 5.0)), reps, seed,
            targets=section.get("targets", (4, 16)))
    elif suite == "thresholds":
        report = experiments.validate_thresholds(
            model, int(section.get("n", 10_000)),
            float(section.get("epsilon", 0.2)), reps, seed)
    elif suite == "lemma1":
        report = experiments.validate_lemma1(
            model, _require_gamma(float(section.get("gamma", 1.5))),
            int(section.get("k", 4)), int(section.get("cycles", 100)), seed)
    elif suite == "alpha_k":
        est = experiments.estimate_alpha_k(
            model, _require_gamma(float(section.get("gamma", 1.5))),
            int(section.get("k", 4)), reps, seed)
        report = {"suite": "alpha_k", "alpha_hat": est.mean,
                  "stderr": est.stderr, "reps": est.reps,
                  "censored": est.censored}
    elif suite == "growth":
        report = experiments.estimate_growth(
            model, _require_gamma(float(section.get("gamma", 1.5))),
            int(section.get("k", 4)), reps, seed)
    elif suite == "permutation":
        x = int(section.get("x", 4))
        perm = section.get("permutation")
        if perm is None:
            raise ConfigError("permutation suite requires validate.permutation")
        report = experiments.validate_permutation(model.profile, x, perm, reps, seed)
    elif suite == "oracles":
        report = experiments.validate_oracles()
    else:
        report = experiments.validate_continuous_moments(
            section.get("t_values", (1.0, 2.0, 3.0)), reps, seed)
    doc = {"firesim": __version__, "config_hash": config_hash(cfg),
           "master_seed": seed, "report": report}
    body = json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0 if report.get("pass", True) else 3


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
                        help="worker processes for `run` (default: CPU count); "
                             "other commands ignore it")
    parser.add_argument("--emit-plot-data", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is None:
            args.seed = int(cfg.get("seed", 0))
        if args.reps is None:
            args.reps = int(cfg.get("reps", 100))
        if args.reps < 2:
            raise ConfigError("reps must be >= 2")
        handler = {"run": cmd_run, "validate": cmd_validate,
                   "schedule": cmd_schedule, "sweep": cmd_sweep}[args.command]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
