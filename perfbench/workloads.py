"""The four benchmark workloads.

Each workload is a sequence of rounds.  A round runs the workload's
estimators once, at a fixed reduced size, on a seed derived from the
benchmark seed and the round index, and ends in a checked verdict.  The
program is driven only through public entry points: `cli.main` and the
`experiments`, `analytic` and `green` functions.  Every call goes through a
module attribute at call time, so a traced run sees it.

Verdict gates come in two kinds.  Exact gates (oracle agreement, coupling
and renewal invariants, CLI exit codes, t_* inversion) must hold on every
round.  Statistical gates (3-sigma identity and moment checks, the kappa
bound) have a nominal false-alarm rate per evaluation; one that misses is
re-run once on an independent seed derived from the round seed, and the
gate fails only when both miss.  First-stage misses are reported.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os

import numpy as np

SWEEP_GRID = [2 ** j for j in range(4, 13)]


def derive_seed(*parts) -> int:
    """Deterministic 31-bit seed from the benchmark seed and labels."""
    blob = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") >> 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(report) -> str:
    """Digest of a report; floats are written in shortest round-trip form."""
    return digest(json.dumps(report, sort_keys=True, default=repr))


class Verdict:
    """Outcome of one round: gates, failures, sizes and output digests."""

    def __init__(self):
        self.gates: dict[str, bool] = {}
        self.first_stage_misses: list[str] = []
        self.reps_requested = 0
        self.attempted = 0           # replications or cycles attempted
        self.failed: dict[str, int] = {}   # as the program reports them
        self.nan_rows = 0
        self.digests: dict[str, str] = {}

    def gate(self, name: str, ok) -> None:
        self.gates[name] = bool(ok)

    def statistical(self, name: str, check, seed: int):
        """Two-stage gate: `check(seed)` returns (ok, report)."""
        ok, report = check(seed)
        if not ok:
            self.first_stage_misses.append(name)
            ok, _ = check(derive_seed(seed, "confirm", name))
        self.gate(name, ok)
        return report

    def fail(self, reason: str, n: int) -> None:
        self.failed[reason] = self.failed.get(reason, 0) + int(n)

    @property
    def passed(self) -> bool:
        return all(self.gates.values())

    def as_dict(self) -> dict:
        return {"passed": self.passed, "gates": self.gates,
                "first_stage_misses": self.first_stage_misses,
                "reps_requested": self.reps_requested, "attempted": self.attempted,
                "failed": self.failed, "nan_rows": self.nan_rows,
                "digests": self.digests}


def _run_cli(firesim, argv: list[str], out: str):
    """Run one CLI command with `--out`; return its exit code, the CSV body,
    the `# key value` header lines and the table rows."""
    code = firesim.cli.main(argv + ["--out", out, "--workers", "1"])
    with open(out) as fh:
        body = fh.read()
    comments, lines = {}, []
    for line in body.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            comments[key] = value
        else:
            lines.append(line)
    return code, body, comments, list(csv.DictReader(io.StringIO("\n".join(lines))))


def _record_csv(verdict: Verdict, name: str, code: int, body: str, rows, column: str):
    """Digest a CLI CSV body, gate its exit code against the censoring it
    reports, and count censored replications and NaN rows."""
    verdict.digests[name] = digest(body)
    censored = sum(int(row["censored"]) for row in rows)
    verdict.gate(f"{name}.exit_code", code == (3 if censored else 0))
    verdict.fail(f"{name}.censored_reps", censored)
    verdict.nan_rows += sum(math.isnan(float(row[column])) for row in rows)


def _write_config(workdir: str, name: str, payload: dict) -> str:
    importlib.import_module("firesim.cli")   # the CLI is not imported by the package
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


# ---------------------------------------------------------------------------

class LatticeSweep:
    """`firesim sweep` over x = 2^4..2^12 (r=1, lambda=1): the lattice engine
    at windows of 256..16384 sites, where materialisation and the global
    argsort grow with x and replay is about 1 %."""

    name = "lattice-sweep"
    sizes = {"x_grid": SWEEP_GRID, "reps_per_x": 10, "r": 1, "lambda": 1.0}
    trace_rounds = 2

    def setup(self, firesim, workdir: str) -> dict:
        payload = {"model": {"space": "discrete", "r": 1,
                             "profile": {"kind": "constant", "value": 1.0}},
                   "seed": 0, "reps": self.sizes["reps_per_x"],
                   "sweep": {"x_grid": SWEEP_GRID}}
        return {"config": _write_config(workdir, "sweep", payload), "workdir": workdir}

    def round(self, firesim, inputs: dict, seed: int) -> Verdict:
        v = Verdict()
        reps = self.sizes["reps_per_x"]

        def sweep(s):
            code, body, comments, rows = _run_cli(
                firesim, ["sweep", "--config", inputs["config"], "--seed", str(s),
                          "--reps", str(reps)],
                os.path.join(inputs["workdir"], f"sweep-{s}.csv"))
            return float(comments["kappa_hat"]) <= 1.45, (code, body, rows)

        code, body, rows = v.statistical("sweep.kappa_hat<=1.45", sweep, seed)
        _record_csv(v, "sweep", code, body, rows, "mean_tau")
        v.gate("sweep.rows", [int(row["x"]) for row in rows] == SWEEP_GRID)
        v.reps_requested = v.attempted = reps * len(SWEEP_GRID)
        return v


class LatticeRenewal:
    """estimate_growth, validate_lemma1 and estimate_alpha_k at gamma=1.5, k=4:
    the fire layer used differently -- two-target runs, blue replays,
    fixed-window censoring and the arrival-gap detector.  A change that
    speeds the sweep but costs replays or censoring shows here."""

    name = "lattice-renewal"
    sizes = {"gamma": 1.5, "k": 4, "growth_reps": 60, "lemma1_cycles": 100,
             "lemma1_cycles_per_rep": 4, "alpha_reps": 20}
    trace_rounds = 2

    def setup(self, firesim, workdir: str) -> dict:
        config = firesim.ModelConfig(space="discrete", r=1,
                                     profile=firesim.RateProfile.constant(1.0))
        ladder = firesim.analytic.schedule(config.profile, config.r,
                                           self.sizes["gamma"], self.sizes["k"] + 1)
        return {"config": config, "n_k": ladder[3].n_k, "n_k1": ladder[4].n_k}

    def round(self, firesim, inputs: dict, seed: int) -> Verdict:
        v = Verdict()
        exp, config, sz = firesim.experiments, inputs["config"], self.sizes
        v.gate("ladder.n_k", (inputs["n_k"], inputs["n_k1"]) == (79, 993))

        def growth(s):
            rep = exp.estimate_growth(config, sz["gamma"], sz["k"], sz["growth_reps"], s)
            return rep["identity_ok"] and rep["ratio_ok"], rep

        rep = v.statistical("growth.identity_and_ratio", growth, seed)
        v.gate("growth.n_k", (rep["n_k"], rep["n_k_plus_1"]) == (inputs["n_k"], inputs["n_k1"]))
        v.fail("growth.censored_reps", rep["censored"])
        v.digests["growth"] = report_digest(rep)

        lem = exp.validate_lemma1(config, sz["gamma"], sz["k"], sz["lemma1_cycles"], seed,
                                  cycles_per_rep=sz["lemma1_cycles_per_rep"])
        v.gate("lemma1.pass", lem["pass"] and lem["cycles_checked"] >= sz["lemma1_cycles"])
        v.fail("lemma1.censored_cycles", lem["censored"])
        v.digests["lemma1"] = report_digest(lem)

        alpha = exp.estimate_alpha_k(config, sz["gamma"], sz["k"], sz["alpha_reps"], seed)
        v.gate("alpha_k.range", alpha.reps + alpha.censored == sz["alpha_reps"]
               and (alpha.reps == 0 or 0.0 <= alpha.mean <= 1.0))
        v.fail("alpha_k.censored_reps", alpha.censored)
        v.digests["alpha_k"] = report_digest(alpha.__dict__)

        v.reps_requested = sz["growth_reps"] + sz["lemma1_cycles"] + sz["alpha_reps"]
        v.attempted = (sz["growth_reps"] + lem["cycles_checked"] + lem["censored"]
                       + sz["alpha_reps"])
        return v


class Continuous:
    """validate_prop1 plus `firesim run` on the continuous model: scalar
    per-cell rng and Poisson inversion, points_in, the continuous green/fire
    loops and the terminal-burn chase.  Bypasses the lattice engine.

    `run_time_cap` bounds the chase: uncapped, one replication at target 2.0
    took 212 s, longer than a benchmark run may last."""

    name = "continuous"
    # Small rounds: a run's replication times are heavy-tailed (the terminal
    # chase), so many short rounds give a median that a few chases cannot move.
    sizes = {"prop1_reps": 5, "prop1_horizon": 5.0, "prop1_targets": [3.0, 10.0],
             "run_reps": 5, "run_targets": [2.0], "run_time_cap": 8.0}
    trace_rounds = 12

    def setup(self, firesim, workdir: str) -> dict:
        sz = self.sizes
        payload = {"model": {"space": "continuous"}, "seed": 0, "reps": sz["run_reps"],
                   "run": {"targets": sz["run_targets"], "time_cap": sz["run_time_cap"]}}
        return {"config": firesim.ModelConfig(space="continuous"),
                "cli_config": _write_config(workdir, "run", payload), "workdir": workdir}

    def round(self, firesim, inputs: dict, seed: int) -> Verdict:
        v = Verdict()
        sz = self.sizes
        rep = firesim.experiments.validate_prop1(
            inputs["config"], sz["prop1_horizon"], sz["prop1_reps"], seed,
            targets=tuple(sz["prop1_targets"]))
        v.gate("prop1.zero_violations", rep["pass"] and rep["tau_violations"] == 0
               and rep["record_mismatches"] == 0)
        v.digests["prop1"] = report_digest(rep)
        code, body, _, rows = _run_cli(
            firesim, ["run", "--config", inputs["cli_config"], "--seed", str(seed),
                      "--reps", str(sz["run_reps"])],
            os.path.join(inputs["workdir"], f"run-{seed}.csv"))
        _record_csv(v, "run", code, body, rows, "estimate")
        v.gate("run.rows", [row["quantity"] for row in rows]
               == [f"tau_{t}" for t in sz["run_targets"]])
        v.reps_requested = v.attempted = sz["prop1_reps"] + sz["run_reps"] * len(sz["run_targets"])
        return v


class OracleMC:
    """Oracles, ladders, t_star and the law-exact samplers: the control that
    uses neither the noise field nor the counter rng."""

    name = "oracle-mc"
    sizes = {"threshold_n": 10 ** 4, "threshold_epsilon": 0.2, "threshold_reps": 10 ** 4,
             "moment_t": [1.0, 2.0, 3.0], "moment_reps": 10 ** 5,
             "reach_loop_reps": 20_000, "random_profiles": 20}
    trace_rounds = 2

    def setup(self, firesim, workdir: str) -> dict:
        profile = firesim.RateProfile.constant(1.0)
        return {"profile": profile,
                "config": firesim.ModelConfig(space="discrete", r=1, profile=profile)}

    def round(self, firesim, inputs: dict, seed: int) -> Verdict:
        v = Verdict()
        sz = self.sizes
        exp, analytic, green = firesim.experiments, firesim.analytic, firesim.green
        profile, config = inputs["profile"], inputs["config"]

        orc = exp.validate_oracles()
        v.gate("oracles<=1e-12", orc["pass"] and orc["max_abs_error"] <= 1e-12)

        ladders = {r: analytic.schedule(profile, r, 1.5, k_max)
                   for r, k_max in ((1, 5), (2, 4), (3, 3))}
        v.gate("ladder.order", all(e.gamma_k <= e.T_k + 1e-9 for es in ladders.values()
                                   for e in es))
        worst = max(abs(math.exp(r * analytic.t_star(profile, r, n, 0.5)) - 2 * (n - r + 1))
                    / (2 * (n - r + 1)) for r in (1, 2, 3) for n in (r + 1, 10, 100, 1000))
        gen = np.random.default_rng(derive_seed(seed, "profiles"))
        bracket_fail = 0
        for _ in range(sz["random_profiles"]):
            c1 = float(gen.uniform(0.3, 1.0))
            c2 = c1 + float(gen.uniform(0.1, 1.5))
            r = int(gen.integers(1, 4))
            n = int(gen.integers(r + 1, 200))
            prof = firesim.RateProfile.explicit(tuple(gen.uniform(c1, c2, size=n + 5)), c1, c2)
            T = analytic.t_star(prof, r, n, 0.5)
            lo, hi = (2 * n - 2 * r + 2) ** (1 / c2), (2 * n - 2 * r + 2) ** (1 / c1)
            bracket_fail += not (lo - 1e-9 <= math.exp(r * T) <= hi + 1e-9)
        v.gate("t_star.inversion", worst <= 1e-9 and bracket_fail == 0)
        v.digests["ladders"] = report_digest({r: [e.__dict__ for e in es]
                                              for r, es in ladders.items()})

        def thresholds(s):
            rep = exp.validate_thresholds(config, sz["threshold_n"], sz["threshold_epsilon"],
                                          sz["threshold_reps"], s)
            return rep["pass"] and rep["below_ok"] and rep["above_ok"], rep

        v.digests["thresholds"] = report_digest(
            v.statistical("thresholds.envelopes", thresholds, seed))

        def moments(s):
            rep = exp.validate_continuous_moments(tuple(sz["moment_t"]), sz["moment_reps"], s)
            return rep["pass"], rep

        v.digests["moments"] = report_digest(v.statistical("moments.3sigma", moments, seed))

        def reach_loop(s):
            # P(N_green(ln 2) >= 3) = 1/8 exactly for r = 1, lambda = 1
            n = sz["reach_loop_reps"]
            gen_ = firesim.rng.rep_rng(s, 0)
            hits = np.fromiter((green.sample_green_reach(gen_, profile, 1, math.log(2), 10 ** 6)
                                >= 3 for _ in range(n)), dtype=bool, count=n)
            p_hat = float(hits.mean())
            return abs(p_hat - 0.125) <= 3 * math.sqrt(0.125 * 0.875 / n), p_hat

        v.digests["reach_loop"] = report_digest(
            v.statistical("reach_loop.3sigma", reach_loop, seed))

        v.reps_requested = v.attempted = (2 * sz["threshold_reps"]
                                          + len(sz["moment_t"]) * sz["moment_reps"]
                                          + sz["reach_loop_reps"])
        return v


WORKLOADS = {w.name: w for w in (LatticeSweep(), LatticeRenewal(), Continuous(), OracleMC())}
