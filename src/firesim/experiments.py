"""Monte Carlo estimators and validation suites tying simulation to oracles.

Asymptotic statements are rendered as finite-size trend checks with
pre-registered margins; every estimator is deterministic given
(master_seed, config) and reports measured margins rather than silently
passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, fire, green
from .model import CapExceeded, ModelConfig, NoiseField, RateProfile
from .rng import rep_rng, replication_seed


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    reps: int
    master_seed: int
    quantity_id: str
    censored: int = 0


@dataclass(frozen=True)
class MinimaDecomposition:
    nu: int
    s: tuple[int, ...]


def extract_weak_minima(y) -> MinimaDecomposition:
    """Greedy spaced weak-local-minima decomposition of a sequence.

    y[0] must be +inf; index j (1 <= j <= len-2) qualifies when
    y[j] <= min(y[j-1], y[j+1]); successive picks are spaced >= 3 apart.
    The final index never qualifies (it has no right neighbour).
    """
    y = list(y)
    if len(y) < 2:
        raise ValueError("sequence must have length >= 2")
    if not math.isinf(y[0]) or y[0] < 0:
        raise ValueError("sequence must start with +inf")
    s: list[int] = []
    j = 1
    while j <= len(y) - 2:
        if y[j] <= min(y[j - 1], y[j + 1]):
            s.append(j)
            j += 3
        else:
            j += 1
    return MinimaDecomposition(nu=len(s), s=tuple(s))


def _mean_and_stderr(vals) -> tuple[float, float]:
    """Sample mean and its standard error; NaN where there are too few
    values (no mean without one, no standard error without two)."""
    arr = np.asarray(vals, dtype=float)
    mean = float(arr.mean()) if len(arr) else math.nan
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else math.nan
    return mean, stderr


def first_burn_times(config: ModelConfig, seeds, targets, **kwargs) -> list:
    """tau_x of each replication seeded by `seeds`, one list per target x of
    `targets`, in order: each replication runs once, to the largest target,
    on the memoryless lattice state in lockstep, and every smaller tau_x is
    that of a run to x alone.  None where the run raised CapExceeded or
    stopped at the time cap before burning x."""
    noises = [NoiseField(seed, config) for seed in seeds]
    runs = fire.run_fires(noises, targets, coupled=False, **kwargs)
    return [[None if isinstance(res, CapExceeded) else res.tau.get(x) for res in runs]
            for x in targets]


# ---------------------------------------------------------------------------
# fast distributional samplers (law-exact, no shared noise field)
# ---------------------------------------------------------------------------

_BLOCK_CELLS = 1 << 20    # candidate sites held at once across a block of rows


def _gap_block_width(n: int, p_max: float) -> int:
    """Geometric gaps drawn per row and top-up: the mean candidate count
    n * p_max plus six standard deviations, capped at n."""
    mean = n * p_max
    return min(n, math.ceil(mean + 6 * math.sqrt(mean)) + 4)


def _candidate_sites(rng_: np.random.Generator, p_max: float, n: int,
                     rows: int, width: int) -> np.ndarray:
    """Sites of an independent Bernoulli(p_max) process on 1..n per row, in
    increasing order along the row; entries past site n read n + 1.

    A row whose last site is still short of n gets more gaps appended until
    it passes n; rows are never truncated or redrawn, which would bias the
    law.  Gaps are clipped at n + 1, which moves no site inside 1..n.
    """
    def sites(k, start):
        gaps = np.minimum(rng_.geometric(p_max, size=(k, width)), n + 1)
        return start + np.cumsum(gaps, axis=1)

    pos = sites(rows, 0)
    short = np.flatnonzero(pos[:, -1] < n)
    while short.size:
        more = np.full((rows, width), n + 1, dtype=pos.dtype)
        more[short] = sites(short.size, pos[short, -1:])
        pos = np.concatenate([pos, more], axis=1)
        short = short[more[short, -1] < n]
    return np.minimum(pos, n + 1)


def sample_vacant_run_within(rng_: np.random.Generator, profile: RateProfile,
                             r: int, t: float, n: int, reps: int) -> np.ndarray:
    """Boolean draws of {some length-r vacant run lies inside sites 1..n}
    at time t, vectorized over replications.

    Sites are vacant independently with p_x = exp(-lambda_x t).  Only the
    candidate vacancies are drawn: a Bernoulli(max p_x) process through
    geometric gaps, each candidate kept with probability p_x / max p_x.
    """
    out = np.zeros(reps, dtype=bool)
    p_vac = np.exp(-profile.rates(1, n + 1) * t)
    p_max = float(p_vac.max()) if n >= r else 0.0
    if p_max == 0.0:        # no run fits, or every site is occupied
        return out
    p_keep = np.append(p_vac / p_max, 0.0)     # index n: past the last site
    thin = bool(p_keep[:-1].min() < 1.0)
    width = _gap_block_width(n, p_max)
    block = max(1, _BLOCK_CELLS // width)
    for lo in range(0, reps, block):
        pos = _candidate_sites(rng_, p_max, n, min(block, reps - lo), width)
        vac = pos <= n
        if thin:
            vac &= rng_.random(pos.shape) < p_keep[pos - 1]
        # for r > 1, r vacant candidates on consecutive sites are r - 1
        # consecutive links, each two vacant candidates on adjacent sites
        run = vac[:, :-1] & vac[:, 1:] & (np.diff(pos, axis=1) == 1) if r > 1 else vac
        out[lo:lo + len(pos)] = green.first_vacant_run(run, max(r - 1, 1)) >= 0
    return out


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def validate_prop1(config: ModelConfig, horizon: float, reps: int,
                   master_seed: int, targets=()) -> dict:
    """Pathwise coupling check: tau_x >= tau_green_x for every target and
    the fire reach equals the green reach at every record time.  A lattice
    target x is read at the site ceil(x) a burn meets."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    tau_viol = 0
    record_viol = 0
    records_checked = 0
    taus_checked = 0
    for i in range(reps):
        noise = NoiseField(replication_seed(master_seed, i), config)
        trace = fire.run_fire(noise, time_cap=horizon)
        if config.space == "discrete":
            n_green = lambda t: green.simulate_N_green(noise, t)
            tau_green = lambda x: green.simulate_tau_green(noise, math.ceil(x))
        else:    # the run's own state, whose burns marked the trees they burnt
            n_green, tau_green = trace.state.green, trace.state.first_passage
        for x in targets:
            tau_x = next((ev.time for ev in trace.events if ev.rightmost >= x), None)
            if tau_x is None:
                continue
            tau_g = tau_green(x)
            taus_checked += 1
            if tau_x < tau_g - 1e-12:
                tau_viol += 1
        for sigma, u in trace.records:
            records_checked += 1
            if abs(n_green(sigma) - u) > 1e-9:
                record_viol += 1
        del trace, n_green, tau_green    # a continuous state is freed before the next run
    return {
        "suite": "prop1",
        "reps": reps,
        "taus_checked": taus_checked,
        "tau_violations": tau_viol,
        "records_checked": records_checked,
        "record_mismatches": record_viol,
        "pass": tau_viol == 0 and record_viol == 0,
    }


def validate_thresholds(config: ModelConfig, n: int, epsilon: float, reps: int,
                        master_seed: int) -> dict:
    """Tail probabilities of the green reach around the critical time, with
    their analytic envelopes (exponent c = c1/(2 c2)).

    Passes when both tails lie within their envelopes plus three standard
    errors.  The envelopes are asymptotic in n, so a small n can miss them.
    """
    profile, r = config.profile, config.r
    if profile.kind == "constant":     # rates scaled by lambda scale times by 1/lambda
        T = analytic.homog_threshold(n, r) / profile.values[0]
    else:
        T = analytic.t_star(profile, r, n, 0.5)
    c = profile.c1 / (2 * profile.c2)
    rng_hi = rep_rng(master_seed, 1)
    rng_lo = rep_rng(master_seed, 2)
    # N < n  <=>  a vacant run lies inside sites 1..n
    below_hi = sample_vacant_run_within(rng_hi, profile, r, (1 + epsilon) * T, n, reps)
    # N > n  <=>  no vacant run inside sites 1..n+1
    above_lo = ~sample_vacant_run_within(rng_lo, profile, r, (1 - epsilon) * T, n + 1, reps)
    p_below, se_below = _mean_and_stderr(below_hi)
    p_above, se_above = _mean_and_stderr(above_lo)
    env_below = n ** (-c * epsilon) if profile.kind != "constant" else n ** (-epsilon)
    env_above = float(np.exp(-n ** (c * epsilon)))
    below_ok = bool(p_below <= env_below + 3 * se_below)
    above_ok = bool(p_above <= max(env_above, 0.01) + 3 * se_above)
    return {
        "suite": "thresholds",
        "n": n,
        "epsilon": epsilon,
        "T": T,
        "reps": reps,
        "p_below_at_late": p_below,
        "stderr_below": se_below,
        "envelope_below": env_below,
        "below_ok": below_ok,
        "p_above_at_early": p_above,
        "stderr_above": se_above,
        "envelope_above": env_above,
        "above_ok": above_ok,
        "pass": below_ok and above_ok,
    }


def validate_lemma1(config: ModelConfig, gamma: float, k: int,
                    cycles_total: int, master_seed: int,
                    cycles_per_rep: int = 4) -> dict:
    """Blue/fire renewal invariants at ladder level k.

    Checks, over at least `cycles_total` renewal cycles, that the blue reach
    never exceeds the fire reach and that a non-record blue cycle
    (rho_i <= rho_{i-1}) forces exact agreement between the two.  It runs
    at most `cycles_total` replications, and fails when they check fewer
    cycles than that.
    """
    if cycles_total < 1:
        raise ValueError("need cycles_total >= 1")
    entries = analytic.schedule(config.profile, config.r, gamma, k)
    n_k = entries[k - 1].n_k
    dom_viol = cond_viol = checked = censored = 0
    for i in range(cycles_total):      # a replication may check no cycle
        if checked >= cycles_total:
            break
        noise = NoiseField(replication_seed(master_seed, i), config)
        try:
            recs = fire.run_blue_experiment(noise, n_k, cycles_per_rep, reach_window=8 * n_k)
        except CapExceeded:
            censored += cycles_per_rep
            continue
        for j, rec in enumerate(recs):
            # A censored fire reach still dominates any in-window blue reach;
            # only a doubly-censored cycle is inconclusive.
            if rec.censored_B and rec.censored_F:
                censored += 1
                continue
            checked += 1
            if not rec.censored_F and rec.rho_i > rec.rho_F_i + 1e-9:
                dom_viol += 1
            if j > 0 and not rec.censored_B and not recs[j - 1].censored_B:
                if rec.rho_i <= recs[j - 1].rho_i and (
                        rec.censored_F or rec.rho_F_i != rec.rho_i):
                    cond_viol += 1
    return {
        "suite": "lemma1",
        "n_k": n_k,
        "cycles_checked": checked,
        "censored": censored,
        "domination_violations": dom_viol,
        "conditional_violations": cond_viol,
        "pass": dom_viol == 0 and cond_viol == 0 and checked >= cycles_total,
    }


def validate_oracles() -> dict:
    """Cross-check all independent evaluators of the reach probability p_n
    on a grid of (r, n, t); they must agree to 1e-12 absolutely."""
    tol = 1e-12
    worst = 0.0
    checks = 0
    for r in (1, 2, 3):
        for t in (0.25, 0.5, 1.0, 2.0):
            alpha = math.exp(-t)   # vacancy probability
            profile = RateProfile.constant(1.0)
            for n in range(1, 17):
                ref = analytic.p_n_homog(alpha, r, n)
                vals = [analytic.p_n_dp(profile, r, n, t),
                        analytic.p_n_bruteforce(profile, r, n, t)]
                if r == 2:
                    vals.append(analytic.p_n_closed_r2(alpha, n))
                if r == 1:
                    vals.append(analytic.product_reach_prob(profile, n, t))
                for v in vals:
                    worst = max(worst, abs(v - ref))
                    checks += 1
    return {"suite": "oracles", "checks": checks, "max_abs_error": worst,
            "tol": tol, "pass": bool(worst <= tol)}


def validate_continuous_moments(t_values, reps: int, master_seed: int) -> dict:
    """Monte Carlo mean/variance of the continuous green reach against the
    closed forms, plus the Laplace transform at lambda = 1."""
    rows = []
    ok = True
    for j, t in enumerate(t_values):
        rng_ = rep_rng(master_seed, j)
        sample = green.sample_green_reach_cont(rng_, float(t), reps)
        m_th, v_th = analytic.green_moments_cont(float(t))
        m_hat, se_m = _mean_and_stderr(sample)
        v_hat = float(sample.var(ddof=1))
        mu4 = float(((sample - m_hat) ** 4).mean())
        se_v = float(np.sqrt(max(mu4 - v_hat ** 2, 0.0) / reps))
        lap_th = analytic.green_laplace_cont(1.0, float(t))
        lap_hat, se_l = _mean_and_stderr(np.exp(-sample))
        row_ok = (abs(m_hat - m_th) <= 3 * se_m
                  and abs(v_hat - v_th) <= 3 * se_v
                  and abs(lap_hat - lap_th) <= 3 * se_l)
        ok = ok and row_ok
        rows.append({"t": float(t), "mean": m_hat, "mean_theory": m_th,
                     "stderr_mean": se_m, "var": v_hat, "var_theory": v_th,
                     "stderr_var": se_v, "laplace": lap_hat,
                     "laplace_theory": lap_th, "stderr_laplace": se_l,
                     "pass": row_ok})
    return {"suite": "continuous-moments", "reps": reps, "rows": rows, "pass": ok}


def estimate_alpha_k(config: ModelConfig, gamma: float, k: int, reps: int,
                     master_seed: int) -> EstimatorResult:
    """Frequency of the arrival-gap obstruction event over two consecutive
    renewal cycles at ladder level k."""
    if k < 1:
        raise ValueError("need k >= 1")
    entries = analytic.schedule(config.profile, config.r, gamma, k + 1)
    n_k, n_k1 = entries[k - 1].n_k, entries[k].n_k
    window = max(2 * n_k1 + config.r + 2, 4 * n_k)
    noises = [NoiseField(replication_seed(master_seed, i), config) for i in range(reps)]
    runs = fire.run_blue_experiments(noises, n_k, cycles=3, reach_window=window)
    hits, censored = [], 0
    for noise, recs in zip(noises, runs):
        if isinstance(recs, CapExceeded):
            censored += 1
            continue
        start = recs[0].tau_i                      # absolute time of hit 1
        duration = recs[1].tau_i + recs[2].tau_i
        hits.append(float(fire.detect_gap_event(noise, n_k1, start, duration)))
    mean, stderr = _mean_and_stderr(hits)
    return EstimatorResult(mean=mean, stderr=stderr, reps=len(hits),
                           master_seed=master_seed,
                           quantity_id=f"alpha_k(gamma={gamma},k={k})",
                           censored=censored)


def estimate_growth(config: ModelConfig, gamma: float, k: int, reps: int,
                    master_seed: int) -> dict:
    """Renewal identity check at ladder level k.

    Measures E tau_{n_{k+1}} / E tau_{n_k} against the independent estimate
    E M, where M is the number of fires at n_k up to and including the one
    that first reaches n_{k+1}; E M = 1 + sum_i P(A_i) exactly.  The
    ratio must also stay below e + 0.5.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    entries = analytic.schedule(config.profile, config.r, gamma, k + 1)
    n_k, n_k1 = entries[k - 1].n_k, entries[k].n_k
    tau_k, tau_k1, M = [], [], []
    censored = 0
    noises = [NoiseField(replication_seed(master_seed, i), config) for i in range(reps)]
    for trace in fire.run_fires(noises, [n_k, n_k1], coupled=False):
        if isinstance(trace, CapExceeded) or not trace.complete:
            censored += 1
            continue
        t_k1 = trace.tau[n_k1]
        tau_k.append(trace.tau[n_k])
        tau_k1.append(t_k1)
        M.append(sum(1 for ev in trace.events
                     if ev.rightmost >= n_k and ev.time <= t_k1))
    report = {"suite": "growth", "gamma": gamma, "k": k, "n_k": n_k, "n_k_plus_1": n_k1,
              "reps": len(M), "censored": censored, "ratio_bound": math.e + 0.5}
    if len(M) < 2:    # no covariance: every estimate reads NaN and the check fails
        nan = math.nan
        return {**report, "E_tau_nk": nan, "E_tau_nk1": nan, "ratio": nan,
                "one_plus_sum_PA": nan, "P_A": [], "truncated_at": 1, "identity_gap": nan,
                "identity_sigma": nan, "identity_ok": False, "ratio_ok": False, "pass": False}
    tau_k = np.asarray(tau_k)
    tau_k1 = np.asarray(tau_k1)
    M = np.asarray(M, dtype=float)
    npts = len(M)
    a, b, m = tau_k1.mean(), tau_k.mean(), M.mean()
    ratio = a / b
    # identity gap  E tau_{k+1} - E tau_k * E M  via the delta method with
    # the full covariance of the three sample means
    cov = np.cov(np.vstack([tau_k1, tau_k, M]))
    grad = np.array([1.0, -m, -b])
    gap = a - b * m
    gap_sigma = float(np.sqrt(grad @ cov @ grad / npts))
    # P(A_i) = P(M > i) up to its first empirical zero, at i = max M, as M >= 1:
    # the fire that first reaches n_{k+1} meets n_k
    i = int(M.max())
    p_a = [float((M > j).mean()) for j in range(1, i)]
    identity_ok = bool(abs(gap) <= 3 * gap_sigma)
    ratio_ok = bool(ratio < report["ratio_bound"])
    return {**report, "E_tau_nk": float(b), "E_tau_nk1": float(a), "ratio": float(ratio),
            "one_plus_sum_PA": float(m), "P_A": p_a, "truncated_at": i,
            "identity_gap": float(gap), "identity_sigma": gap_sigma,
            "identity_ok": identity_ok, "ratio_ok": ratio_ok, "pass": identity_ok and ratio_ok}


def scaling_study(config: ModelConfig, x_grid, reps: int, master_seed: int,
                  time_cap: float = fire.DEFAULT_TIME_CAP) -> dict:
    """E tau_x over a grid of targets, with the fitted log-log exponent.

    Replication i at target x runs on a seed derived from (master_seed, x,
    i), so a row depends on neither the rest of the grid nor, through
    shifted seeds, on another study's rows.  A lattice target x enters as
    the site ceil(x) its burn meets, a continuous one as the bits of
    float(x), so distinct fractional targets get distinct seeds.
    """
    rows = []
    min_ratio = float("inf")
    for x in x_grid:
        key = math.ceil(x) if config.space == "discrete" else int(np.float64(x).view(np.uint64))
        row_seed = replication_seed(master_seed, key)
        (taus,) = first_burn_times(config, [replication_seed(row_seed, i) for i in range(reps)],
                                   [x], time_cap=time_cap)
        vals = [tau for tau in taus if tau is not None]
        censored = reps - len(vals)
        mean, stderr = _mean_and_stderr(vals)
        rows.append({
            "x": x,
            "mean_tau": mean,
            "stderr": stderr,
            "reps": len(vals),
            "censored": censored,
        })
        if x > 1 and vals:
            min_ratio = min(min_ratio, min(vals) / math.log(x))
    # fit the distinct points (a repeated x has equal rows) of x > 1 and a finite mean
    fit = list(dict.fromkeys((row["x"], row["mean_tau"]) for row in rows
                             if row["x"] > 1 and not math.isnan(row["mean_tau"])))
    kappa = math.nan
    if len(fit) >= 2:
        xs, means = np.array(fit, dtype=float).T
        kappa = float(np.polyfit(np.log(np.log(xs)), np.log(means), 1)[0])
    return {
        "suite": "scaling",
        "rows": rows,
        "kappa_hat": kappa,
        "min_tau_over_log_x": min_ratio,
    }


def validate_permutation(profile: RateProfile, x: int, permutation, reps: int,
                         master_seed: int) -> dict:
    """Short-range invariance of E tau_x under permutation of the first x
    rates; estimates under original and permuted profiles must agree."""
    perm = list(permutation)
    if reps < 2:
        raise ValueError("need reps >= 2")
    if sorted(perm) != list(range(1, x + 1)):
        raise ValueError("permutation must act on sites 1..x")
    extent = fire._window(ModelConfig(), [x], 0)
    base = profile.rates(0, extent + 1)
    permuted = base.copy()
    permuted[1:x + 1] = base[perm]
    prof_orig = RateProfile.explicit(tuple(base), profile.c1, profile.c2)
    prof_perm = RateProfile.explicit(tuple(permuted), profile.c1, profile.c2)
    config_o = ModelConfig(space="discrete", r=1, profile=prof_orig)
    config_p = ModelConfig(space="discrete", r=1, profile=prof_perm)

    seeds = [replication_seed(master_seed, i) for i in range(reps)]
    (mean_o, se_o), (mean_p, se_p) = (
        _mean_and_stderr([tau for tau in first_burn_times(cfg, seeds, [x])[0] if tau is not None])
        for cfg in (config_o, config_p))
    sigma = math.hypot(se_o, se_p)
    return {
        "suite": "permutation",
        "x": x,
        "mean_original": mean_o,
        "mean_permuted": mean_p,
        "stderr_combined": sigma,
        "pass": abs(mean_o - mean_p) <= 3 * sigma if sigma > 0 else mean_o == mean_p,
    }
