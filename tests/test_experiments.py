"""Estimators, the minima extractor and the validation suites (small sizes)."""

import collections
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firesim import analytic, experiments, fire, green
from firesim.model import CapExceeded, ModelConfig, NoiseField, RateProfile
from firesim.rng import rep_rng, replication_seed


# ---------------------------------------------------------------------------
# weak local minima
# ---------------------------------------------------------------------------

def test_minima_footnote_example():
    res = experiments.extract_weak_minima(
        (math.inf, 3, 2, 4, 1, 3, 2, 5))
    assert res.nu == 2
    assert res.s == (2, 6)


def test_minima_strictly_decreasing():
    # no interior index satisfies y_j <= y_{j+1} in a strictly decreasing tail
    assert experiments.extract_weak_minima((math.inf, 5, 4, 3, 2, 1)).nu == 0


def test_minima_simple():
    assert experiments.extract_weak_minima((math.inf, 1, 2)) == \
        experiments.MinimaDecomposition(1, (1,))


def test_minima_rejects_bad_start():
    with pytest.raises(ValueError):
        experiments.extract_weak_minima((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        experiments.extract_weak_minima((math.inf,))


seqs = st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=40)


@given(seqs)
@settings(max_examples=300, deadline=None)
def test_minima_invariants(tail):
    y = [math.inf] + tail
    res = experiments.extract_weak_minima(y)
    assert res.nu == len(res.s)
    prev = None
    for j in res.s:
        assert 1 <= j <= len(y) - 2
        assert y[j] <= min(y[j - 1], y[j + 1])
        if prev is not None:
            assert j >= prev + 3
        prev = j
    # greedy maximality: no qualifying index at distance >= 3 past the last
    start = (res.s[-1] + 3) if res.s else 1
    for j in range(start, len(y) - 1):
        assert not (y[j] <= min(y[j - 1], y[j + 1]))


def test_nu_zero_frequency_bounded_by_inverse_factorial():
    """P(nu = 0) for iid continuous y_1..y_i equals P(decreasing) <= 1/i!."""
    rng_ = rep_rng(17, 0)
    for i in (3, 4, 5):
        reps = 20_000
        hits = 0
        draws = rng_.random((reps, i))
        for row in draws:
            if experiments.extract_weak_minima([math.inf] + list(row)).nu == 0:
                hits += 1
        p_hat = hits / reps
        bound = 1 / math.factorial(i)
        se = math.sqrt(max(bound * (1 - bound), 1e-9) / reps)
        assert p_hat <= bound + 3 * se


def test_nu_dominates_binomial():
    """nu on iid sequences of length i+1 is stochastically >= Bin(floor((i+1)/3), 1/3)."""
    from scipy import stats
    rng_ = rep_rng(18, 0)
    i = 11
    reps = 4000
    nus = np.array([
        experiments.extract_weak_minima([math.inf] + list(rng_.random(i))).nu
        for _ in range(reps)])
    n_bin = (i + 1) // 3
    for k in range(n_bin + 1):
        emp_cdf = (nus <= k).mean()
        bin_cdf = stats.binom.cdf(k, n_bin, 1 / 3)
        se = math.sqrt(0.25 / reps)
        assert emp_cdf <= bin_cdf + 3 * se


# ---------------------------------------------------------------------------
# first_burn_times and the mean/stderr summary
# ---------------------------------------------------------------------------

TAU_CFG = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))


def test_mean_and_stderr():
    assert experiments._mean_and_stderr([2.5] * 10) == (2.5, 0.0)
    mean, stderr = experiments._mean_and_stderr([1.0])
    assert mean == 1.0 and math.isnan(stderr)
    assert all(math.isnan(v) for v in experiments._mean_and_stderr([]))


def test_first_burn_times_deterministic():
    seeds = [replication_seed(9, i) for i in range(50)]
    (a,) = experiments.first_burn_times(TAU_CFG, seeds, [4])
    assert [a] == experiments.first_burn_times(TAU_CFG, seeds, [4])
    assert all(tau is not None and tau > 0 for tau in a)


def test_first_burn_times_tau1_exponential():
    # site 1 first burns at the first ignition after its own first arrival,
    # so tau_1 = Exp(1) + Exp(1) by memorylessness and E tau_1 = 2
    (taus,) = experiments.first_burn_times(
        TAU_CFG, [replication_seed(23, i) for i in range(3000)], [1])
    mean, stderr = experiments._mean_and_stderr(taus)
    assert abs(mean - 2.0) < 3 * stderr


def test_first_burn_times_marks_censoring(monkeypatch):
    """None exactly where the run alone stopped at the time cap before
    burning x, or raised CapExceeded (the site cap lowered to 2)."""
    seeds = [replication_seed(0, i) for i in range(30)]
    (taus,) = experiments.first_burn_times(TAU_CFG, seeds, [3], time_cap=3.0)
    alone = [fire.run_fire(NoiseField(seed, TAU_CFG), targets=[3], time_cap=3.0, coupled=False)
             for seed in seeds]
    assert taus == [run.tau[3] if run.complete else None for run in alone]
    assert None in taus and any(tau is not None for tau in taus)
    monkeypatch.setattr(fire, "DEFAULT_SITE_CAP", 2)
    with pytest.raises(CapExceeded):
        fire.run_fire(NoiseField(seeds[0], TAU_CFG), targets=[3], coupled=False)
    assert experiments.first_burn_times(TAU_CFG, seeds, [3]) == [[None] * 30]


@pytest.mark.parametrize("cfg,targets,time_cap", [
    (TAU_CFG, [4, 37.5, 300], 8.0),
    (ModelConfig(space="discrete", r=3,
                 profile=RateProfile.periodic((0.7, 1.3, 1.0), 0.7, 1.3)), [4, 37.5, 300], 3.0),
    (ModelConfig(space="continuous"), [1.0, 2.0, 3.5], 5.0),
], ids=["r1-constant", "r3-periodic", "continuous"])
def test_first_burn_times_of_many_targets_equal_one_target_runs(cfg, targets, time_cap):
    """One run per replication to the largest target gives every target the
    tau of a run to it alone, also where the time cap leaves the largest
    target unmet, and listed out of order."""
    seeds = [replication_seed(31, i) for i in range(20)]
    many = experiments.first_burn_times(cfg, seeds, targets[::-1], time_cap=time_cap)[::-1]
    assert many == [experiments.first_burn_times(cfg, seeds, [x], time_cap=time_cap)[0]
                    for x in targets]
    first, last = many[0], many[-1]
    assert any(a is not None and c is None for a, c in zip(first, last))
    assert any(c is not None for c in last)


# ---------------------------------------------------------------------------
# sparse vacant-run sampler against the exact law
# ---------------------------------------------------------------------------

VACANT_RUN_PROFILES = {
    "constant": RateProfile.constant(1.0),
    "periodic": RateProfile.periodic((0.5, 1.0, 2.0), 0.5, 2.0),
    "explicit": RateProfile.explicit(
        tuple(np.random.default_rng(3).uniform(0.4, 1.6, size=400)), 0.4, 1.6),
}


def assert_hit_law(hits, profile, r, t, n):
    """Hit frequency within 4 sigma of 1 - p_n; exact where p_n is 0 or 1."""
    p = 1.0 - analytic.p_n_dp(profile, r, n, t)
    if p in (0.0, 1.0):
        assert np.all(hits == bool(p)), (r, n, t, p)
        return
    z = (hits.mean() - p) / math.sqrt(p * (1 - p) / len(hits))
    assert abs(z) <= 4, (r, n, t, p, hits.mean(), z)


@pytest.mark.parametrize("kind", sorted(VACANT_RUN_PROFILES))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_sample_vacant_run_within_law(kind, r):
    profile = VACANT_RUN_PROFILES[kind]
    for n in (r, 7, 40, 300):
        for t in (0.0, 0.2, 1.0, 3.0, 2000.0):   # t = 2000: every p_x underflows to 0
            hits = experiments.sample_vacant_run_within(
                rep_rng(9, 100 * r + n), profile, r, t, n, 10_000)
            assert hits.shape == (10_000,) and hits.dtype == bool
            assert_hit_law(hits, profile, r, t, n)
    assert experiments.sample_vacant_run_within(rep_rng(9, 0), profile, r, 0.0, r, 5).all()
    assert not experiments.sample_vacant_run_within(rep_rng(9, 0), profile, r, 2000.0, 40, 5).any()
    assert not experiments.sample_vacant_run_within(rep_rng(9, 0), profile, r, 0.0, r - 1, 5).any()


class _CountingRng:
    """Forwards to a Generator, counting `geometric` calls."""

    def __init__(self, gen):
        self.gen, self.geometric_calls = gen, 0

    def geometric(self, *args, **kwargs):
        self.geometric_calls += 1
        return self.gen.geometric(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.gen.random(*args, **kwargs)


def test_sample_vacant_run_within_top_up(monkeypatch):
    """Rows whose candidates stop short of n are extended, not truncated:
    with one gap per block every row needs top-ups, and the law holds."""
    monkeypatch.setattr(experiments, "_gap_block_width", lambda n, p_max: 1)
    profile = VACANT_RUN_PROFILES["periodic"]
    for r in (1, 2, 3):
        for n, t in ((7, 0.3), (7, 1.0), (40, 1.0), (40, 0.0)):
            gen = _CountingRng(rep_rng(10, 10 * r + n))
            hits = experiments.sample_vacant_run_within(gen, profile, r, t, n, 10_000)
            assert gen.geometric_calls > 1
            assert_hit_law(hits, profile, r, t, n)


def test_sample_vacant_run_within_deterministic():
    profile = VACANT_RUN_PROFILES["explicit"]
    for r, t, n in ((1, 3.0, 300), (2, 1.0, 40), (3, 0.2, 300)):
        a = experiments.sample_vacant_run_within(rep_rng(11, r), profile, r, t, n, 3000)
        b = experiments.sample_vacant_run_within(rep_rng(11, r), profile, r, t, n, 3000)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# validators at small sizes
# ---------------------------------------------------------------------------

CFG1 = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))


def test_validate_prop1_small():
    rep = experiments.validate_prop1(CFG1, 5.0, 40, 3, targets=(4, 16))
    assert rep["pass"]
    assert rep["tau_violations"] == 0
    assert rep["record_mismatches"] == 0
    assert rep["records_checked"] > 0


def test_validate_prop1_continuous_ignite_beyond_connect():
    # the fire and both green readers must chain from the rightmost tree
    # within the ignite distance, not from the leftmost or first-arrived one
    cfg = ModelConfig(space="continuous", connect_distance=0.5, ignite_distance=2.0)
    rep = experiments.validate_prop1(cfg, 4.0, 30, 5, targets=(2.0, 6.0))
    assert rep["taus_checked"] > 0 and rep["records_checked"] > 0
    assert rep["tau_violations"] == 0
    assert rep["record_mismatches"] == 0
    assert rep["pass"]


def test_validate_prop1_reads_a_fractional_lattice_target_at_its_site(monkeypatch):
    """A lattice burn meets 4.5 at site 5, so tau_green is read there and
    the report is that of target 5."""
    cfg = ModelConfig(space="discrete", r=2, profile=RateProfile.constant(1.0))
    sites = []
    tau_green = green.simulate_tau_green
    monkeypatch.setattr(green, "simulate_tau_green",
                        lambda noise, x: sites.append(x) or tau_green(noise, x))
    rep = experiments.validate_prop1(cfg, 4.0, 30, 12, targets=(4.5,))
    assert rep["taus_checked"] > 0 and set(sites) == {5}
    assert rep == experiments.validate_prop1(cfg, 4.0, 30, 12, targets=(5,))


def test_validate_prop1_continuous_reads_each_cell_once(monkeypatch):
    """One state per replication serves the fire and the green readings,
    so no unit cell of a replication's noise is drawn twice."""
    reads = collections.Counter()
    cells = NoiseField.cells

    def spy(noise, i0, i1, j0, j1):
        reads.update(itertools.product([noise.master_seed], range(i0, i1), range(j0, j1)))
        return cells(noise, i0, i1, j0, j1)

    monkeypatch.setattr(NoiseField, "cells", spy)
    cfg = ModelConfig(space="continuous", connect_distance=0.5, ignite_distance=2.0)
    rep = experiments.validate_prop1(cfg, 5.0, 12, 1, targets=(3.0, 10.0))
    assert rep["pass"] and rep["taus_checked"] > 0 and rep["records_checked"] > 0
    assert reads and max(reads.values()) == 1


def test_validate_prop1_frees_each_state_before_the_next_run(monkeypatch):
    """A replication's continuous state is freed before the next
    replication runs: no state of an earlier run is alive when a run
    starts.  Each state holds a cycle through its ignition generator, so
    only a collection frees it."""
    states, alive = [], []
    run_fire = fire.run_fire

    def spy(noise, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in states))
        trace = run_fire(noise, **kwargs)
        states.append(weakref.ref(trace.state))
        return trace

    monkeypatch.setattr(fire, "run_fire", spy)
    experiments.validate_prop1(ModelConfig(space="continuous"), 5.0, 4, 1, targets=(3.0,))
    assert alive == [0, 0, 0, 0]


def test_validate_prop1_rejects_bad_horizon():
    with pytest.raises(ValueError):
        experiments.validate_prop1(CFG1, 0.0, 5, 0)


def test_validate_thresholds_small():
    """At every constant rate lambda the critical time is log(n) / (r lambda):
    scaling all rates by lambda divides every arrival time by lambda."""
    for lam in (1.0, 0.5, 2.0):
        cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(lam))
        rep = experiments.validate_thresholds(cfg, 1000, 0.2, 2000, 5)
        assert rep["below_ok"] and rep["above_ok"], lam
        assert rep["T"] == pytest.approx(math.log(1000) / lam)
        assert 0 <= rep["p_below_at_late"] <= 1


def test_validate_lemma1_small():
    rep = experiments.validate_lemma1(CFG1, 1.5, 2, 60, 6)
    assert rep["pass"]
    assert rep["cycles_checked"] >= 60


@pytest.mark.parametrize("call", [
    lambda: experiments.estimate_growth(CFG1, 1.5, 0, 4, 8),
    lambda: experiments.estimate_alpha_k(CFG1, 1.5, 0, 4, 8),
    lambda: experiments.validate_lemma1(CFG1, 1.5, 2, 0, 6),
], ids=["growth-k-zero", "alpha-k-zero", "lemma1-no-cycles"])
def test_ladder_estimators_reject_level_zero_and_no_cycles(call):
    """k = 0 would read the last ladder entry as n_k, and zero cycles would
    pass lemma1 without checking anything."""
    with pytest.raises(ValueError):
        call()


def test_estimate_alpha_k_duration_zero_is_one():
    from firesim import fire
    from firesim.model import NoiseField
    noise = NoiseField(0, CFG1)
    assert fire.detect_gap_event(noise, 10, 1.0, 0.0)


def test_estimate_growth_small():
    rep = experiments.estimate_growth(CFG1, 1.5, 2, 400, 8)
    assert rep["identity_ok"]
    assert rep["ratio"] > 1.0
    assert rep["censored"] == 0


@pytest.mark.parametrize("rate,reps,seed,completed", [(1e-5, 3, 7, 0), (1e-4, 2, 2, 1)])
def test_estimate_growth_with_under_two_completed_replications_fails_promptly(
        rate, reps, seed, completed):
    """At these slow rates replications stop at the time cap before n_k,
    and fewer than two completed ones give no covariance: the report reads
    NaN and fails, without a warning (pyproject.toml makes RuntimeWarnings
    errors).  With none, the P(A_i) loop used never to end."""
    cfg = ModelConfig(r=1, profile=RateProfile.constant(rate))
    rep = experiments.estimate_growth(cfg, 1.5, 1, reps, seed)
    assert (rep["reps"], rep["censored"], rep["P_A"]) == (completed, reps - completed, [])
    for key in ("E_tau_nk", "E_tau_nk1", "ratio", "one_plus_sum_PA", "identity_gap",
                "identity_sigma"):
        assert math.isnan(rep[key]), key
    assert not (rep["identity_ok"] or rep["ratio_ok"] or rep["pass"])


def test_scaling_study_small():
    rep = experiments.scaling_study(CFG1, [8, 32, 128], 60, 10)
    assert len(rep["rows"]) == 3
    means = [row["mean_tau"] for row in rep["rows"]]
    assert means == sorted(means)
    assert rep["min_tau_over_log_x"] > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scaling_study_fully_censored_row():
    # by time 10 at least 45 of the first 10^6 sites are expected vacant, so no
    # burn reaches 10^6
    rep = experiments.scaling_study(CFG1, [4, 16, 10**6], 3, 5, time_cap=10.0)
    last = rep["rows"][-1]
    assert (last["reps"], last["censored"]) == (0, 3)
    assert math.isnan(last["mean_tau"]) and math.isnan(last["stderr"])
    assert all(row["reps"] == 3 for row in rep["rows"][:2])
    # the fit skips the empty row; each row is seeded by its own x
    two = experiments.scaling_study(CFG1, [4, 16], 3, 5, time_cap=10.0)
    assert rep["kappa_hat"] == two["kappa_hat"] and math.isfinite(two["kappa_hat"])
    assert rep["min_tau_over_log_x"] == two["min_tau_over_log_x"]
    one = experiments.scaling_study(CFG1, [16, 10**6], 3, 5, time_cap=10.0)
    assert math.isnan(one["kappa_hat"])


def test_scaling_study_seeds_are_not_shared_across_studies(monkeypatch):
    # with seeds master_seed + x these two studies ran the same replications
    seen = []
    run_fires = fire.run_fires

    def recording(noises, *args, **kwargs):
        seen[-1].update(noise.master_seed for noise in noises)
        return run_fires(noises, *args, **kwargs)

    monkeypatch.setattr(fire, "run_fires", recording)
    for master_seed, x in ((1301, 32), (1317, 16)):
        seen.append(set())
        experiments.scaling_study(CFG1, [x], 5, master_seed)
    assert len(seen[0]) == len(seen[1]) == 5
    assert seen[0].isdisjoint(seen[1])


def test_scaling_study_fractional_targets_get_own_seeds(monkeypatch):
    # seeded by int(x), the continuous targets 2.5 and 2.7 shared every seed
    seen = {}
    run_fires = fire.run_fires

    def recording(noises, targets, **kwargs):
        seen.setdefault(targets[0], set()).update(noise.master_seed for noise in noises)
        return run_fires(noises, targets, **kwargs)

    monkeypatch.setattr(fire, "run_fires", recording)
    cfg = ModelConfig(space="continuous")
    experiments.scaling_study(cfg, [2.5, 2.7], 5, 7, time_cap=50.0)
    assert len(seen[2.5]) == len(seen[2.7]) == 5
    assert seen[2.5].isdisjoint(seen[2.7])


def test_validate_permutation_identity_exact():
    rep = experiments.validate_permutation(CFG1.profile, 4, [1, 2, 3, 4], 50, 4)
    assert rep["mean_original"] == rep["mean_permuted"]
    assert rep["pass"]


def test_validate_permutation_swap():
    prof = RateProfile.explicit(
        tuple([1.0, 0.5, 1.5] + [1.0] * 600), 0.5, 1.5)
    rep = experiments.validate_permutation(prof, 2, [2, 1], 4000, 13)
    assert rep["pass"]


def test_validate_permutation_rejects_bad_permutation():
    with pytest.raises(ValueError):
        experiments.validate_permutation(CFG1.profile, 3, [1, 2], 10, 0)


def test_validate_oracles():
    rep = experiments.validate_oracles()
    assert rep["pass"]
    assert rep["max_abs_error"] < 1e-12


def test_validate_continuous_moments_small():
    rep = experiments.validate_continuous_moments((1.0,), 20_000, 15)
    assert rep["pass"]


def test_continuous_moments_memory_is_bounded():
    """At t = 3 and criterion 10's 10^5 replications the sampler draws about
    1.9 M gaps; in one array, the gaps and their replication indices alone
    would take about 29 MiB.  Drawn in chunks of `green._GAP_BUDGET`, the
    traced peak stays under 16 MiB.  Tracing that is already on is kept,
    and only the growth past what it holds at the start counts."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        experiments.validate_continuous_moments((3.0,), 10**5, 1001)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
