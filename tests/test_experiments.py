"""Estimators, the minima extractor and the validation suites (small sizes)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firesim import analytic, experiments, fire
from firesim.model import CapExceeded, ModelConfig, RateProfile
from firesim.rng import rep_rng


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
# mc_estimate
# ---------------------------------------------------------------------------

def test_mc_estimate_constant_sampler():
    res = experiments.mc_estimate(lambda seed: 2.5, 10, 1, "const")
    assert res.mean == 2.5
    assert res.stderr == 0.0
    assert res.censored == 0


def test_mc_estimate_deterministic():
    def sampler(seed):
        return rep_rng(seed, 0).random()
    a = experiments.mc_estimate(sampler, 50, 9, "u")
    b = experiments.mc_estimate(sampler, 50, 9, "u")
    assert a == b


def test_mc_estimate_tau1_exponential():
    from firesim import fire
    from firesim.model import NoiseField
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))

    def sampler(seed):
        return fire.run_fire(NoiseField(seed, cfg), cfg, targets=[1]).tau[1]

    # site 1 first burns at the first ignition after its own first arrival,
    # so tau_1 = Exp(1) + Exp(1) by memorylessness and E tau_1 = 2
    res = experiments.mc_estimate(sampler, 3000, 23, "tau_1")
    assert abs(res.mean - 2.0) < 3 * res.stderr


def test_mc_estimate_counts_censoring():
    calls = {"n": 0}

    def sampler(seed):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise CapExceeded("cap")
        return 1.0

    res = experiments.mc_estimate(sampler, 9, 0, "c")
    assert res.censored == 3
    assert res.reps == 6
    assert res.mean == 1.0


def test_mc_estimate_rejects_tiny_reps():
    with pytest.raises(ValueError):
        experiments.mc_estimate(lambda s: 0.0, 1, 0)


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


def test_validate_prop1_rejects_bad_horizon():
    with pytest.raises(ValueError):
        experiments.validate_prop1(CFG1, 0.0, 5, 0)


def test_validate_thresholds_small():
    rep = experiments.validate_thresholds(CFG1, 1000, 0.2, 2000, 5)
    assert rep["below_ok"] and rep["above_ok"]
    assert 0 <= rep["p_below_at_late"] <= 1


def test_validate_lemma1_small():
    rep = experiments.validate_lemma1(CFG1, 1.5, 2, 60, 6)
    assert rep["pass"]
    assert rep["cycles_checked"] >= 60


def test_estimate_alpha_k_duration_zero_is_one():
    from firesim import fire
    from firesim.model import NoiseField
    noise = NoiseField(0, CFG1)
    assert fire.detect_gap_event(noise, CFG1, 10, 1.0, 0.0)


def test_estimate_growth_small():
    rep = experiments.estimate_growth(CFG1, 1.5, 2, 400, 8)
    assert rep["identity_ok"]
    assert rep["ratio"] > 1.0
    assert rep["censored"] == 0


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

    def recording(noises, config, targets, **kwargs):
        seen.setdefault(targets[0], set()).update(noise.master_seed for noise in noises)
        return run_fires(noises, config, targets, **kwargs)

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
