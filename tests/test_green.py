"""Green-process reach: exhaustive rule checks, couplings and distributions."""

import bisect
import itertools
import math

import numpy as np
import pytest

from firesim import analytic, green
from firesim.model import ModelConfig, NoiseField, RateProfile
from firesim.rng import rep_rng, replication_seed


def naive_reach(occupied, r):
    """Chain definition: grow the burnable chain greedily from the origin;
    everything within r-1 of the chain end (plus the end itself) is
    reachable."""
    occ = list(occupied)            # occ[i] = site i+1
    m = 0
    while True:
        window = [s for s in range(m + 1, m + r + 1)
                  if s <= len(occ) and occ[s - 1]]
        if not window:
            break
        m = max(window)
    return m + r - 1


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_reach_matches_chain_definition_exhaustively(r):
    for n in range(0, 12):
        for bits in itertools.product([False, True], repeat=n):
            occ = np.array(bits, dtype=bool)
            assert green.reach_discrete(occ, r) == naive_reach(occ, r), (r, bits)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_reach_event_identity_exhaustively(r):
    """N >= n iff no vacant run of length r lies inside sites 1..n."""
    length = 10
    for bits in itertools.product([False, True], repeat=length):
        occ = np.array(bits, dtype=bool)
        reach = green.reach_discrete(occ, r)
        for n in range(1, length - r + 1):
            vac = ~occ[:n]
            no_run = green.first_vacant_run(vac, r) < 0
            assert (reach >= n) == no_run, (r, n, bits)


def test_first_vacant_run_examples():
    assert green.first_vacant_run(np.array([False, True, True]), 2) == 1
    assert green.first_vacant_run(np.array([False, True, False]), 2) == -1
    assert green.first_vacant_run(np.array([True]), 1) == 0


def test_empty_configuration_reach():
    for r in (1, 2, 3):
        assert green.reach_discrete(np.zeros(6, dtype=bool), r) == r - 1


def test_simulate_matches_reach_rule_on_shared_noise():
    cfg = ModelConfig(space="discrete", r=2,
                      profile=RateProfile.periodic((0.8, 1.2), 0.8, 1.2))
    for seed in range(30):
        noise = NoiseField(replication_seed(3, seed), cfg)
        for t in (0.3, 1.0, 2.0):
            occ = noise.next_arrivals_after(1, 4097, 0.0) <= t
            assert green.simulate_N_green(noise, cfg, t) == \
                green.reach_discrete(occ, 2)


def test_reach_monotone_in_time():
    cfg = ModelConfig(space="discrete", r=3, profile=RateProfile.constant(1.0))
    for seed in range(20):
        noise = NoiseField(replication_seed(8, seed), cfg)
        reaches = [green.simulate_N_green(noise, cfg, t)
                   for t in (0.2, 0.5, 1.0, 1.5, 2.0)]
        assert reaches == sorted(reaches)


def test_tau_green_is_first_passage():
    cfg = ModelConfig(space="discrete", r=2, profile=RateProfile.constant(1.0))
    for seed in range(30):
        noise = NoiseField(replication_seed(12, seed), cfg)
        for x in (2, 5, 9):
            tau = green.simulate_tau_green(noise, cfg, x)
            assert green.simulate_N_green(noise, cfg, tau) >= x
            assert green.simulate_N_green(noise, cfg, tau * (1 - 1e-9)) < x


def test_tau_green_trivial_below_range():
    cfg = ModelConfig(space="discrete", r=3, profile=RateProfile.constant(1.0))
    noise = NoiseField(1, cfg)
    assert green.simulate_tau_green(noise, cfg, 1) == 0.0
    assert green.simulate_tau_green(noise, cfg, 2) == 0.0
    assert green.simulate_tau_green(noise, cfg, 3) > 0.0


def test_product_formula_monte_carlo():
    """r=1: P(N >= n) is the product of per-site occupation probabilities."""
    base = (1.0, 0.6, 1.4, 0.9, 1.1)
    prof = RateProfile.explicit(tuple(np.tile(base, 512)), 0.6, 1.4)
    cfg = ModelConfig(space="discrete", r=1, profile=prof)
    t, n, reps = 1.5, 4, 4000
    hits = np.empty(reps, dtype=bool)
    for i in range(reps):
        noise = NoiseField(replication_seed(77, i), cfg)
        hits[i] = green.simulate_N_green(noise, cfg, t) >= n
    p_hat = hits.mean()
    p = analytic.product_reach_prob(prof, n, t)
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(p_hat - p) < 3.5 * se


def test_fast_sampler_matches_analytic_tail():
    prof = RateProfile.constant(1.0)
    rng_ = rep_rng(5, 1)
    t, reps = math.log(2), 20_000
    vals = np.array([green.sample_green_reach(rng_, prof, 1, t, 10**6)
                     for i in range(reps)])
    p_hat = (vals >= 3).mean()
    assert abs(p_hat - 0.125) < 3.5 * math.sqrt(0.125 * 0.875 / reps)


# ---------------------------------------------------------------------------
# continuous model
# ---------------------------------------------------------------------------

def naive_reach_cont(positions, connect, ignite):
    pos = sorted(positions)
    if not pos or pos[0] > ignite:
        return 0.0
    reach = pos[0]
    for a, b in zip(pos, pos[1:]):
        if b - a > connect:
            break
        reach = b
    return reach


def test_continuous_reach_matches_naive():
    # at intensity 0.3 and t >= 12 most clusters pass the first block of
    # columns, while the naive window of 400 still holds them
    longest = 0.0
    for cfg, times in [(ModelConfig(space="continuous", r=1), (0.5, 1.5, 3.0)),
                       (ModelConfig(space="continuous", intensity=0.3), (12.0, 16.0))]:
        for seed in range(40):
            noise = NoiseField(replication_seed(31, seed), cfg)
            for t in times:
                pts = noise.points_in(0.0, 400.0, 0.0, t)
                expect = naive_reach_cont(pts[:, 0], cfg.connect_distance,
                                          cfg.ignite_distance)
                assert green.simulate_N_green_cont(noise, cfg, t) == \
                    pytest.approx(expect)
                longest = max(longest, expect)
    assert 32.0 < longest < 390.0


def cluster_reach_cont(positions, connect, ignite):
    """Rightmost tree connected to the origin: the origin reaches every tree
    within the ignite distance, a tree every tree within the connect
    distance (a search over the whole cluster, no chain shortcut)."""
    pos = sorted(positions)
    reached = {i for i, p in enumerate(pos) if p <= ignite}
    frontier = list(reached)
    while frontier:
        i = frontier.pop()
        lo = bisect.bisect_left(pos, pos[i] - connect)
        hi = bisect.bisect_right(pos, pos[i] + connect)
        for j in set(range(lo, hi)) - reached:
            reached.add(j)
            frontier.append(j)
    return max((pos[i] for i in reached), default=0.0)


@pytest.mark.parametrize("connect,ignite", [(0.5, 2.0), (1.5, 0.7), (1.0, 1.0)])
def test_continuous_reach_matches_cluster_definition(connect, ignite):
    cfg = ModelConfig(space="continuous", connect_distance=connect, ignite_distance=ignite)
    for seed in range(25):
        noise = NoiseField(replication_seed(33, seed), cfg)
        for t in (0.5, 1.0, 2.0):
            pts = noise.points_in(0.0, 120.0, 0.0, t)
            expect = cluster_reach_cont(pts[:, 0], connect, ignite)
            assert expect < 120.0 - connect
            assert green.simulate_N_green_cont(noise, cfg, t) == expect


def test_continuous_tau_is_first_passage():
    for cfg, seeds in [(ModelConfig(space="continuous", r=1), 20),
                       (ModelConfig(space="continuous", connect_distance=0.5,
                                    ignite_distance=2.0), 30)]:
        for seed in range(seeds):
            noise = NoiseField(replication_seed(32, seed), cfg)
            x = 2.5
            tau = green.simulate_tau_green_cont(noise, cfg, x)
            assert green.simulate_N_green_cont(noise, cfg, tau) >= x
            assert green.simulate_N_green_cont(noise, cfg, tau * (1 - 1e-9)) < x


def test_continuous_sampler_moments_t1():
    rng_ = rep_rng(6, 0)
    s = green.sample_green_reach_cont(rng_, 1.0, 50_000)
    m, v = analytic.green_moments_cont(1.0)
    assert abs(s.mean() - m) < 3 * s.std(ddof=1) / math.sqrt(len(s))


def test_continuous_sampler_agrees_with_field_simulation():
    """The fast sampler and the noise-field simulator draw the same law."""
    cfg = ModelConfig(space="continuous", r=1)
    reps, t = 3000, 1.0
    sim = np.array([green.simulate_N_green_cont(
        NoiseField(replication_seed(41, i), cfg), cfg, t) for i in range(reps)])
    fast = green.sample_green_reach_cont(rep_rng(42, 0), t, reps)
    se = math.hypot(sim.std(ddof=1) / math.sqrt(reps),
                    fast.std(ddof=1) / math.sqrt(reps))
    assert abs(sim.mean() - fast.mean()) < 3.5 * se
    assert abs((sim == 0).mean() - (fast == 0).mean()) < 0.04


def _reach_cont_loop_reference(rng_, t, size, budget, connect=1.0):
    """The per-replication chunk planner that `sample_green_reach_cont` used
    before its chunks came from a cumulative sum."""
    p_stop = np.exp(-t * connect)
    m = rng_.geometric(p_stop, size=size) - 1
    out = np.empty(size, dtype=float)
    lo = 0
    while lo < size:
        hi = lo + 1
        total = int(m[lo])
        while hi < size and total + m[hi] <= budget:
            total += int(m[hi])
            hi += 1
        u = rng_.random(total)
        w = -np.log1p(-u * (1.0 - p_stop)) / t
        seg = np.repeat(np.arange(hi - lo), m[lo:hi])
        out[lo:hi] = np.bincount(seg, weights=w, minlength=hi - lo)
        lo = hi
    return out


@pytest.mark.parametrize("budget", [None, 0, 1, 7, 40])
def test_continuous_sampler_chunks_match_loop(monkeypatch, budget):
    """Chunk boundaries from the cumulative gap count are the greedy loop's,
    so the draws are bit-identical, also when one replication alone passes
    the budget."""
    if budget is not None:
        monkeypatch.setattr(green, "_GAP_BUDGET", budget)
    for seed, t, size in ((1, 0.5, 1), (2, 1.0, 500), (3, 3.0, 200), (4, 0.05, 300)):
        fast = green.sample_green_reach_cont(rep_rng(seed, 0), t, size)
        ref = _reach_cont_loop_reference(rep_rng(seed, 0), t, size, green._GAP_BUDGET)
        assert np.array_equal(fast, ref)
