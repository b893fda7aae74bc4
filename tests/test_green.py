"""Green-process reach: exhaustive rule checks, couplings and distributions."""

import bisect
import itertools
import math

import numpy as np
import pytest

from firesim import analytic, fire, green
from firesim.model import CapExceeded, ModelConfig, NoiseField, RateProfile
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
    """N >= n iff no vacant run of length r lies inside sites 1..n, also
    for masks narrower than r, where no run fits.  The scan of all
    patterns' ~occ[:n] as the rows of one 2-D mask, as the lattice engine
    runs it, gives every row its 1-D index."""
    length = 10
    patterns = np.array(list(itertools.product([False, True], repeat=length)))
    reaches = [green.reach_discrete(occ, r) for occ in patterns]
    for n in range(length - r + 1):
        vac = ~patterns[:, :n]
        rows = green.first_vacant_run(vac, r)
        for occ, reach, row_vac, row in zip(patterns, reaches, vac, rows.tolist()):
            j0 = green.first_vacant_run(row_vac, r)
            assert (reach >= n) == (j0 < 0), (r, n, occ)
            assert row == j0, (r, n, occ)


def test_first_vacant_run_examples():
    assert green.first_vacant_run(np.array([False, True, True]), 2) == 1
    assert green.first_vacant_run(np.array([False, True, False]), 2) == -1
    assert green.first_vacant_run(np.array([True]), 1) == 0
    rows = np.array([[False, True, True], [False, True, False], [True, True, True]])
    assert green.first_vacant_run(rows, 2).tolist() == [1, -1, 0]


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
            assert green.simulate_N_green(noise, t) == \
                green.reach_discrete(occ, 2)


@pytest.mark.parametrize("r,times", [(2, (2.0, 3.5)), (3, (1.5, 2.5))], ids=["r2", "r3"])
def test_simulate_matches_reach_rule_across_blocks(r, times):
    """The doubling-block reader carries the last r - 1 sites of a block
    into the next, so reaches past the first blocks (256, 768, ...) agree
    with the rule applied to one long snapshot."""
    cfg = ModelConfig(space="discrete", r=r,
                      profile=RateProfile.periodic((0.8, 1.2), 0.8, 1.2))
    reaches = []
    for seed in range(10):
        noise = NoiseField(replication_seed(5, seed), cfg)
        first = noise.next_arrivals_after(1, 2 ** 16 + 1, 0.0)
        for t in times:
            reaches.append(green.simulate_N_green(noise, t))
            assert reaches[-1] == green.reach_discrete(first <= t, r)
    assert max(reaches) > 768


def test_reach_monotone_in_time():
    cfg = ModelConfig(space="discrete", r=3, profile=RateProfile.constant(1.0))
    for seed in range(20):
        noise = NoiseField(replication_seed(8, seed), cfg)
        reaches = [green.simulate_N_green(noise, t)
                   for t in (0.2, 0.5, 1.0, 1.5, 2.0)]
        assert reaches == sorted(reaches)


def test_tau_green_is_first_passage():
    cfg = ModelConfig(space="discrete", r=2, profile=RateProfile.constant(1.0))
    for seed in range(30):
        noise = NoiseField(replication_seed(12, seed), cfg)
        for x in (2, 5, 9):
            tau = green.simulate_tau_green(noise, x)
            assert green.simulate_N_green(noise, tau) >= x
            assert green.simulate_N_green(noise, tau * (1 - 1e-9)) < x


def test_tau_green_trivial_below_range():
    cfg = ModelConfig(space="discrete", r=3, profile=RateProfile.constant(1.0))
    noise = NoiseField(1, cfg)
    assert green.simulate_tau_green(noise, 1) == 0.0
    assert green.simulate_tau_green(noise, 2) == 0.0
    assert green.simulate_tau_green(noise, 3) > 0.0


def test_product_formula_monte_carlo():
    """r=1: P(N >= n) is the product of per-site occupation probabilities."""
    base = (1.0, 0.6, 1.4, 0.9, 1.1)
    prof = RateProfile.explicit(tuple(np.tile(base, 512)), 0.6, 1.4)
    cfg = ModelConfig(space="discrete", r=1, profile=prof)
    t, n, reps = 1.5, 4, 4000
    hits = np.empty(reps, dtype=bool)
    for i in range(reps):
        noise = NoiseField(replication_seed(77, i), cfg)
        hits[i] = green.simulate_N_green(noise, t) >= n
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


def test_fast_sampler_pinned_draws():
    """Values recorded from the per-sampler block loop that the shared
    reader replaced, on one Generator seed; reaches pass several blocks."""
    prof = RateProfile.periodic((0.5, 1.0, 2.0), 0.5, 2.0)
    pinned = {(2, 4.0): [621, 570, 294, 2544, 3195, 819, 1476, 1422],
              (3, 2.0): [909, 3136, 730, 1781, 1147, 3269, 4297, 265]}
    for (r, t), want in pinned.items():
        rng_ = np.random.default_rng(2024)
        assert [green.sample_green_reach(rng_, prof, r, t, 10**6) for _ in want] == want


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
                assert green.simulate_N_green_cont(noise, t) == \
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
            assert green.simulate_N_green_cont(noise, t) == expect


def test_continuous_tau_is_first_passage():
    for cfg, seeds in [(ModelConfig(space="continuous", r=1), 20),
                       (ModelConfig(space="continuous", connect_distance=0.5,
                                    ignite_distance=2.0), 30)]:
        for seed in range(seeds):
            noise = NoiseField(replication_seed(32, seed), cfg)
            x = 2.5
            tau = green.simulate_tau_green_cont(noise, x)
            assert green.simulate_N_green_cont(noise, tau) >= x
            assert green.simulate_N_green_cont(noise, tau * (1 - 1e-9)) < x


@pytest.mark.parametrize("horizon", [3.0, 5.0])
@pytest.mark.parametrize("connect,ignite", [(1.0, 1.0), (0.5, 2.0), (1.5, 0.7)])
def test_continuous_first_passage_on_a_shared_state(connect, ignite, horizon):
    """tau_green(x) from a state that has already answered N_green, and
    N_green and tau_green from the state a fire run without targets leaves
    (`FireTrace.state`), equal them from a fresh state, and tau_green equals the naive first passage
    over the trees standing at each tree time; it is inf where x is not
    reached by the horizon.  The naive reach reads [0, 40], which holds
    every chain that passes x <= 31.7 up to its first tree at or past x.
    15.6 and 31.7 lie just under the ends of the first two blocks of
    columns a state reads, where a chain may arrive past the block before
    it passes x (seed 24 of (1.5, 0.7) at horizon 5 and x = 31.7); 30 lies
    past the first.  Some burnt states must hold a burnt tree that the
    green process reads and the fire does not."""
    cfg = ModelConfig(space="continuous", connect_distance=connect, ignite_distance=ignite)
    xs = (0.5, 3.0, 10.0, 15.6, 30.0, 31.7)
    seen, burnt_read = set(), False

    def fresh():
        return green._Continuum(noise, green.DEFAULT_SITE_CAP, horizon)

    for seed in range(30):
        noise = NoiseField(replication_seed(34, seed), cfg)
        shared, burnt = fresh(), fire.run_fire(noise, time_cap=horizon).state
        for t in (0.5, 1.5, horizon):
            shared.green(t)
        for t in (0.5, 1.5, horizon):
            assert burnt.green(t) == fresh().green(t)
        burnt_read |= burnt.reach(horizon)[0] < burnt.green(horizon)
        pts = noise.points_in(0.0, 40.0, 0.0, horizon)
        for x in xs:
            naive = next((s for s in np.sort(pts[:, 1]) if cluster_reach_cont(
                pts[pts[:, 1] <= s, 0], connect, ignite) >= x), math.inf)
            tau = shared.first_passage(x)
            assert tau == burnt.first_passage(x) == fresh().first_passage(x) == naive
            if tau == math.inf:
                assert green.simulate_tau_green_cont(noise, x) > horizon
            seen.add(tau == math.inf)
    assert seen == {True, False}
    assert burnt_read


def test_continuous_first_passage_raises_past_the_cap():
    """A chain short of x that may pass the cap raises CapExceeded rather
    than reading as a green process that never reaches x (seed 2's chain
    passes 7 of the cap 8 by time 5)."""
    cfg = ModelConfig(space="continuous", r=1)
    state = green._Continuum(NoiseField(replication_seed(34, 2), cfg), 8.0, 5.0)
    with pytest.raises(CapExceeded):
        state.first_passage(31.7)


def test_continuous_sampler_moments_t1():
    rng_ = rep_rng(6, 0)
    s = green.sample_green_reach_cont(rng_, 1.0, 50_000)
    m, v = analytic.green_moments_cont(1.0)
    assert abs(s.mean() - m) < 3 * s.std(ddof=1) / math.sqrt(len(s))


def test_continuous_sampler_agrees_with_field_simulation():
    """The fast sampler and the noise-field simulator draw the same law."""
    cfg = ModelConfig(space="continuous", r=1)
    reps, t = 3000, 1.0
    sim = np.array([green.simulate_N_green_cont(NoiseField(replication_seed(41, i), cfg), t)
                    for i in range(reps)])
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


@pytest.mark.parametrize("budget", [None, 0, 1, 3, 7, 19, 40])
def test_continuous_sampler_chunks_match_loop(monkeypatch, budget):
    """Pieces of the gap stream, with a replication's sum carried from one
    piece into the next, give the floats of the greedy per-replication
    chunks, also when one replication alone passes the budget, for no
    replications and for replications with no gaps."""
    if budget is not None:
        monkeypatch.setattr(green, "_GAP_BUDGET", budget)
    for seed, t, size in ((1, 0.5, 1), (2, 1.0, 500), (3, 3.0, 200), (4, 0.05, 300),
                          (5, 1.0, 0), (6, 1e-9, 50)):
        fast = green.sample_green_reach_cont(rep_rng(seed, 0), t, size)
        ref = _reach_cont_loop_reference(rep_rng(seed, 0), t, size, green._GAP_BUDGET)
        assert np.array_equal(fast, ref)


def test_continuous_sampler_draws_within_budget(monkeypatch):
    """A replication with more gaps than the budget (about e^8 at t = 8) is
    drawn in pieces of at most the budget, each filled into a slice of one
    buffer, with the floats of one draw."""
    want = green.sample_green_reach_cont(rep_rng(8, 0), 8.0, 4)
    monkeypatch.setattr(green, "_GAP_BUDGET", 500)
    sizes, fills = [], []

    class Spy:
        def __init__(self, gen):
            self.gen = gen

        def geometric(self, p, size):
            return self.gen.geometric(p, size=size)

        def random(self, n=None, out=None):
            fills.append(out)
            sizes.append(n if out is None else len(out))
            return self.gen.random(n, out=out)

    got = green.sample_green_reach_cont(Spy(rep_rng(8, 0)), 8.0, 4)
    assert max(sizes) <= 500 < sum(sizes)
    assert all(isinstance(f, np.ndarray) and f.base is fills[0].base is not None
               for f in fills)
    assert np.array_equal(got, want)
