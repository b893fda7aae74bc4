"""Fire engine vs a naive single-event reference simulator, plus renewal
invariants and the gap-event detector."""

import math
import tracemalloc

import numpy as np
import pytest

from firesim import fire, green, rng
from firesim.model import CapExceeded, ModelConfig, NoiseField, RateProfile
from firesim.rng import replication_seed


# ---------------------------------------------------------------------------
# reference implementations (deliberately naive, one event at a time)
# ---------------------------------------------------------------------------

def reference_fire_discrete(noise, cfg, horizon, width):
    """Replay every arrival in [0, horizon) x [0, width) individually."""
    events = []
    for x in range(width):
        for t in noise.arrivals_before(x, horizon):
            events.append((float(t), x))
    events.sort()
    occ = [False] * width
    out = []
    r = cfg.r
    for t, x in events:
        occ[x] = True
        if x != 0:
            continue
        # first vacant run of length r among sites 1, 2, ...
        reach = None
        run = 0
        for s in range(1, width):
            run = run + 1 if not occ[s] else 0
            if run == r:
                reach = (s - r + 1) + r - 2
                break
        assert reach is not None, "reference window too small"
        for s in range(0, reach + 1):
            occ[s] = False
        out.append((t, reach))
    return out


def reference_fire_continuous(noise, cfg, horizon, length):
    pts = noise.points_in(0.0, length, 0.0, horizon)
    order = np.argsort(pts[:, 1])
    alive = []
    out = []
    for p, t in pts[order]:
        alive.append(float(p))
        alive.sort()
        if p > cfg.ignite_distance:
            continue
        cluster = [alive[0]]
        for q in alive[1:]:
            if q - cluster[-1] <= cfg.connect_distance:
                cluster.append(q)
            else:
                break
        assert cluster[-1] <= length - cfg.connect_distance, "window too small"
        out.append((float(t), cluster[-1]))
        alive = alive[len(cluster):]
    return out


# ---------------------------------------------------------------------------
# discrete engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r,lam,horizon",
                         [(1, 1.0, 4.0), (2, 1.0, 2.5), (3, 0.8, 1.8),
                          (1, 1.5, 3.0)])
def test_engine_matches_reference(r, lam, horizon):
    cfg = ModelConfig(space="discrete", r=r, profile=RateProfile.constant(lam))
    for seed in range(10):
        noise = NoiseField(replication_seed(100 + r, seed), cfg)
        ref = reference_fire_discrete(noise, cfg, horizon, 4000)
        trace = fire.run_fire(noise, targets=(), time_cap=horizon)
        got = [(ev.time, ev.rightmost) for ev in trace.events]
        assert len(got) == len(ref)
        for (t1, u1), (t2, u2) in zip(got, ref):
            assert t1 == pytest.approx(t2, abs=1e-12)
            assert u1 == u2


def test_engine_matches_reference_periodic_profile():
    prof = RateProfile.periodic((0.6, 1.4, 1.0), 0.6, 1.4)
    cfg = ModelConfig(space="discrete", r=2, profile=prof)
    for seed in range(8):
        noise = NoiseField(replication_seed(55, seed), cfg)
        ref = reference_fire_discrete(noise, cfg, 2.5, 4000)
        trace = fire.run_fire(noise, targets=(), time_cap=2.5)
        assert [(ev.time, ev.rightmost) for ev in trace.events] == \
            pytest.approx(ref)


def test_tau_consistency_with_events():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    for seed in range(10):
        noise = NoiseField(replication_seed(9, seed), cfg)
        trace = fire.run_fire(noise, targets=[4, 32])
        assert trace.complete
        assert trace.tau[4] <= trace.tau[32]
        for x in (4, 32):
            pre = [ev for ev in trace.events if ev.time < trace.tau[x]]
            assert all(ev.rightmost < x for ev in pre)
        hit = min(ev.time for ev in trace.events if ev.rightmost >= 4)
        assert hit == trace.tau[4]


def test_fire_reach_dominated_by_green():
    cfg = ModelConfig(space="discrete", r=2, profile=RateProfile.constant(1.0))
    for seed in range(20):
        noise = NoiseField(replication_seed(14, seed), cfg)
        trace = fire.run_fire(noise, targets=(), time_cap=4.0)
        for ev in trace.events:
            assert ev.rightmost <= green.simulate_N_green(noise, ev.time)


def test_rightmost_by():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(3, cfg)
    trace = fire.run_fire(noise, targets=(), time_cap=5.0)
    best = 0.0
    for ev in trace.events:
        best = max(best, ev.rightmost)
        assert trace.rightmost_by(ev.time) == best
    assert trace.rightmost_by(0.0) == 0


def test_deterministic_across_window_sizes():
    """A run to [x] and a run to [x, 2000] agree on every event up to tau_x,
    in either lattice state: the wider window of 2000 (4096 sites) changes
    neither the burns before tau_x nor, through how far sites are
    materialised, their floats.  A burn that passes the narrow window (256
    sites) is recorded censored there and passes it in the wide run."""
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    censored = 0
    for coupled in (True, False):
        for seed in range(10):
            noise = NoiseField(replication_seed(21, seed), cfg)
            for x in (8, 96):
                narrow = fire.run_fire(noise, targets=[x], coupled=coupled)
                wide = fire.run_fire(noise, targets=[x, 2000], coupled=coupled)
                n = len(narrow.events)
                assert narrow.tau[x] == wide.tau[x] == wide.events[n - 1].time
                assert narrow.events[:-1] == wide.events[:n - 1]
                last, whole = narrow.events[-1], wide.events[n - 1]
                assert last == whole if not last.censored else whole.rightmost >= 256
                censored += last.censored
    assert censored > 0


LAW_PROFILES = [RateProfile.constant(1.0), RateProfile.periodic((0.6, 1.4, 1.0), 0.6, 1.4),
                RateProfile.iid_uniform(0.5, 1.5, seed=7)]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("profile", LAW_PROFILES, ids=lambda p: p.kind)
def test_memoryless_state_has_the_coupled_law(r, profile):
    """Two-sample z-tests of the two lattice states on tau_128 and on M,
    the number of fires at 16 up to the first that reaches 128, each state
    on its own master seed."""
    cfg = ModelConfig(space="discrete", r=r, profile=profile)
    reps = 400

    def sample(coupled, master_seed):
        tau, M = [], []
        for i in range(reps):
            trace = fire.run_fire(NoiseField(replication_seed(master_seed, i), cfg),
                                  targets=[16, 128], coupled=coupled)
            tau.append(trace.tau[128])
            M.append(sum(ev.rightmost >= 16 and ev.time <= tau[-1] for ev in trace.events))
        return np.array([tau, M], dtype=float)

    a, b = sample(True, 1100 + r), sample(False, 2100 + r)
    z = (a.mean(axis=1) - b.mean(axis=1)) / np.hypot(a.std(axis=1, ddof=1),
                                                     b.std(axis=1, ddof=1)) * np.sqrt(reps)
    assert np.all(np.abs(z) <= 4.0), z


def _outcome(result):
    return ("CapExceeded", str(result)) if isinstance(result, CapExceeded) else result


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "memoryless"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_lockstep_rows_equal_their_runs_alone(monkeypatch, r, coupled):
    """One run_fires call on 24 seeds equals 24 one-row calls.  The cell
    budget is small, so the call splits into blocks of 4 or 8 rows, and in a
    block rows finish, stop at the time cap or raise at different steps."""
    monkeypatch.setattr(fire, "_CELLS", 1 << 10)
    cfg = ModelConfig(space="discrete", r=r,
                      profile=RateProfile.periodic((0.7, 1.3, 1.0), 0.7, 1.3))
    noises = [NoiseField(replication_seed(77 + r, i), cfg) for i in range(24)]
    # time caps at which about half the rows reach 60, raise, or censor
    caps = {1: (8.0, 8.0, 14.0), 2: (3.5, 5.0, 6.0), 3: (2.5, 3.0, 3.5)}[r]
    cases = [({"targets": [5, 60], "time_cap": caps[0]}, "complete", fire.DEFAULT_SITE_CAP),
             ({"time_cap": caps[1]}, "raises", 128),
             ({"targets": [96], "time_cap": caps[2]}, "censored", fire.DEFAULT_SITE_CAP)]
    for kwargs, mixed, site_cap in cases:
        monkeypatch.setattr(fire, "DEFAULT_SITE_CAP", site_cap)
        batch = fire.run_fires(noises, coupled=coupled, **kwargs)
        alone = [fire.run_fires([noise], coupled=coupled, **kwargs)[0]
                 for noise in noises]
        assert list(map(_outcome, batch)) == list(map(_outcome, alone)), kwargs
        traces = [res for res in batch if isinstance(res, fire.FireTrace)]
        flag = {"complete": [t.complete for t in traces],
                "raises": [isinstance(res, CapExceeded) for res in batch],
                "censored": [t.censored for t in traces]}[mixed]
        assert any(flag) and not all(flag), (kwargs, mixed)
        assert len({len(t.events) for t in traces}) > 1


def test_coupled_switch_is_inert_on_the_continuous_model():
    cfg = ModelConfig(space="continuous", intensity=0.4)
    for seed in range(5):
        runs = [fire.run_fire(NoiseField(replication_seed(93, seed), cfg),
                              targets=[6.0], time_cap=16.0, coupled=coupled)
                for coupled in (True, False)]
        assert runs[0] == runs[1]


def test_run_fire_rejects_bad_targets():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    with pytest.raises(ValueError):
        fire.run_fire(NoiseField(0, cfg), targets=[0])


def _advance_peak(kind) -> int:
    """Traced peak of one `_advance` of a `kind` state of 2 rows x 2^18
    sites, periodic rates (0.7, 1.3, 1.0), burnt at row times (3, 3.5):
    about 496k occupied sites.  Tracing that is already on is kept, and
    only the growth past the state and its mask counts."""
    cfg = ModelConfig(r=1, profile=RateProfile.periodic((0.7, 1.3, 1.0), 0.7, 1.3))
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        state = kind([NoiseField(5, cfg), NoiseField(6, cfg)], (1 << 18) + 1)
        state._grow((1 << 18) + 1)
        t = np.array([3.0, 3.5])
        burnt = state.time[:, 1:] <= t[:, None]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        state._advance(burnt, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert np.all(state.time[:, 1:] > t[:, None])
    return peak


def test_advance_of_burnt_sites_is_bounded():
    """The coupled state moves its burnt sites in place, gathering at most
    `model._BLOCK` of them at a time: 27.5 MiB traced, where gathering all
    of them at once took 53.8 MiB.  The memoryless state, which gathers
    all, stays at 28.4 MiB (36.0 MiB if it held its indices to the draw)."""
    peak = _advance_peak(fire._Lattice)
    assert peak < 40 * 2**20, f"coupled: traced peak {peak / 2**20:.1f} MiB"
    peak = _advance_peak(fire._Memoryless)
    assert peak < 28.5 * 2**20, f"memoryless: traced peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# blue experiment
# ---------------------------------------------------------------------------

def test_blue_records_shape_and_invariants():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    for seed in range(15):
        noise = NoiseField(replication_seed(70, seed), cfg)
        recs = fire.run_blue_experiment(noise, 5, 4, reach_window=512)
        assert [rec.i for rec in recs] == [1, 2, 3, 4]
        for j, rec in enumerate(recs):
            assert rec.tau_i > 0
            if not rec.censored_F:
                assert rec.rho_F_i >= 5          # a hit reaches the threshold
            if not rec.censored_B and not rec.censored_F:
                assert rec.rho_i <= rec.rho_F_i
            if (j > 0 and not rec.censored_B and not recs[j - 1].censored_B
                    and rec.rho_i <= recs[j - 1].rho_i):
                assert not rec.censored_F and rec.rho_F_i == rec.rho_i
        # first cycle: blue and fire coincide by construction
        assert recs[0].rho_i == recs[0].rho_F_i


def test_blue_cycle_times_match_fire_hits():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(41, cfg)
    recs = fire.run_blue_experiment(noise, 6, 3, reach_window=512)
    cum = np.cumsum([rec.tau_i for rec in recs])
    trace = fire.run_fire(noise, targets=(), time_cap=cum[-1] + 1e-9)
    hit_times = [ev.time for ev in trace.events if ev.rightmost >= 6][:3]
    assert np.allclose(cum, hit_times)


@pytest.mark.parametrize("r", [1, 2])
def test_restart_row_equals_a_state_started_at_t(r):
    """restart on a one-pair state leaves the fire row 0 alone and gives the
    blue row 1 the cursor and times of a one-row state started all-vacant
    at t, at the same width and after both grow.  Site 0's entry is never
    read."""
    cfg = ModelConfig(space="discrete", r=r,
                      profile=RateProfile.periodic((0.7, 1.3, 1.0), 0.7, 1.3))
    noise = NoiseField(replication_seed(55, r), cfg)
    state = fire._Paired([noise], 1024)
    for _ in range(40):
        t = state.ignite()
        state.burn(t)
    t = t[0].item()
    row0 = [a[0].copy() for a in (*state.cursor, state.time)]
    assert np.any(row0[-1][1:] <= t)      # the restart vacates occupied sites
    state.restart(np.array([0]), np.array([t]))
    assert all(np.array_equal(a[0], b) for a, b in zip((*state.cursor, state.time), row0))
    fresh = fire._Lattice([noise], 1024)
    fresh.t0[0] = t
    fresh.lam, fresh.stream, *fresh.cursor, fresh.time = fresh._vacant(0, state.time.shape[1])
    for width in (state.time.shape[1], 4 * state.time.shape[1]):
        state._grow(width)
        fresh._grow(width)
        for a, b in zip((*state.cursor, state.time), (*fresh.cursor, fresh.time)):
            assert np.array_equal(a[1, 1:], b[0, 1:])


class _Unshared(fire._Paired):
    """The paired state with every row advancing through its own draws."""

    _advance = fire._Lattice._advance


@pytest.mark.parametrize("r", [1, 2])
def test_shared_draws_change_no_float(monkeypatch, r):
    """Three pairs stepped through 200 ignitions and a few restarts hold the
    same cursor and times, by ==, with and without shared draws.  The
    paired state draws fewer exponentials to advance burnt sites, and no
    such advance draws one (seed, stream, counter) twice, as a blue site
    burnt together with its fire twin would."""
    cfg = ModelConfig(space="discrete", r=r,
                      profile=RateProfile.periodic((0.7, 1.3, 1.0), 0.7, 1.3))
    noises = [NoiseField(replication_seed(61 + r, i), cfg) for i in range(3)]
    drawn = []
    exponential = rng.counter_exponential

    def counted(seed, stream, counter):
        args = np.broadcast_arrays(*(np.asarray(a, dtype=np.uint64)
                                     for a in (seed, stream, counter)))
        drawn.append(np.stack(args, axis=-1).reshape(-1, 3))
        return exponential(seed, stream, counter)

    monkeypatch.setattr(rng, "counter_exponential", counted)
    restarts = {50: [0, 2], 120: [1], 170: [0, 1, 2]}

    def run(kind):
        state, draws, repeats = kind(noises, 1024), [0], [0]
        advance = state._advance

        def counted_advance(burnt, t):
            drawn.clear()
            advance(burnt, t)
            if drawn:
                triples = np.concatenate(drawn)
                triples = triples[np.lexsort(triples.T)]
                draws[0] += len(triples)
                repeats[0] += int(np.all(triples[1:] == triples[:-1], axis=1).sum())

        state._advance = counted_advance
        for step in range(200):
            t = state.ignite()
            state.burn(t)
            if step in restarts:
                pairs = np.array(restarts[step])
                state.restart(pairs, t[pairs])
        return state, draws[0], repeats[0]

    (paired, shared_draws, shared_repeats), (alone, own_draws, own_repeats) = \
        run(fire._Paired), run(_Unshared)
    for a, b in zip((paired.t0, *paired.cursor, paired.time),
                    (alone.t0, *alone.cursor, alone.time)):
        assert np.array_equal(a, b)
    assert shared_repeats == 0 < own_repeats
    assert shared_draws < own_draws


def test_blue_rejects_continuous():
    cfg = ModelConfig(space="continuous", r=1)
    with pytest.raises(NotImplementedError):
        fire.run_blue_experiment(NoiseField(0, cfg), 2, 2, reach_window=128)


# ---------------------------------------------------------------------------
# gap events
# ---------------------------------------------------------------------------

def test_gap_event_zero_duration_always_true():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(8, cfg)
    assert fire.detect_gap_event(noise, 50, 1.0, 0.0)


def test_gap_event_long_duration_false():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(8, cfg)
    assert not fire.detect_gap_event(noise, 5, 0.0, 50.0)


def test_gap_event_matches_manual_check():
    cfg = ModelConfig(space="discrete", r=2, profile=RateProfile.constant(1.0))
    for seed in range(20):
        noise = NoiseField(replication_seed(81, seed), cfg)
        start, dur, span = 0.5, 1.0, 12
        quiet = [noise.next_arrivals_after(x, x + 1, start)[0] >= start + dur
                 for x in range(1, span + 1)]
        manual = any(quiet[i] and quiet[i + 1] for i in range(span - 1))
        assert fire.detect_gap_event(noise, span, start, dur) == manual


def test_gap_event_rejects_continuous():
    cfg = ModelConfig(space="continuous")
    with pytest.raises(NotImplementedError):
        fire.detect_gap_event(NoiseField(0, cfg), 6.0, 0.3, 0.8)


# ---------------------------------------------------------------------------
# continuous engine
# ---------------------------------------------------------------------------

def test_continuous_engine_matches_reference():
    # the low-intensity runs go past the engine's first time rows and, for
    # some seeds, past its first block of columns; with distance 4 some
    # burns pass it before the time rows grow
    longest = 0.0
    wide = ModelConfig(space="continuous", intensity=0.1, connect_distance=4.0,
                       ignite_distance=4.0)
    for cfg, horizon, length in [(ModelConfig(space="continuous", r=1), 3.0, 300.0),
                                 (ModelConfig(space="continuous", intensity=0.4), 16.0, 400.0),
                                 (wide, 16.0, 400.0)]:
        for seed in range(15):
            noise = NoiseField(replication_seed(90, seed), cfg)
            ref = reference_fire_continuous(noise, cfg, horizon, length)
            trace = fire.run_fire(noise, targets=(), time_cap=horizon)
            got = [(ev.time, ev.rightmost) for ev in trace.events]
            assert got == pytest.approx(ref)
            longest = max([longest, *(reach for _, reach in got)])
    assert longest > 32.0


def test_continuous_targets_complete():
    cfg = ModelConfig(space="continuous", r=1)
    for seed in range(10):
        noise = NoiseField(replication_seed(91, seed), cfg)
        trace = fire.run_fire(noise, targets=[5.0])
        assert trace.complete
        assert trace.tau[5.0] > 0
        assert any(ev.rightmost >= 5.0 for ev in trace.events)


def test_continuous_terminal_burn_pinned():
    # its last burn chains past 11,000; it covers the target inside the
    # window, so it is recorded censored there instead of chased
    cfg = ModelConfig(space="continuous", r=1)
    noise = NoiseField(replication_seed(91, 8), cfg)
    trace = fire.run_fire(noise, targets=[5.0])
    assert trace.complete
    assert trace.tau[5.0] == 11.451956949627743
    assert trace.events[-1].time == trace.tau[5.0]
    assert trace.events[-1].censored is True and trace.censored
    assert not any(ev.censored for ev in trace.events[:-1])


def test_continuous_state_has_a_tree_budget():
    """A supercritical replication without targets raises CapExceeded once
    its state holds more than green._TREES trees, instead of growing to a
    reach past 200,000 and about 200 MB."""
    cfg = ModelConfig(space="continuous", intensity=2.0, connect_distance=1.5,
                      ignite_distance=0.7)
    with pytest.raises(CapExceeded, match="trees"):
        fire.run_fire(NoiseField(replication_seed(92, 2), cfg), time_cap=5.0)


@pytest.mark.parametrize("cfg,x,seed,tau", [
    (ModelConfig(space="continuous"), 5000.0, 1, 27.335806231012892),
    (ModelConfig(space="continuous", intensity=4.0, connect_distance=0.01,
                 ignite_distance=0.02), 20.0, 0, 612.8732445900054)])
def test_continuous_tree_budget_spares_runs_to_a_target(cfg, x, seed, tau):
    """A run to a target deletes the trees it burns and has no tree budget:
    the run to 5,000 reads 32 time rows of 10,000 columns, the one to 20
    1,024 rows of 64 columns, each past green._TREES trees, and both meet
    x at the tau of a state without the budget."""
    trace = fire.run_fire(NoiseField(replication_seed(5, seed), cfg), targets=[x])
    assert trace.tau == {x: tau} and trace.state is None


LOW_INTENSITY = ModelConfig(space="continuous", intensity=0.4)


def run_low_intensity(seed, **kwargs):
    noise = NoiseField(replication_seed(90, seed), LOW_INTENSITY)
    return fire.run_fire(noise, time_cap=16.0, **kwargs)


def test_continuous_site_cap_raises_past_the_cap(monkeypatch):
    fulls = [run_low_intensity(seed) for seed in range(15)]
    monkeypatch.setattr(fire, "DEFAULT_SITE_CAP", 64)
    raised = 0
    for seed, full in enumerate(fulls):
        if max(ev.rightmost for ev in full.events) <= 64.0 - LOW_INTENSITY.connect_distance:
            assert run_low_intensity(seed).events == full.events
        else:
            raised += 1
            with pytest.raises(CapExceeded):
                run_low_intensity(seed)
    assert raised > 0


def test_continuous_reach_window_censors_inside_window():
    # a run to 32 has a window of 64, and burning [0, reach] has the same
    # effect inside it as the true burn, so the run is a prefix of the
    # unwindowed one where only a censored reach differs, as a lower bound
    window = 64.0
    censored = 0
    for seed in range(15):
        full, cut = run_low_intensity(seed), run_low_intensity(seed, targets=[32.0])
        n = len(cut.events)
        assert [ev.time for ev in cut.events] == [ev.time for ev in full.events[:n]]
        for whole, part in zip(full.events, cut.events):
            if part.censored:
                censored += 1
                assert window - LOW_INTENSITY.connect_distance < part.rightmost <= window
                assert part.rightmost <= whole.rightmost
            else:
                assert part == whole
        assert cut.censored == any(ev.censored for ev in cut.events)
    assert censored > 0


def test_empty_batches_return_no_runs():
    """A batch of no noise fields has no model to read and runs nothing."""
    assert fire.run_fires([], targets=[4]) == []
    assert fire.run_blue_experiments([], 6, 3, reach_window=64) == []


def test_batches_of_several_models_raise():
    """A lattice batch runs every row on one model, so noise fields of two
    models raise instead of running the second under the first's rates."""
    a = ModelConfig(r=1, profile=RateProfile.periodic([0.5, 2.0], 0.5, 2.0))
    b = ModelConfig(r=2, profile=RateProfile.constant(1.0))
    noises = [NoiseField(9, a), NoiseField(1, b)]
    with pytest.raises(ValueError, match="one model"):
        fire.run_fires(noises, targets=[12])
    with pytest.raises(ValueError, match="one model"):
        fire.run_blue_experiments(noises, 5, 2, reach_window=64)
    # equal models built apart are one model
    same = [NoiseField(s, ModelConfig(r=2, profile=RateProfile.constant(1.0))) for s in (0, 1)]
    assert fire.run_fires(same, targets=[12]) == [fire.run_fire(n, targets=[12]) for n in same]
