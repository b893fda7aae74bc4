"""Fire engine vs a naive single-event reference simulator, plus renewal
invariants and the gap-event detector."""

import math

import numpy as np
import pytest

from firesim import fire, green
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
        trace = fire.run_fire(noise, cfg, targets=(), time_cap=horizon)
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
        trace = fire.run_fire(noise, cfg, targets=(), time_cap=2.5)
        assert [(ev.time, ev.rightmost) for ev in trace.events] == \
            pytest.approx(ref)


def test_tau_consistency_with_events():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    for seed in range(10):
        noise = NoiseField(replication_seed(9, seed), cfg)
        trace = fire.run_fire(noise, cfg, targets=[4, 32])
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
        trace = fire.run_fire(noise, cfg, targets=(), time_cap=4.0)
        for ev in trace.events:
            assert ev.rightmost <= green.simulate_N_green(noise, cfg, ev.time)


def test_rightmost_by():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(3, cfg)
    trace = fire.run_fire(noise, cfg, targets=(), time_cap=5.0)
    best = 0.0
    for ev in trace.events:
        best = max(best, ev.rightmost)
        assert trace.rightmost_by(ev.time) == best
    assert trace.rightmost_by(0.0) == 0


def test_deterministic_across_window_sizes():
    """Events inside the window do not depend on how wide it is, nor, in
    either lattice state, on how far sites are materialised."""
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(21, cfg)
    for coupled in (True, False):
        a = fire.run_fire(noise, cfg, targets=[8], coupled=coupled)
        b = fire.run_fire(noise, cfg, targets=[8], reach_window=4096, coupled=coupled)
        ta = [(ev.time, ev.rightmost) for ev in a.events if not ev.censored]
        tb = [(ev.time, ev.rightmost) for ev in b.events if not ev.censored]
        n = min(len(ta), len(tb))
        assert ta[:n] == tb[:n]
        assert a.tau[8] == b.tau[8]
        # burns past a 256-site window leave the sites beyond it unread
        # there, and read in the wider run
        narrow, wide = (fire.run_fire(noise, cfg, time_cap=30.0, reach_window=w,
                                      coupled=coupled) for w in (256, 4096))
        assert [ev.time for ev in narrow.events] == [ev.time for ev in wide.events]
        assert narrow.censored
        for part, whole in zip(narrow.events, wide.events):
            assert part == whole if not part.censored else whole.rightmost >= 256


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
            trace = fire.run_fire(NoiseField(replication_seed(master_seed, i), cfg), cfg,
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
    cases = [({"targets": [5, 60], "time_cap": caps[0]}, "complete"),
             ({"time_cap": caps[1], "site_cap": 128}, "raises"),
             ({"time_cap": caps[2], "reach_window": 256}, "censored")]
    for kwargs, mixed in cases:
        batch = fire.run_fires(noises, cfg, coupled=coupled, **kwargs)
        alone = [fire.run_fires([noise], cfg, coupled=coupled, **kwargs)[0]
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
        runs = [fire.run_fire(NoiseField(replication_seed(93, seed), cfg), cfg,
                              targets=[6.0], time_cap=16.0, coupled=coupled)
                for coupled in (True, False)]
        assert runs[0] == runs[1]


def test_run_fire_rejects_bad_targets():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    with pytest.raises(ValueError):
        fire.run_fire(NoiseField(0, cfg), cfg, targets=[0])


# ---------------------------------------------------------------------------
# blue experiment
# ---------------------------------------------------------------------------

def test_blue_records_shape_and_invariants():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    for seed in range(15):
        noise = NoiseField(replication_seed(70, seed), cfg)
        recs = fire.run_blue_experiment(noise, cfg, 5, 4, reach_window=512)
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
    recs = fire.run_blue_experiment(noise, cfg, 6, 3, reach_window=512)
    cum = np.cumsum([rec.tau_i for rec in recs])
    trace = fire.run_fire(noise, cfg, targets=(), time_cap=cum[-1] + 1e-9,
                          reach_window=512)
    hit_times = [ev.time for ev in trace.events if ev.rightmost >= 6][:3]
    assert np.allclose(cum, hit_times)


def test_blue_rejects_continuous():
    cfg = ModelConfig(space="continuous", r=1)
    with pytest.raises(NotImplementedError):
        fire.run_blue_experiment(NoiseField(0, cfg), cfg, 2, 2)


# ---------------------------------------------------------------------------
# gap events
# ---------------------------------------------------------------------------

def test_gap_event_zero_duration_always_true():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(8, cfg)
    assert fire.detect_gap_event(noise, cfg, 50, 1.0, 0.0)


def test_gap_event_long_duration_false():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(8, cfg)
    assert not fire.detect_gap_event(noise, cfg, 5, 0.0, 50.0)


def test_gap_event_matches_manual_check():
    cfg = ModelConfig(space="discrete", r=2, profile=RateProfile.constant(1.0))
    for seed in range(20):
        noise = NoiseField(replication_seed(81, seed), cfg)
        start, dur, span = 0.5, 1.0, 12
        quiet = [noise.next_arrivals_after(x, x + 1, start)[0] >= start + dur
                 for x in range(1, span + 1)]
        manual = any(quiet[i] and quiet[i + 1] for i in range(span - 1))
        assert fire.detect_gap_event(noise, cfg, span, start, dur) == manual


def test_gap_event_continuous_manual():
    cfg = ModelConfig(space="continuous", r=1)
    for seed in range(20):
        noise = NoiseField(replication_seed(82, seed), cfg)
        start, dur, span = 0.3, 0.8, 6.0
        pts = noise.points_in(0.0, span, start, start + dur)
        xs = sorted(pts[:, 0])
        edges = [0.0] + xs + [span]
        manual = max(b - a for a, b in zip(edges, edges[1:])) >= cfg.connect_distance
        assert fire.detect_gap_event(noise, cfg, span, start, dur) == manual


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
            trace = fire.run_fire(noise, cfg, targets=(), time_cap=horizon)
            got = [(ev.time, ev.rightmost) for ev in trace.events]
            assert got == pytest.approx(ref)
            longest = max([longest, *(reach for _, reach in got)])
    assert longest > 32.0


def test_continuous_targets_complete():
    cfg = ModelConfig(space="continuous", r=1)
    for seed in range(10):
        noise = NoiseField(replication_seed(91, seed), cfg)
        trace = fire.run_fire(noise, cfg, targets=[5.0])
        assert trace.complete
        assert trace.tau[5.0] > 0
        assert any(ev.rightmost >= 5.0 for ev in trace.events)


def test_continuous_terminal_burn_pinned():
    # its last burn chains past 11,000; it covers the target inside the
    # window, so it is recorded censored there instead of chased
    cfg = ModelConfig(space="continuous", r=1)
    noise = NoiseField(replication_seed(91, 8), cfg)
    trace = fire.run_fire(noise, cfg, targets=[5.0])
    assert trace.complete
    assert trace.tau[5.0] == 11.451956949627743
    assert trace.events[-1].time == trace.tau[5.0]
    assert trace.events[-1].censored is True and trace.censored
    assert not any(ev.censored for ev in trace.events[:-1])


LOW_INTENSITY = ModelConfig(space="continuous", intensity=0.4)


def run_low_intensity(seed, **caps):
    noise = NoiseField(replication_seed(90, seed), LOW_INTENSITY)
    return fire.run_fire(noise, LOW_INTENSITY, time_cap=16.0, **caps)


def test_continuous_site_cap_raises_past_the_cap():
    raised = 0
    for seed in range(15):
        full = run_low_intensity(seed)
        if max(ev.rightmost for ev in full.events) <= 64.0 - LOW_INTENSITY.connect_distance:
            assert run_low_intensity(seed, site_cap=64).events == full.events
        else:
            raised += 1
            with pytest.raises(CapExceeded):
                run_low_intensity(seed, site_cap=64)
    assert raised > 0


def test_continuous_reach_window_censors_inside_window():
    # burning [0, reach] has the same effect inside the window as the true
    # burn, so only the censored reaches differ, and they are lower bounds
    window = 64.0
    censored = 0
    for seed in range(15):
        full, cut = run_low_intensity(seed), run_low_intensity(seed, reach_window=window)
        assert [ev.time for ev in cut.events] == [ev.time for ev in full.events]
        for whole, part in zip(full.events, cut.events):
            if part.censored:
                censored += 1
                assert window - LOW_INTENSITY.connect_distance < part.rightmost <= window
                assert part.rightmost <= whole.rightmost
            else:
                assert part == whole
        assert cut.censored == any(ev.censored for ev in cut.events)
    assert censored > 0
