"""Fire engine vs a naive single-event reference simulator, plus renewal
invariants and the gap-event detector."""

import math

import numpy as np
import pytest

from firesim import fire, green
from firesim.model import ModelConfig, NoiseField, RateProfile
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
    """Events inside the window do not depend on how wide it is."""
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(21, cfg)
    a = fire.run_fire(noise, cfg, targets=[8])
    b = fire.run_fire(noise, cfg, targets=[8], reach_window=4096)
    ta = [(ev.time, ev.rightmost) for ev in a.events if not ev.censored]
    tb = [(ev.time, ev.rightmost) for ev in b.events if not ev.censored]
    n = min(len(ta), len(tb))
    assert ta[:n] == pytest.approx(tb[:n])
    assert a.tau[8] == pytest.approx(b.tau[8])


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
    cfg = ModelConfig(space="continuous", r=1)
    for seed in range(15):
        noise = NoiseField(replication_seed(90, seed), cfg)
        ref = reference_fire_continuous(noise, cfg, 3.0, 300.0)
        trace = fire.run_fire(noise, cfg, targets=(), time_cap=3.0)
        got = [(ev.time, ev.rightmost) for ev in trace.events]
        assert got == pytest.approx(ref)


def test_continuous_targets_complete():
    cfg = ModelConfig(space="continuous", r=1)
    for seed in range(10):
        noise = NoiseField(replication_seed(91, seed), cfg)
        trace = fire.run_fire(noise, cfg, targets=[5.0])
        assert trace.complete
        assert trace.tau[5.0] > 0
        assert any(ev.rightmost >= 5.0 for ev in trace.events)
