"""Rate profiles and the shared noise field."""

import numpy as np
import pytest

from firesim import rng
from firesim.model import ModelConfig, NoiseField, RateProfile


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_constant_profile():
    prof = RateProfile.constant(2.0)
    assert prof.rate_at(0) == 2.0
    assert np.array_equal(prof.rates(1, 5), np.full(4, 2.0))
    assert prof.c1 == prof.c2 == 2.0


def test_explicit_profile_values():
    prof = RateProfile.explicit((1.0, 0.5, 1.5), 0.5, 1.5)
    assert prof.rate_at(1) == 0.5
    assert np.array_equal(prof.rates(0, 3), np.array([1.0, 0.5, 1.5]))


def test_explicit_out_of_range_rejected():
    with pytest.raises(ValueError):
        RateProfile.explicit((1.0, 2.0), 0.5, 1.5)


def test_nonpositive_c1_rejected():
    with pytest.raises(ValueError):
        RateProfile.constant(0.0)
    with pytest.raises(ValueError):
        RateProfile.explicit((0.5,), 0.0, 1.0)


def test_periodic_profile_wraps():
    prof = RateProfile.periodic((0.7, 1.3), 0.7, 1.3)
    assert prof.rate_at(0) == prof.rate_at(2) == 0.7
    assert prof.rate_at(1) == prof.rate_at(7) == 1.3


def test_iid_uniform_profile_deterministic_and_bounded():
    prof = RateProfile.iid_uniform(0.5, 1.5, seed=4)
    vals = prof.rates(0, 1000)
    assert np.all((vals >= 0.5) & (vals <= 1.5))
    assert np.array_equal(vals, prof.rates(0, 1000))
    # different profile seed, different rates
    assert not np.array_equal(vals, RateProfile.iid_uniform(0.5, 1.5, 5).rates(0, 1000))


def test_iid_uniform_prefix_stability():
    prof = RateProfile.iid_uniform(0.5, 1.5, seed=4)
    assert np.array_equal(prof.rates(0, 10), prof.rates(0, 1000)[:10])


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(space="discrete", r=0)
    with pytest.raises(ValueError):
        ModelConfig(space="nowhere", r=1)
    cfg = ModelConfig(space="discrete", r=2)
    assert cfg.profile.kind == "constant"


# ---------------------------------------------------------------------------
# discrete noise field
# ---------------------------------------------------------------------------

def make_noise(seed=11, lam=1.0, r=1):
    cfg = ModelConfig(space="discrete", r=r, profile=RateProfile.constant(lam))
    return NoiseField(seed, cfg), cfg


def test_arrivals_sorted_and_stable():
    noise, _ = make_noise()
    a1 = noise.arrivals_before(3, 10.0)
    a2 = noise.arrivals_before(3, 10.0)
    assert np.array_equal(a1, a2)
    assert np.all(np.diff(a1) > 0)
    assert np.all(a1 <= 10.0)
    # extending the horizon keeps the prefix
    a3 = noise.arrivals_before(3, 20.0)
    assert np.array_equal(a3[: len(a1)], a1)


def test_poisson_counts_mean():
    noise, _ = make_noise(seed=1, lam=1.0)
    counts = [len(noise.arrivals_before(x, 5.0)) for x in range(1, 2001)]
    mean = np.mean(counts)
    assert abs(mean - 5.0) < 3 * np.sqrt(5.0 / 2000)


def test_rate_scaling_duality():
    """Arrivals at rate lam are unit-rate arrivals divided by lam, site-wise."""
    n1, _ = make_noise(seed=9, lam=1.0)
    n2, _ = make_noise(seed=9, lam=2.0)
    a1 = n1.arrivals_before(4, 6.0)
    a2 = n2.arrivals_before(4, 3.0)
    assert np.allclose(a1 / 2.0, a2)


def test_next_arrival_after():
    noise, _ = make_noise()
    t0 = noise.next_arrivals_after(1, 2, 0.0)[0]
    arr = noise.arrivals_before(1, t0 + 1.0)
    assert t0 == arr[0]
    t1 = noise.next_arrivals_after(1, 2, t0)[0]
    assert t1 > t0


def test_first_arrivals_vector_matches_scalar():
    noise, _ = make_noise(seed=2)
    vec = noise.next_arrivals_after(1, 50, 0.0)
    for horizon in (10.0, 40.0):
        scal = np.array([noise.arrivals_before(x, horizon)[0] for x in range(1, 50)])
        assert np.array_equal(vec, scal), horizon


def scalar_next_arrival(noise, x, t):
    """First arrival after t, read from arrivals_before at growing horizons."""
    horizon = t + 1.0
    while True:
        arr = noise.arrivals_before(x, horizon)
        if len(arr) and arr[-1] > t:
            return arr[arr > t][0]
        horizon += 1.0


def test_next_arrivals_after_vector_matches_scalar():
    """Exact equality: both sides read the same sequential partial sums."""
    for t in (2.5, 40.0):
        for seed in range(20):
            noise, _ = make_noise(seed=seed)
            vec = noise.next_arrivals_after(1, 64, t)
            scal = np.array([scalar_next_arrival(noise, x, t) for x in range(1, 64)])
            assert np.array_equal(vec, scal), (t, seed)


def test_arrivals_are_sequential_partial_sums():
    """Readers return the plain loop s += e_k over a site's counter stream,
    divided by its rate, however they split their reads into blocks."""
    prof = RateProfile.periodic((0.7, 1.3), 0.7, 1.3)
    noise = NoiseField(5, ModelConfig(space="discrete", r=1, profile=prof))
    for x in (0, 1, 6):
        s, ref = 0.0, []
        for k in range(150):
            s += rng.counter_exponential(5, rng.site_stream(x), k)
            ref.append(s / prof.rate_at(x))
        assert list(noise.arrivals_before(x, 80.0)) == [a for a in ref if a <= 80.0]
        for t in (0.0, 3.0, 40.0):
            assert noise.next_arrivals_after(x, x + 1, t)[0] == next(a for a in ref if a > t)


def test_exponential_first_arrival_distribution():
    cfg = ModelConfig(space="discrete", r=1, profile=RateProfile.constant(1.0))
    noise = NoiseField(77, cfg)
    firsts = noise.next_arrivals_after(1, 20_001, 0.0)
    assert abs(firsts.mean() - 1.0) < 3 / np.sqrt(len(firsts))


# ---------------------------------------------------------------------------
# continuous noise field
# ---------------------------------------------------------------------------

def test_points_in_stable_and_bounded():
    cfg = ModelConfig(space="continuous", r=1)
    noise = NoiseField(5, cfg)
    pts = noise.points_in(0.0, 10.0, 0.0, 4.0)
    assert np.array_equal(pts, noise.points_in(0.0, 10.0, 0.0, 4.0))
    assert np.all((pts[:, 0] >= 0) & (pts[:, 0] < 10.0))
    assert np.all((pts[:, 1] >= 0) & (pts[:, 1] < 4.0))


def test_points_in_restriction_consistency():
    cfg = ModelConfig(space="continuous", r=1)
    noise = NoiseField(6, cfg)
    big = noise.points_in(0.0, 8.0, 0.0, 8.0)
    small = noise.points_in(2.0, 5.0, 1.0, 3.0)
    mask = ((big[:, 0] >= 2.0) & (big[:, 0] < 5.0)
            & (big[:, 1] >= 1.0) & (big[:, 1] < 3.0))
    sub = big[mask]
    assert np.array_equal(np.sort(sub, axis=0), np.sort(small, axis=0))


def test_points_in_poisson_intensity():
    cfg = ModelConfig(space="continuous", r=1, intensity=1.0)
    counts = [len(NoiseField(s, cfg).points_in(0.0, 20.0, 0.0, 5.0))
              for s in range(200)]
    mean = np.mean(counts)
    assert abs(mean - 100.0) < 3 * np.sqrt(100.0 / 200)


def reference_cell(seed, i, j, mean):
    """Points of cell (i, j) drawn one scalar counter at a time: a Poisson
    count by sequential inversion of counter 0, then point m at position
    i + U(counter 1 + m) and time j + U(counter 1 + n + m)."""
    stream = rng.cell_stream(i, j)
    u = rng.counter_uniform(seed, stream, 0)
    p = np.exp(-mean)
    acc = p
    n = 0
    while u > acc:
        n += 1
        p *= mean / n
        acc += p
        if n > 1000:
            break
    pts = np.empty((n, 2))
    for m in range(n):
        pts[m, 0] = i + rng.counter_uniform(seed, stream, 1 + m)
        pts[m, 1] = j + rng.counter_uniform(seed, stream, 1 + n + m)
    return pts


def reference_points_in(seed, mean, a, b, s, t):
    cells = [reference_cell(seed, i, j, mean)
             for i in range(int(np.floor(a)), int(np.floor(b)) + 1)
             for j in range(int(np.floor(s)), int(np.floor(t)) + 1)]
    pts = np.concatenate([np.empty((0, 2)), *cells])
    keep = (pts[:, 0] >= a) & (pts[:, 0] <= b) & (pts[:, 1] >= s) & (pts[:, 1] <= t)
    pts = pts[keep]
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


@pytest.mark.parametrize("intensity", [0.3, 1.0, 2.5, 7.0])
def test_points_in_matches_per_cell_reference(intensity):
    cfg = ModelConfig(space="continuous", r=1, intensity=intensity)
    # the later rectangles overlap cells the earlier ones cached
    rects = [(0.0, 5.0, 0.0, 3.0), (2.5, 9.25, 1.5, 4.0), (0.0, 12.0, 0.0, 6.0),
             (3.0, 3.0, 0.0, 2.0), (7.75, 8.5, 5.5, 5.75), (0.0, 16.0, 2.0, 7.5)]
    for seed in (0, 3, rng.replication_seed(17, 2)):
        noise = NoiseField(seed, cfg)
        for a, b, s, t in rects:
            got = noise.points_in(a, b, s, t)
            assert np.array_equal(got, reference_points_in(seed, intensity, a, b, s, t))
        assert noise._cells
        for (i, j), pts in noise._cells.items():
            assert np.array_equal(pts, reference_cell(seed, i, j, intensity))
