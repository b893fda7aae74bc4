"""Determinism and distributional checks for the counter-based streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from firesim import rng


U64 = st.integers(min_value=0, max_value=2**64 - 1)


@given(U64, U64, U64)
def test_counter_uniform_in_open_interval(seed, stream, counter):
    u = rng.counter_uniform(seed, stream, counter)
    assert 0.0 < u < 1.0


@given(U64, U64, U64)
def test_counter_uniform_deterministic(seed, stream, counter):
    assert rng.counter_uniform(seed, stream, counter) == \
        rng.counter_uniform(seed, stream, counter)


def test_vectorized_matches_scalar():
    counters = np.arange(100)
    vec = rng.counter_uniform(3, 5, counters)
    scal = np.array([rng.counter_uniform(3, 5, int(c)) for c in counters])
    assert np.array_equal(vec, scal)


def test_order_independence():
    a = [rng.counter_uniform(1, 2, c) for c in (9, 4, 0)]
    b = [rng.counter_uniform(1, 2, c) for c in (0, 4, 9)]
    assert a == b[::-1]


def test_uniformity_moments():
    u = rng.counter_uniform(42, rng.site_stream(7), np.arange(200_000))
    # mean 1/2 (sd ~ 0.00065), var 1/12
    assert abs(u.mean() - 0.5) < 3 * 0.2887 / np.sqrt(len(u))
    assert abs(u.var() - 1 / 12) < 0.001


def test_exponential_mean():
    e = rng.counter_exponential(42, rng.site_stream(3), np.arange(200_000))
    assert abs(e.mean() - 1.0) < 3 / np.sqrt(len(e))


def test_stream_independence_correlation():
    n = 100_000
    c = np.arange(n)
    pairs = [
        (rng.site_stream(1), rng.site_stream(2)),
        (rng.site_stream(1), rng.cell_stream(1, 1)),
        (rng.cell_stream(0, 1), rng.cell_stream(1, 0)),
        (rng.site_stream(5), rng.profile_stream(5)),
        (rng.site_stream(5), rng.vacancy_stream(5)),
    ]
    for s1, s2 in pairs:
        u1 = rng.counter_uniform(9, s1, c)
        u2 = rng.counter_uniform(9, s2, c)
        corr = np.corrcoef(u1, u2)[0, 1]
        assert abs(corr) < 3 / np.sqrt(n)


def test_seed_sensitivity():
    c = np.arange(1000)
    u1 = rng.counter_uniform(0, rng.site_stream(0), c)
    u2 = rng.counter_uniform(1, rng.site_stream(0), c)
    assert not np.any(u1 == u2)


def test_replication_seeds_distinct():
    seeds = {rng.replication_seed(123, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_rep_rng_reproducible():
    a = rng.rep_rng(7, 3).random(5)
    b = rng.rep_rng(7, 3).random(5)
    assert np.array_equal(a, b)


def test_stream_salts_disjoint():
    assert rng.site_stream(0) != rng.profile_stream(0)
    assert rng.site_stream(10) != rng.cell_stream(10, 0)
    xs = np.arange(1 << 16)
    vacancy = set(rng.vacancy_stream(xs).tolist())
    assert len(vacancy) == len(xs)
    assert vacancy.isdisjoint(rng.site_stream(xs).tolist())
    assert vacancy.isdisjoint(rng.profile_stream(xs).tolist())


M64 = 2**64


@pytest.mark.filterwarnings("error")
@given(U64, U64)
def test_stream_ids_match_modular_formula(x, y):
    """Each stream id is its defining formula in exact integer arithmetic,
    reduced modulo 2**64, for scalars and arrays alike."""
    A, B, C = int(rng._A), int(rng._B), int(rng._C)
    expect = {
        rng.site_stream: (x + rng.SALT_SITE) * A % M64,
        rng.profile_stream: (x + rng.SALT_PROFILE) * C % M64,
        rng.vacancy_stream: (x + rng.SALT_VACANCY) * A % M64,
    }
    for fn, value in expect.items():
        assert isinstance(fn(x), np.uint64) and int(fn(x)) == value
        assert fn(np.array([x, x], dtype=np.uint64)).tolist() == [value, value]
    cell = (x * B + y * C + rng.SALT_CELL) * A % M64
    assert isinstance(rng.cell_stream(x, y), np.uint64) and int(rng.cell_stream(x, y)) == cell
    assert rng.cell_stream(np.array([x], dtype=np.uint64), y).tolist() == [cell]
