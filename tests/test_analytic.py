"""Closed forms, oracles and the time ladder."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firesim import analytic
from firesim.model import RateProfile

HOMOG = RateProfile.constant(1.0)


# ---------------------------------------------------------------------------
# f_n / t_star / schedule
# ---------------------------------------------------------------------------

def test_f_n_at_zero():
    assert analytic.f_n(HOMOG, 1, 7, 0.0) == pytest.approx(7)
    assert analytic.f_n(HOMOG, 3, 7, 0.0) == pytest.approx(5)


def test_f_n_homogeneous_closed_form():
    for n, r, t in [(10, 1, 0.7), (10, 2, 0.7), (12, 3, 1.3)]:
        assert analytic.f_n(HOMOG, r, n, t) == \
            pytest.approx((n - r + 1) * math.exp(-r * t))


def test_f_nj_partitions_f_n():
    prof = RateProfile.periodic((0.6, 1.0, 1.4), 0.6, 1.4)
    for r in (2, 3):
        for n in (9, 14):
            total = sum(analytic.f_nj(prof, r, n, j, 0.8) for j in range(r))
            assert total == pytest.approx(analytic.f_n(prof, r, n, 0.8))


def test_sandwich_bounds_order():
    for t in (0.2, 1.0, 3.0):
        lo, hi = analytic.sandwich_bounds(HOMOG, 2, 30, t)
        assert 0 <= lo <= hi <= 30


def test_t_star_inverts_f_n():
    prof = RateProfile.periodic((0.7, 1.3), 0.7, 1.3)
    for r, n, a in [(1, 50, 0.5), (2, 40, 0.3), (3, 33, 0.7)]:
        T = analytic.t_star(prof, r, n, a)
        assert analytic.f_n(prof, r, n, T) == pytest.approx(a, abs=1e-10)


def test_t_star_homogeneous_identity():
    """e^{r T} = (n - r + 1) / alpha for constant unit rates."""
    for r, n in [(1, 100), (2, 51), (3, 34)]:
        T = analytic.t_star(HOMOG, r, n, 0.5)
        assert math.exp(r * T) == pytest.approx(2 * (n - r + 1), rel=1e-9)


def test_schedule_example():
    entries = analytic.schedule(HOMOG, 1, 1.5, 5)
    by_k = {e.k: e for e in entries}
    assert by_k[3].n_k == 15
    assert by_k[3].T_k == pytest.approx(math.log(30), abs=1e-9)
    assert by_k[3].gamma_k == pytest.approx(1.5 ** 3)


def test_schedule_ladder_ordering():
    prof = RateProfile.periodic((0.8, 1.2), 0.8, 1.2)
    for gamma in (1.3, 1.5, 1.7):
        entries = analytic.schedule(prof, 2, gamma, 3)
        assert [e.k for e in entries] == [1, 2, 3]
        for e in entries:
            assert e.T_k >= e.gamma_k - 1e-9
            assert analytic.f_n(prof, 2, e.n_k, e.gamma_k) >= 0.5
            if e.n_k > 2:
                assert analytic.f_n(prof, 2, e.n_k - 1, e.gamma_k) < 0.5


def test_schedule_rejects_bad_gamma():
    for gamma in (0.9, 1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            analytic.schedule(HOMOG, 1, gamma, 3)


def test_schedule_overflow():
    with pytest.raises(OverflowError):
        analytic.schedule(HOMOG, 1, 1.9, 25)


def test_schedule_overflow_carries_built_levels():
    with pytest.raises(OverflowError) as info:
        analytic.schedule(HOMOG, 1, 1.9, 25)
    built = info.value.entries
    assert 0 < len(built) < 25
    assert built == analytic.schedule(HOMOG, 1, 1.9, len(built))


# ---------------------------------------------------------------------------
# the Brent root finder behind t_star and char_root
# ---------------------------------------------------------------------------

def _explicit_profiles(count, seed=0):
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(count):
        c1 = rng.uniform(0.1, 1.0)
        c2 = c1 * rng.uniform(1.0, 4.0)
        profiles.append(RateProfile.explicit(tuple(rng.uniform(c1, c2, 5001)), c1, c2))
    return profiles


def test_brentq_matches_scipy_bit_for_bit(monkeypatch):
    """Every root t_star and char_root find equals scipy's brentq on the same
    function, bracket and tolerances, float for float."""
    from scipy.optimize import brentq
    port = analytic._brentq
    pairs = []

    def both(f, xa, xb, xtol, rtol, maxiter):
        ours = port(f, xa, xb, xtol, rtol, maxiter)
        pairs.append((ours, brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)))
        return ours

    monkeypatch.setattr(analytic, "_brentq", both)
    profiles = [HOMOG, RateProfile.constant(0.37),
                RateProfile.periodic((0.6, 1.4, 1.0), 0.6, 1.4),
                RateProfile.iid_uniform(0.5, 1.5, seed=7), *_explicit_profiles(40)]
    for prof in profiles:
        for r in (1, 2, 3):
            for n in sorted({r, r + 1, 2 * r + 3, 17, 100, 777, 5000}):
                for alpha in (0.01, 0.1, 0.5, 0.9):
                    analytic.t_star(prof, r, n, alpha)
    for r in range(2, 9):
        for alpha in np.linspace(0.01, 0.99, 60):
            analytic.char_root(float(alpha), r)
    assert len(pairs) == len(profiles) * 3 * 7 * 4 + 7 * 60
    mismatches = [(ours, ref) for ours, ref in pairs if ours != ref]
    assert not mismatches, mismatches[:5]


def test_brentq_root_at_an_endpoint():
    from scipy.optimize import brentq
    for f, xa, xb in [(lambda x: x - 1.0, 1.0, 2.0), (lambda x: x - 2.0, 1.0, 2.0),
                      (lambda x: 0.0, -1.0, 1.0)]:
        ours = analytic._brentq(f, xa, xb, 1e-13, 1e-15, 200)
        assert ours == brentq(f, xa, xb, xtol=1e-13, rtol=1e-15, maxiter=200)
        assert ours in (xa, xb)


def test_brentq_errors_match_scipy():
    from scipy.optimize import brentq
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        analytic._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-13, 1e-15, 200)
    with pytest.raises(RuntimeError):
        brentq(lambda x: math.exp(x) - 2.0, 0.0, 5.0, xtol=1e-13, rtol=1e-15, maxiter=2)
    with pytest.raises(RuntimeError, match="converge"):
        analytic._brentq(lambda x: math.exp(x) - 2.0, 0.0, 5.0, 1e-13, 1e-15, 2)


# ---------------------------------------------------------------------------
# p_n oracles
# ---------------------------------------------------------------------------

def test_oracle_triangle_grid():
    for r in (1, 2, 3):
        for t in (0.25, 0.5, 1.0, 2.0):
            alpha = math.exp(-t)
            for n in range(0, 17):
                dp = analytic.p_n_dp(HOMOG, r, n, t)
                assert analytic.p_n_homog(alpha, r, n) == pytest.approx(dp, abs=1e-12)
                assert analytic.p_n_bruteforce(HOMOG, r, n, t) == \
                    pytest.approx(dp, abs=1e-12)
                if r == 2 and n >= 1:
                    assert analytic.p_n_closed_r2(alpha, n) == \
                        pytest.approx(dp, abs=1e-12)
                if r == 1 and n >= 1:
                    assert analytic.product_reach_prob(HOMOG, n, t) == \
                        pytest.approx(dp, abs=1e-12)


def test_boundary_convention():
    """p_n = 1 below the range; the closed form then gives
    p_r = 1 - alpha^r."""
    t = 0.9
    alpha = math.exp(-t)
    for r in (1, 2, 3):
        for n in range(r):
            assert analytic.p_n_homog(alpha, r, n) == 1.0
        assert analytic.p_n_homog(alpha, r, r) == pytest.approx(1 - alpha ** r)
    assert analytic.p_n_closed_r2(alpha, 1) == pytest.approx(1.0)
    assert analytic.p_n_closed_r2(alpha, 2) == pytest.approx(1 - math.exp(-2 * t))


def test_dp_nonhomogeneous_vs_bruteforce():
    prof = RateProfile.explicit((1.0, 0.6, 1.4, 0.9, 1.1, 0.8, 1.2, 1.0,
                                 0.7, 1.3, 1.0, 0.95), 0.6, 1.4)
    for r in (1, 2, 3):
        for n in (5, 8, 11):
            for t in (0.4, 1.1):
                assert analytic.p_n_dp(prof, r, n, t) == \
                    pytest.approx(analytic.p_n_bruteforce(prof, r, n, t),
                                  abs=1e-12)


def test_bruteforce_at_its_limit_keeps_no_memory():
    """At n = 20 the brute force holds 2^20 patterns: a float64 log
    probability and two int8 run lengths each, 10 MiB in all.  It agrees
    with the DP there, keeps nothing once it returns, and refuses n = 21.
    Tracing that is already on is kept, and only the growth past what it
    holds at the start counts."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for r in (1, 2, 3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            p = analytic.p_n_bruteforce(HOMOG, r, 20, 1.0)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
            assert p == pytest.approx(analytic.p_n_dp(HOMOG, r, 20, 1.0), abs=1e-12)
            assert kept < 2**20, f"r = {r}: kept {kept / 2**20:.1f} MiB"
            assert peak < 24 * 2**20, f"r = {r}: traced peak {peak / 2**20:.1f} MiB"
    finally:
        if not was_tracing:
            tracemalloc.stop()
    with pytest.raises(ValueError, match="n <= 20"):
        analytic.p_n_bruteforce(HOMOG, 2, 21, 1.0)


# ---------------------------------------------------------------------------
# characteristic root
# ---------------------------------------------------------------------------

def test_char_root_half_r2():
    assert analytic.char_root(0.5, 2) == pytest.approx(0.8090170, abs=1e-6)


def test_char_root_r1():
    for alpha in (0.1, 0.5, 0.9):
        assert analytic.char_root(alpha, 1) == pytest.approx(1 - alpha)


def test_char_root_solves_characteristic_equation():
    for alpha in (0.2, 0.5, 0.8):
        for r in (1, 2, 3, 4):
            xi = analytic.char_root(alpha, r)
            lhs = xi ** r
            rhs = sum((1 - alpha) * alpha ** (k - 1) * xi ** (r - k)
                      for k in range(1, r + 1))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_p_ratio_converges_to_char_root():
    for r in (1, 2, 3):
        alpha = 0.5
        xi = analytic.char_root(alpha, r)
        p_prev = analytic.p_n_homog(alpha, r, 200)
        p_next = analytic.p_n_homog(alpha, r, 201)
        assert p_next / p_prev == pytest.approx(xi, abs=1e-6)


# ---------------------------------------------------------------------------
# continuous model formulas
# ---------------------------------------------------------------------------

def test_laplace_value():
    # (lambda + t) e^{-t} / (lambda + t e^{-lambda - t}) at lambda = t = 1
    assert analytic.green_laplace_cont(1.0, 1.0) == \
        pytest.approx(2 * math.exp(-1) / (1 + math.exp(-2)), abs=1e-15)
    assert analytic.green_laplace_cont(1.0, 1.0) == pytest.approx(0.648054, abs=1e-6)


def test_laplace_at_zero_is_one():
    for t in (0.5, 1.0, 2.5):
        assert analytic.green_laplace_cont(0.0, t) == pytest.approx(1.0)


def test_moments_match_laplace_derivatives():
    """Mean and variance via central differences of the transform."""
    h = 1e-4
    for t in (0.7, 1.0, 2.0):
        L = lambda lam: analytic.green_laplace_cont(lam, t)
        # second-order one-sided differences (transform defined for lam >= 0)
        m1 = -(-3 * L(0.0) + 4 * L(h) - L(2 * h)) / (2 * h)
        m2 = (2 * L(0.0) - 5 * L(h) + 4 * L(2 * h) - L(3 * h)) / h ** 2
        mean, var = analytic.green_moments_cont(t)
        assert m1 == pytest.approx(mean, rel=1e-5)
        assert m2 - m1 ** 2 == pytest.approx(var, rel=1e-3)


def test_moments_closed_forms():
    for t in (0.5, 1.0, 3.0):
        mean, var = analytic.green_moments_cont(t)
        assert mean == pytest.approx((math.exp(t) - 1 - t) / t)
        assert var == pytest.approx(
            (math.exp(2 * t) - 1 - 2 * t * math.exp(t)) / t ** 2)


def test_moments_keep_their_precision_at_small_t():
    """Mean and variance to 1e-13 relative against 60-digit references:
    the closed forms in `decimal`, and at t = 1e-300, where 60 digits do
    not hold their cancellation, their Taylor series in `decimal`.  The
    closed forms in floats gave variance -58.6 at t = 1e-9 (true 3.3e-10)."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for t in (1e-300, 1e-12, 1e-9, 1e-6, 1e-3, 0.0999, 0.1, 1.0, 3.0):
            x = D(t)
            if t < 1e-100:
                want = (sum(x ** (k - 1) / math.factorial(k) for k in range(2, 40)),
                        sum((2 ** k - 2 * k) * x ** (k - 2) / math.factorial(k)
                            for k in range(3, 40)))
            else:
                want = ((x.exp() - 1 - x) / x, ((2 * x).exp() - 1 - 2 * x * x.exp()) / x ** 2)
            for got, ref in zip(analytic.green_moments_cont(t), want):
                assert abs(D(got) - ref) <= D("1e-13") * ref, (t, got, ref)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.floats(0.05, 0.95), st.integers(1, 4), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_p_n_monotone_in_n(alpha, r, n):
    assert analytic.p_n_homog(alpha, r, n + 1) <= analytic.p_n_homog(alpha, r, n) + 1e-12


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.integers(1, 3), st.integers(4, 30))
@settings(max_examples=100, deadline=None)
def test_p_n_dp_monotone_in_t(t1, t2, r, n):
    lo, hi = sorted((t1, t2))
    assert analytic.p_n_dp(HOMOG, r, n, lo) <= analytic.p_n_dp(HOMOG, r, n, hi) + 1e-12


@given(st.integers(2, 40), st.integers(1, 3), st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_sandwich_brackets_true_probability(n, r, alpha_target):
    if n < r:
        n = r
    t = analytic.t_star(HOMOG, r, n, alpha_target) if n >= r else 0.1
    lo, hi = analytic.sandwich_bounds(HOMOG, r, n, t)
    p_below = 1.0 - analytic.p_n_dp(HOMOG, r, n, t)
    assert lo - 1e-9 <= p_below <= hi + 1e-9
