"""Closed-form reach probabilities, their numerical oracles and the
geometric time ladder.

Everything here is exact (up to floating point) and serves as the oracle
side of the Monte Carlo validators: the union-bound sum f_n, its inverse
t_*, the no-vacant-run probability p_n via four independent routes
(recursion, closed form for r=2, dynamic programming, brute force), the
characteristic root governing the decay of p_n, and the continuous-model
Laplace transform and moments.

Boundary convention: p_n = 1 for 0 <= n < r (sites 1..n cannot hold a
vacant run of length r), under which the recursion yields p_r = 1 - e^{-rt}
and matches both the brute-force event count and the r=2 closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RateProfile


@dataclass(frozen=True)
class ScheduleEntry:
    """One level of the geometric time ladder."""

    k: int
    gamma_k: float    # gamma**k
    n_k: int          # min{n: f_n(gamma^k) >= 1/2}
    T_k: float        # t_*(n_k, 1/2)


# ---------------------------------------------------------------------------
# f_n and friends
# ---------------------------------------------------------------------------

def _window_rate_sums(profile: RateProfile, r: int, n: int) -> np.ndarray:
    """lambda_{i+1} + ... + lambda_{i+r} for i = 0..n-r."""
    lam = profile.rates(1, n + 1)
    c = np.concatenate([[0.0], np.cumsum(lam)])
    return c[r:] - c[:-r]


def f_n(profile: RateProfile, r: int, n: int, t: float) -> float:
    """Union-bound sum over vacant-run windows: an upper bound on
    P(N_green(t) < n); equals n - r + 1 at t = 0."""
    if n < r:
        raise ValueError("need n >= r")
    if t < 0:
        raise ValueError("need t >= 0")
    return float(np.sum(np.exp(-_window_rate_sums(profile, r, n) * t)))


def f_nj(profile: RateProfile, r: int, n: int, j: int, t: float) -> float:
    """The j-th residue-class part of f_n (window starts i = j mod r)."""
    if not 0 <= j <= r - 1:
        raise ValueError("need 0 <= j <= r-1")
    sums = _window_rate_sums(profile, r, n)
    return float(np.sum(np.exp(-sums[j::r] * t)))


def sandwich_bounds(profile: RateProfile, r: int, n: int, t: float) -> tuple[float, float]:
    """(lower, upper) bracket of P(N_green(t) < n)."""
    f = f_n(profile, r, n, t)
    return 1.0 - np.exp(-f / r), min(1.0, f)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """A root of f in the sign-changing bracket [xa, xb] by Brent's method.

    Raises ValueError when f(xa) and f(xb) have the same sign and
    RuntimeError when `maxiter` iterations do not converge.
    """
    # A port of scipy/optimize/Zeros/brentq.c with the same float operations
    # in the same order, so it returns the floats of scipy.optimize.brentq.
    # As there, f sees Python floats and its values are read as floats.
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


def t_star(profile: RateProfile, r: int, n: int, alpha_target: float) -> float:
    """The unique t with f_n(t) = alpha_target; Brent's method on the
    monotone bracket [0, log((n-r+1)/alpha)/(r c1) + 1]."""
    if not 0 < alpha_target < 1:
        raise ValueError("alpha_target must lie in (0,1)")
    if n < r:
        raise ValueError("need n >= r")
    sums = _window_rate_sums(profile, r, n)
    hi = np.log((n - r + 1) / alpha_target) / (r * profile.c1) + 1.0

    def g(t):
        return float(np.sum(np.exp(-sums * t))) - alpha_target

    return _brentq(g, 0.0, hi, xtol=1e-13, rtol=1e-15, maxiter=200)


_N_CAP = 4_000_000   # largest n_k the ladder builds


def schedule(profile: RateProfile, r: int, gamma: float, k_max: int) -> list[ScheduleEntry]:
    """Ladder entries (k, gamma^k, n_k, T_k) for k = 1..k_max.

    Raises OverflowError when n_k passes `_N_CAP`; the error's `entries`
    attribute holds the levels built before it.
    """
    if not 1.0 < gamma < 2.0:
        raise ValueError("gamma must lie in (1, 2)")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    entries = []
    for k in range(1, k_max + 1):
        t = gamma ** k
        # exponential search on the monotone-in-n sum
        n = max(r, 2)
        while f_n(profile, r, n, t) < 0.5:
            n *= 2
            if n > _N_CAP:
                err = OverflowError(
                    f"n_k exceeds cap {_N_CAP} at level k={k}; lower k_max")
                err.entries = entries       # the levels below k, for partial output
                raise err
        terms = np.exp(-_window_rate_sums(profile, r, n) * t)
        partial = np.cumsum(terms)          # partial[i] = f_{r+i}(t)
        idx = int(np.searchsorted(partial, 0.5))
        n_k = r + idx
        T_k = t_star(profile, r, n_k, 0.5)
        assert t <= T_k + 1e-9, "ladder ordering gamma^k <= T_k violated"
        entries.append(ScheduleEntry(k=k, gamma_k=t, n_k=n_k, T_k=T_k))
    return entries


# ---------------------------------------------------------------------------
# reach probabilities p_n
# ---------------------------------------------------------------------------

def product_reach_prob(profile: RateProfile, n: int, t: float) -> float:
    """P(N_green(t) >= n) for the short-range model: the product over sites
    1..n of their occupation probabilities."""
    if n < 1:
        raise ValueError("need n >= 1")
    lam = profile.rates(1, n + 1)
    return float(np.prod(-np.expm1(-lam * t)))


def p_n_homog(alpha: float, r: int, n: int) -> float:
    """P(no vacant run of length r among n sites), site vacancy alpha,
    via the linear recursion with boundary p_n = 1 for n < r."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0,1]")
    if n < 0:
        raise ValueError("need n >= 0")
    if n < r:
        return 1.0
    p = [1.0] * r                      # p_0 .. p_{r-1}
    w = [(1 - alpha) * alpha ** (k - 1) for k in range(1, r + 1)]
    for m in range(r, n + 1):
        p.append(sum(w[k - 1] * p[m - k] for k in range(1, r + 1)))
    return p[n]


def p_n_closed_r2(alpha: float, n: int) -> float:
    """Two-root closed form of p_n for range 2."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0,1)")
    if n < 1:
        raise ValueError("need n >= 1")
    D = 1 + 2 * alpha - 3 * alpha ** 2
    sD = np.sqrt(D)
    xi1 = (1 - alpha + sD) / 2
    xi2 = (1 - alpha - sD) / 2
    a = (1 + alpha) / sD
    return float(0.5 * ((1 + a) * xi1 ** n + (1 - a) * xi2 ** n))


def p_n_dp(profile: RateProfile, r: int, n: int, t: float) -> float:
    """Exact non-homogeneous p_n by dynamic programming over the trailing
    vacant-run length (states 0..r-1, absorbing at r)."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n < r:
        return 1.0
    q = np.exp(-profile.rates(1, n + 1) * t)   # per-site vacancy
    state = np.zeros(r)
    state[0] = 1.0
    for x in range(n):
        occupied_mass = float(np.sum(state)) * (1.0 - q[x])
        new = np.zeros(r)
        new[0] = occupied_mass
        new[1:] = state[:-1] * q[x]
        state = new
    return float(np.sum(state))


def p_n_bruteforce(profile: RateProfile, r: int, n: int, t: float) -> float:
    """Ground-truth p_n by enumerating all 2^n occupancy patterns, built
    site by site: pattern m has site i vacant iff bit i-1 of m is 0."""
    if n > 20:
        raise ValueError("brute force limited to n <= 20")
    if n < 0:
        raise ValueError("need n >= 0")
    if n < r:
        return 1.0
    log_prob = np.zeros(1 << n)
    run = np.zeros(1 << n, dtype=np.int8)    # trailing vacant run
    best = np.zeros(1 << n, dtype=np.int8)   # longest vacant run
    for x, q in enumerate(np.exp(-profile.rates(1, n + 1) * t)):
        h = 1 << x   # patterns [h, 2h) take site x+1 occupied, [0, h) vacant
        log_prob[h:2 * h] = log_prob[:h] + np.log1p(-q)
        best[h:2 * h] = best[:h]
        log_prob[:h] += np.log(q)
        run[:h] += 1
        np.maximum(best[:h], run[:h], out=best[:h])
    return float(np.exp(log_prob[best < r]).sum())


def char_root(alpha: float, r: int) -> float:
    """Largest positive root of the run-length characteristic polynomial
    xi^r - sum_k (1-alpha) alpha^{r-1-k} xi^k, located in (0, 1]."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0,1)")
    if r < 1:
        raise ValueError("need r >= 1")
    if r == 1:
        return 1.0 - alpha

    ks = np.arange(r)

    def g(xi):
        return xi ** r - np.sum((1 - alpha) * alpha ** (r - 1 - ks) * xi ** ks)

    return _brentq(g, 1e-12, 1.0, xtol=1e-13, rtol=1e-15, maxiter=200)


def homog_threshold(n: float, r: int) -> float:
    """Critical time scale log(n)/r of the homogeneous model."""
    if n < 2:
        raise ValueError("need n >= 2")
    return float(np.log(n) / r)


# ---------------------------------------------------------------------------
# continuous model
# ---------------------------------------------------------------------------

def green_laplace_cont(lambda_arg: float, t: float) -> float:
    """Laplace transform E exp(-lambda * N_green(t)) of the continuous
    green reach."""
    if t <= 0:
        raise ValueError("need t > 0")
    if lambda_arg < 0:
        raise ValueError("need lambda_arg >= 0")
    lam = lambda_arg
    return float((lam + t) * np.exp(-t) / (lam + t * np.exp(-lam - t)))


def green_moments_cont(t: float) -> tuple[float, float]:
    """(mean, variance) of the continuous green reach at time t: the closed
    forms from t = 0.1 up, and below, where they cancel, their Taylor series
    sum_{k>=2} t^(k-1)/k! and sum_{k>=3} (2^k - 2k) t^(k-2)/k!, whose 20
    terms reach double precision."""
    if t <= 0:
        raise ValueError("need t > 0")
    if t < 0.1:
        c = [0.5]                   # c[k - 2] = t^(k-2) / k!
        for k in range(3, 23):
            c.append(c[-1] * t / k)
        return t * math.fsum(c), math.fsum((2 ** k - 2 * k) * ck for k, ck in enumerate(c[1:], 3))
    mean = (np.exp(t) - 1 - t) / t
    var = (np.exp(2 * t) - 1 - 2 * t * np.exp(t)) / t ** 2
    return float(mean), float(var)
