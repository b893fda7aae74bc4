"""The fire-free "green" process: occupancy, reach and first-reach times.

Reach convention.  The rightmost reachable point can be characterized two
slightly different ways that disagree by one site; every formula in this
package (the union event over vacant runs, the product formula, the p_n
recursion) uses the version where

    P(N_green(t) >= n) = P(no vacant run of length r among sites 1..n).

We adopt that convention throughout: with j >= 1 the smallest index such
that sites j..j+r-1 are all vacant,

    N_green = j + r - 2,

so the empty configuration has N_green = r - 1 and the simulator agrees
exactly with every analytic oracle in `analytic`.
"""

from __future__ import annotations

import bisect

import numpy as np

from .model import CapExceeded, ModelConfig, NoiseField, RateProfile

DEFAULT_SITE_CAP = 1 << 24
DEFAULT_TIME_CAP = 1e4
_GAP_BUDGET = 8_000_000    # gaps drawn at once by sample_green_reach_cont


def first_vacant_run(vacant: np.ndarray, r: int) -> int:
    """0-based index into `vacant` of the first run of r consecutive True.

    Returns -1 if the array holds no such run.
    """
    v = np.asarray(vacant, dtype=bool)
    if len(v) < r:
        return -1
    if r == 1:
        idx = np.argmax(v)
        return int(idx) if v[idx] else -1
    c = np.cumsum(np.concatenate([[0], v.astype(np.int64)]))
    runs = c[r:] - c[:-r]       # runs[j] = number of vacant among v[j:j+r]
    idx = np.argmax(runs == r)
    return int(idx) if runs[idx] == r else -1


def reach_from_vacancy(vacant: np.ndarray, r: int, *, beyond_vacant: bool = True) -> int:
    """Green reach for a vacancy pattern of sites 1, 2, ... (index 0 = site 1).

    `beyond_vacant` treats sites past the end of the pattern as vacant,
    which is the correct reading of a finite snapshot.
    """
    if beyond_vacant:
        v = np.concatenate([np.asarray(vacant, dtype=bool), np.ones(r, dtype=bool)])
    else:
        v = np.asarray(vacant, dtype=bool)
    j0 = first_vacant_run(v, r)
    if j0 < 0:
        return -1
    return j0 + r - 1           # site index j = j0+1, reach = j + r - 2


def reach_discrete(occupied: np.ndarray, r: int) -> int:
    """Green reach from an occupancy pattern over sites 1..len(occupied)."""
    return reach_from_vacancy(~np.asarray(occupied, dtype=bool), r)


def simulate_N_green(noise: NoiseField, config: ModelConfig, t: float,
                     site_cap: int = DEFAULT_SITE_CAP) -> int:
    """Rightmost reachable point of the discrete green process at time t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    r = config.r
    lo, size = 1, 256
    carry = np.empty(0, dtype=bool)
    while lo + size <= site_cap + 256:
        vac = noise.next_arrivals_after(lo, lo + size, 0.0) > t
        v = np.concatenate([carry, vac])
        j0 = first_vacant_run(v, r)
        if j0 >= 0:
            first_site = (lo - len(carry)) + j0
            return first_site + r - 2
        carry = v[len(v) - (r - 1):] if r > 1 else np.empty(0, dtype=bool)
        lo += size
        size *= 2
    raise CapExceeded(f"no vacant run of length {r} within {site_cap} sites")


def simulate_tau_green(noise: NoiseField, config: ModelConfig, x: int) -> float:
    """First time the green reach meets or passes site x.

    N_green(t) >= x iff every window of r consecutive sites inside 1..x has
    an occupied site, so tau is the max over windows of the min first
    arrival inside the window -- an exact pathwise identity that avoids an
    event loop.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    r = config.r
    if x <= r - 1:
        return 0.0
    first = noise.next_arrivals_after(1, x + 1, 0.0)
    if r == 1:
        return float(first.max())
    win = np.lib.stride_tricks.sliding_window_view(first, r)
    return float(win.min(axis=1).max())


# ---------------------------------------------------------------------------
# continuous model
# ---------------------------------------------------------------------------

def _chain_reach(positions: np.ndarray, ignite: float, connect: float) -> float:
    """Rightmost point of the cluster chained from the origin; 0 if empty."""
    if len(positions) == 0 or positions[0] > ignite:
        return 0.0
    gaps = np.diff(positions)
    stop = np.argmax(gaps > connect) if len(gaps) else 0
    if len(gaps) == 0 or gaps[stop] <= connect:
        return float(positions[-1])
    return float(positions[stop])


def simulate_N_green_cont(noise: NoiseField, config: ModelConfig, t: float,
                          length_cap: float = 1e7) -> float:
    """Rightmost cluster point of the continuous green process at time t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    L = 16.0
    while L <= length_cap:
        pts = noise.points_in(0.0, L, 0.0, t)
        reach = _chain_reach(pts[:, 0], config.ignite_distance, config.connect_distance)
        if reach < L - config.connect_distance:
            return reach
        L *= 2
    raise CapExceeded(f"green cluster exceeded spatial window cap {length_cap}")


def simulate_tau_green_cont(noise: NoiseField, config: ModelConfig, x: float,
                            time_cap: float = DEFAULT_TIME_CAP,
                            length_cap: float = 1e7) -> float:
    """First time the continuous green reach meets or passes x (event-driven)."""
    if x <= 0:
        raise ValueError("x must be > 0")
    connect = config.connect_distance
    T = max(4.0, 2.0 * np.log(max(x, 2.0)))
    while T <= 4 * time_cap:
        L = x + connect * (T + 8.0)   # reach beyond x only needs a bounded overshoot
        if L > length_cap:
            raise CapExceeded("spatial window cap exceeded")
        pts = noise.points_in(0.0, L, 0.0, min(T, time_cap))
        order = np.argsort(pts[:, 1], kind="stable")
        positions: list[float] = []
        reach = 0.0
        for p, s in pts[order]:
            bisect.insort(positions, p)
            if reach == 0.0:
                if p <= config.ignite_distance:
                    reach = p
                else:
                    continue
            # advance the chain through everything now connected
            i = bisect.bisect_right(positions, reach)
            while i < len(positions) and positions[i] - reach <= connect:
                reach = positions[i]
                i += 1
            if reach >= x:
                return float(s)
        if T >= time_cap:
            break
        T *= 2
    raise CapExceeded(f"green process did not reach {x} before time cap {time_cap}")


# ---------------------------------------------------------------------------
# fast equal-in-law samplers for distributional Monte Carlo
# ---------------------------------------------------------------------------
# These bypass the per-site noise field (no coupling involved) but sample
# from exactly the same laws; used by the estimator suites where millions of
# independent replications are needed.

def sample_green_reach(rng_: np.random.Generator, profile: RateProfile, r: int,
                       t: float, site_cap: int = DEFAULT_SITE_CAP) -> int:
    """One draw of the discrete N_green(t); first-arrival times are sampled
    per site in blocks until the first vacant run of length r appears."""
    lo, size = 1, 256
    carry = np.empty(0, dtype=bool)
    while lo + size <= site_cap + 256:
        lam = profile.rates(lo, lo + size)
        vac = rng_.standard_exponential(size) / lam > t
        v = np.concatenate([carry, vac])
        j0 = first_vacant_run(v, r)
        if j0 >= 0:
            return (lo - len(carry)) + j0 + r - 2
        carry = v[len(v) - (r - 1):] if r > 1 else np.empty(0, dtype=bool)
        lo += size
        size *= 2
    raise CapExceeded("site cap exceeded in green sampler")


def sample_green_reach_cont(rng_: np.random.Generator, t: float, size: int,
                            connect: float = 1.0, ignite: float = 1.0) -> np.ndarray:
    """Vectorized draws of the continuous N_green(t).

    By time t the occupied points form a spatial Poisson process of rate t,
    so the gaps are iid Exp(t); the cluster is the run of gaps below the
    connect distance (the first gap measured against the ignite distance).
    Only the homogeneous default thresholds connect = ignite are supported
    on this fast path.
    """
    if connect != ignite:
        raise ValueError("fast sampler requires connect == ignite")
    p_stop = np.exp(-t * connect)
    m = rng_.geometric(p_stop, size=size) - 1          # number of gaps <= connect
    out = np.empty(size, dtype=float)
    # chunk replications so the flattened gap array stays modest: each chunk
    # takes the longest run of replications whose gaps fit the budget (at
    # least one replication)
    ends = np.cumsum(m)
    lo = 0
    while lo < size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _GAP_BUDGET, side="right")))
        total = int(ends[hi - 1]) - base
        # truncated Exp(t) on (0, connect] via inverse cdf
        u = rng_.random(total)
        w = -np.log1p(-u * (1.0 - p_stop)) / t
        seg = np.repeat(np.arange(hi - lo), m[lo:hi])
        out[lo:hi] = np.bincount(seg, weights=w, minlength=hi - lo)
        lo = hi
    return out
