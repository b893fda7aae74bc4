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
_COLS, _ROWS = 16, 8       # first block of cells a continuous state reads


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

class _Continuum:
    """Lazy state of the continuous fire process on [0, cap] x [0, time_cap].

    Every burn removes the standing trees of a prefix [0, reach], so the
    state is the trees no burn has removed, sorted by position; a tree
    stands at t iff it arrived by t.  Unit columns are read in doubling
    blocks only while a chain may pass the columns read, and unit time rows
    only as far as the ignitions or a query need, so each cell is read once.
    Without burns the state is the green process.
    """

    def __init__(self, noise: NoiseField, config: ModelConfig, cap: float,
                 time_cap: float):
        self.noise, self.cap, self.time_cap = noise, float(cap), float(time_cap)
        self.connect, self.ignite = config.connect_distance, config.ignite_distance
        self.trees = np.empty((0, 2))      # (position, arrival time) rows
        self.cols = int(np.ceil(min(max(_COLS, self.ignite), self.cap)))
        self.rows = 0

    def _read(self, cols: int, rows: int) -> None:
        """Extend the cells read to [0, cols) x [0, rows)."""
        pts = np.concatenate([self.trees, self.noise.cells(self.cols, cols, 0, rows),
                              self.noise.cells(0, self.cols, self.rows, rows)])
        pts = pts[(pts[:, 0] <= self.cap) & (pts[:, 1] <= self.time_cap)]
        self.trees = pts[np.argsort(pts[:, 0], kind="stable")]
        self.cols, self.rows = cols, rows

    def _more_rows(self, t: float = 0.0) -> float:
        """Read the next block of time rows: at least _ROWS rows, twice as
        many as before and through t, up to time_cap.  Returns the time now
        covered."""
        rows = max(2 * self.rows, _ROWS, t)
        self._read(self.cols, int(np.ceil(min(rows, self.time_cap))))
        return min(self.rows, self.time_cap)

    def reach(self, t: float) -> tuple[float, bool]:
        """(reach, censored) at time t: the chain from the rightmost standing
        tree within the ignite distance across gaps of at most the connect
        distance, 0.0 without such a tree.  A chain that may pass the cap is
        censored, with the reach of its part inside the cap."""
        if self.rows < min(t, self.time_cap):
            self._more_rows(t)
        while True:
            pos = self.trees[self.trees[:, 1] <= t, 0]
            k = np.searchsorted(pos, self.ignite, "right") - 1
            stop = np.flatnonzero(np.diff(pos[max(k, 0):]) > self.connect)
            reach = 0.0 if k < 0 else float(pos[k + stop[0]] if len(stop) else pos[-1])
            width = min(self.cols, self.cap)
            if reach <= width - self.connect or width == self.cap:
                return reach, bool(reach > width - self.connect)
            self._read(int(np.ceil(min(2 * self.cols, self.cap))), self.rows)

    def burn(self, t: float) -> tuple[float, bool]:
        """Burn at ignition time t; returns (reach, censored)."""
        reach, censored = self.reach(t)
        self.trees = self.trees[(self.trees[:, 0] > reach) | (self.trees[:, 1] > t)]
        return reach, censored

    def ignitions(self):
        """Arrival times of the trees within the ignite distance, in order,
        reading time rows in doubling blocks as they are consumed."""
        lo = 0.0
        while lo < self.time_cap:
            hi = self._more_rows()
            pos, time = self.trees[:, 0], self.trees[:, 1]
            yield from np.sort(time[(pos <= self.ignite) & (time > lo) & (time <= hi)]).tolist()
            lo = hi


def green_reach_cont(noise: NoiseField, config: ModelConfig, horizon: float):
    """N_green(t) of the continuous model as a function of t in [0, horizon].

    Every query reads the one fire-free state, so each cell is read once
    however many times are asked.  A cluster that may pass DEFAULT_SITE_CAP
    raises CapExceeded.
    """
    state = _Continuum(noise, config, DEFAULT_SITE_CAP, horizon)

    def reach_at(t: float) -> float:
        if not 0 <= t <= horizon:
            raise ValueError(f"need 0 <= t <= horizon = {horizon}")
        reach, censored = state.reach(t)
        if censored:
            raise CapExceeded(f"green cluster exceeded spatial window cap {DEFAULT_SITE_CAP}")
        return reach

    return reach_at


def simulate_N_green_cont(noise: NoiseField, config: ModelConfig, t: float) -> float:
    """Rightmost cluster point of the continuous green process at time t."""
    return green_reach_cont(noise, config, t)(t)


def simulate_tau_green_cont(noise: NoiseField, config: ModelConfig, x: float,
                            time_cap: float = DEFAULT_TIME_CAP) -> float:
    """First time the continuous green reach meets or passes x.

    The chain's first tree at or past x lies within max(x + connect, ignite),
    so no column beyond that is read.  The green reach only grows, so tau is
    the first tree time at which it is >= x, found by bisection.
    """
    if x <= 0:
        raise ValueError("x must be > 0")
    state = _Continuum(noise, config, max(x + config.connect_distance,
                                          config.ignite_distance), time_cap)
    t = 0.0
    while state.reach(t)[0] < x:
        if t >= time_cap:
            raise CapExceeded(f"green process did not reach {x} before time cap {time_cap}")
        t = state._more_rows()
    times = np.sort(state.trees[:, 1])
    return float(times[bisect.bisect_left(times, True, key=lambda s: state.reach(s)[0] >= x)])


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
