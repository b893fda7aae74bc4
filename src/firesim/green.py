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

On the continuous model one lazy state, `_Continuum`, serves both: the
fire engine steps it, and after a run without targets, whose burns only
mark trees, N_green and tau_green read every tree arrived from it.
"""

from __future__ import annotations

import bisect

import numpy as np

from .model import CapExceeded, NoiseField, RateProfile

DEFAULT_SITE_CAP = 1 << 22
DEFAULT_TIME_CAP = 1e4
_GAP_BUDGET = 1 << 18      # gaps sample_green_reach_cont draws at once: 16 bytes a gap
                           # (its buffer slot and its bin index), 4 MiB in all
_COLS, _ROWS = 16, 8       # first block of cells a continuous state reads
_TREES = 1 << 18           # most trees a state that keeps burnt ones holds: 17 bytes a tree


def first_vacant_run(vacant, r: int):
    """0-based index along the last axis of `vacant`, a 1-D or 2-D bool
    mask, of its first run of r consecutive True: an int for 1-D input, one
    index per row for 2-D input; -1 where there is no such run."""
    v = np.asarray(vacant, dtype=bool)
    n = v.shape[-1] - r + 1
    if n <= 0:
        return -1 if v.ndim == 1 else np.full(len(v), -1)
    run = v[..., :n]
    for k in range(1, r):
        run = run & v[..., k:k + n]
    idx = run.argmax(axis=-1)
    if v.ndim == 1:
        return int(idx) if run[idx] else -1
    return np.where(run.any(axis=1), idx, -1)


def reach_discrete(occupied: np.ndarray, r: int) -> int:
    """Green reach from an occupancy pattern over sites 1..len(occupied).

    Sites past the end of the pattern are read as vacant, which is the
    correct reading of a finite snapshot.
    """
    v = np.concatenate([~np.asarray(occupied, dtype=bool), np.ones(r, dtype=bool)])
    return first_vacant_run(v, r) + r - 1     # site index j = j0+1, reach = j + r - 2


def _first_run_reach(vacant, r: int, site_cap: int) -> int:
    """Green reach from `vacant(lo, hi)`, the vacancy of sites lo..hi-1 as a
    bool array, read in doubling blocks from 256 sites until the first
    vacant run of length r appears; a later block keeps the last r - 1
    sites of the one before, as a run may straddle them."""
    lo, size = 1, 256
    v = np.empty(0, dtype=bool)
    while lo + size <= site_cap + 256:
        block = vacant(lo, lo + size)
        v = np.concatenate([v[len(v) - (r - 1):], block]) if len(v) else block
        j0 = first_vacant_run(v, r)
        if j0 >= 0:
            return (lo + size - len(v)) + j0 + r - 2
        lo += size
        size *= 2
    raise CapExceeded(f"no vacant run of length {r} within {site_cap} sites")


def simulate_N_green(noise: NoiseField, t: float) -> int:
    """Rightmost reachable point of the discrete green process at time t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return _first_run_reach(lambda lo, hi: noise.next_arrivals_after(lo, hi, 0.0) > t,
                            noise.config.r, DEFAULT_SITE_CAP)


def simulate_tau_green(noise: NoiseField, x: int) -> float:
    """First time the green reach meets or passes site x.

    N_green(t) >= x iff every window of r consecutive sites inside 1..x has
    an occupied site, so tau is the max over windows of the min first
    arrival inside the window -- an exact pathwise identity that avoids an
    event loop.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    r = noise.config.r
    if x <= r - 1:
        return 0.0
    first = noise.next_arrivals_after(1, x + 1, 0.0)
    win = np.lib.stride_tricks.sliding_window_view(first, r)
    return float(win.min(axis=1).max())


# ---------------------------------------------------------------------------
# continuous model
# ---------------------------------------------------------------------------

class _Continuum:
    """Lazy state of the continuous fire process on [0, cap] x [0, time_cap].

    It holds the trees read, sorted by position.  A burn of a prefix
    [0, reach] deletes the trees it burns or, with `keep_burnt`, marks
    them: a tree stands at t for the fire iff it arrived by t unburnt, for
    the green process (`green`, `first_passage`) iff it arrived by t.  Unit
    columns are read in doubling blocks only while a chain may pass the
    columns read, and unit time rows only as far as the ignitions or a
    query need, so each cell is read once.  `keep_burnt` serves a fire run
    without targets, which no window bounds: CapExceeded past _TREES trees.
    It is a one-row state of `fire._run_rows`' step interface without `keep`:
    the loop ends when its row finishes; ignitions past the last are inf.
    """

    rows = 1

    def __init__(self, noise: NoiseField, cap: float, time_cap: float,
                 keep_burnt: bool = False):
        self.noise, self.cap, self.time_cap = noise, float(cap), float(time_cap)
        self.keep_burnt = keep_burnt
        self.connect = noise.config.connect_distance
        self.ignite_distance = noise.config.ignite_distance
        self.trees = np.empty((0, 2))      # (position, arrival time) rows
        self.standing = np.empty(0, dtype=bool)
        self.cols = int(np.ceil(min(max(_COLS, self.ignite_distance), self.cap)))
        self.depth = 0                     # unit time rows read
        self.ignitions = self._ignitions()

    def _read(self, cols: int, depth: int) -> None:
        """Extend the cells read to [0, cols) x [0, depth); new trees stand."""
        pts = np.concatenate([self.trees, self.noise.cells(self.cols, cols, 0, depth),
                              self.noise.cells(0, self.cols, self.depth, depth)])
        pts = pts[(pts[:, 0] <= self.cap) & (pts[:, 1] <= self.time_cap)]
        if self.keep_burnt and len(pts) > _TREES:
            raise CapExceeded(f"continuous state passed {_TREES} trees")
        standing = np.ones(len(pts), dtype=bool)
        standing[:len(self.standing)] = self.standing    # trees held pass again, in front
        order = np.argsort(pts[:, 0], kind="stable")
        self.trees, self.standing = pts[order], standing[order]
        self.cols, self.depth = cols, depth

    def _more_rows(self, t: float = 0.0) -> float:
        """Read the next block of time rows: at least _ROWS rows, twice as
        many as before and through t, up to time_cap.  Returns the time now
        covered."""
        depth = max(2 * self.depth, _ROWS, t)
        self._read(self.cols, int(np.ceil(min(depth, self.time_cap))))
        return min(self.depth, self.time_cap)

    def reach(self, t: float, x: float = np.inf, fire: bool = True) -> tuple[float, bool]:
        """(reach, censored) at time t: the chain from the rightmost standing
        tree within the ignite distance across gaps of at most the connect
        distance, 0.0 without such a tree; burnt trees stand only for the
        green process (`fire=False`).  A chain that may pass the cap is
        censored, with the reach of its part inside the cap.  Columns are
        read only until they hold [0, x + connect], which decides whether
        the chain passes x, so a reach >= x may stop short."""
        if self.depth < min(t, self.time_cap):
            self._more_rows(t)
        while True:
            arrived = self.trees[:, 1] <= t
            pos = self.trees[arrived & self.standing if fire else arrived, 0]
            k = np.searchsorted(pos, self.ignite_distance, "right") - 1
            stop = np.flatnonzero(np.diff(pos[max(k, 0):]) > self.connect)
            reach = 0.0 if k < 0 else float(pos[k + stop[0]] if len(stop) else pos[-1])
            width = min(self.cols, self.cap)
            if reach <= width - self.connect or width == self.cap or width >= x + self.connect:
                return reach, bool(reach > width - self.connect)
            self._read(int(np.ceil(min(2 * self.cols, self.cap))), self.depth)

    def green(self, t: float, x: float = np.inf) -> float:
        """N_green(t), the green reading of `reach(t, x)`; CapExceeded if a
        chain short of x may pass the cap."""
        reach, censored = self.reach(t, x, fire=False)
        if censored and reach < x:
            raise CapExceeded(f"green cluster exceeded spatial window cap {self.cap:.0f}")
        return reach

    def first_passage(self, x: float) -> float:
        """tau_green(x), inf past time_cap, whatever has burnt: the green
        reach only grows, and only when a tree arrives, so tau is the first
        tree time at which it is >= x, found by bisection over the trees
        read, which hold every tree of [0, x + connect] by then."""
        if x <= 0:
            raise ValueError("x must be > 0")
        t = min(self.depth, self.time_cap)
        while self.green(t, x) < x:
            if t >= self.time_cap:
                return np.inf
            t = self._more_rows()
        times = np.sort(self.trees[:, 1])
        return float(times[bisect.bisect_left(times, True, key=lambda s: self.green(s, x) >= x)])

    def _ignitions(self):
        """Arrival times of the trees within the ignite distance, in order,
        reading time rows in doubling blocks as they are consumed."""
        lo = 0.0
        while lo < self.time_cap:
            hi = self._more_rows()
            time = self.trees[self.trees[:, 0] <= self.ignite_distance, 1]
            yield from np.sort(time[(time > lo) & (time <= hi)]).tolist()
            lo = hi

    def ignite(self) -> np.ndarray:
        return np.array([next(self.ignitions, np.inf)])

    def burn(self, t: np.ndarray) -> tuple[list, list]:
        """Burn at the ignition time t[0], deleting the trees burnt or, with
        `keep_burnt`, marking them; returns ([reach], [censored])."""
        t = t.item()
        reach, censored = self.reach(t)
        self.standing[(self.trees[:, 0] <= reach) & (self.trees[:, 1] <= t)] = False
        if not self.keep_burnt:    # delete them: the trees left all stand
            self.trees, self.standing = self.trees[self.standing], self.standing[self.standing]
        return [reach], [censored]


def simulate_N_green_cont(noise: NoiseField, t: float) -> float:
    """Rightmost cluster point of the continuous green process at time t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return _Continuum(noise, DEFAULT_SITE_CAP, t).green(t)


def simulate_tau_green_cont(noise: NoiseField, x: float) -> float:
    """First time the continuous green reach meets or passes x; CapExceeded
    past DEFAULT_TIME_CAP."""
    tau = _Continuum(noise, DEFAULT_SITE_CAP, DEFAULT_TIME_CAP).first_passage(x)
    if tau == np.inf:
        raise CapExceeded(f"green process did not reach {x} before time cap {DEFAULT_TIME_CAP}")
    return tau


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
    return _first_run_reach(
        lambda lo, hi: rng_.standard_exponential(hi - lo) / profile.rates(lo, hi) > t,
        r, site_cap)


def sample_green_reach_cont(rng_: np.random.Generator, t: float, size: int) -> np.ndarray:
    """Vectorized draws of the continuous N_green(t) of the unit model.

    By time t the occupied points form a spatial Poisson process of rate t,
    so the gaps are iid Exp(t); the cluster is the run of gaps below the
    connect distance 1 (the first gap measured against the ignite distance,
    also 1).
    """
    p_stop = np.exp(-t)
    m = rng_.geometric(p_stop, size=size) - 1          # number of gaps <= 1
    ends = np.cumsum(m)
    total = int(ends[-1]) if size else 0
    piece = max(_GAP_BUDGET, 1)
    out = np.zeros(size)
    # the gaps of all replications in order, a piece at a time, through one
    # buffer: slot 0 carries the sum so far of the replication the piece
    # starts inside, so bincount forms every sum in sequence, as in one draw
    buf = np.empty(min(piece, total) + 1)
    for g0 in range(0, total, piece):
        n = min(piece, total - g0)
        lo = int(np.searchsorted(ends, g0, side="right"))
        hi = int(np.searchsorted(ends, g0 + n)) + 1
        share = np.minimum(ends[lo:hi], g0 + n) - np.maximum(ends[lo:hi] - m[lo:hi], g0)
        share[0] += 1
        w = buf[:n + 1]
        w[0] = out[lo]
        u = rng_.random(out=w[1:])   # n truncated Exp(t) on (0, 1], by inverse cdf, in place:
        u *= -(1.0 - p_stop)         # sign flips are exact, the floats of -log1p(-u (1 - p)) / t
        np.log1p(u, out=u)
        u /= -t
        out[lo:hi] = np.bincount(np.repeat(np.arange(hi - lo), share), weights=w,
                                 minlength=hi - lo)
    return out
