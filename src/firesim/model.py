"""Rate profiles, model configuration and the shared Poisson noise field.

The noise field is the single source of randomness: every process (green,
fire, blue) is a deterministic functional of it, which is what makes the
pathwise coupling experiments possible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng


class CapExceeded(Exception):
    """A resource guard (site window, spatial window or time cap) was hit.

    Signals the cap, not a model error: callers may enlarge the cap and
    retry, or flag the replication as censored.
    """


class ProfileTooShort(ValueError):
    """An explicit profile was asked for a site past its last value."""


@dataclass(frozen=True)
class RateProfile:
    """Occupation-rate sequence {lambda_x}, uniformly bounded in [c1, c2]."""

    kind: str                      # constant | explicit | periodic | iid-uniform
    c1: float
    c2: float
    values: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError(f"need 0 < c1 <= c2, got c1={self.c1}, c2={self.c2}")
        if self.kind in ("explicit", "periodic"):
            if not self.values:
                raise ValueError(f"{self.kind} profile needs a nonempty value list")
            vals = np.asarray(self.values, dtype=float)
            if np.any(vals < self.c1) or np.any(vals > self.c2):
                raise ValueError("profile values must lie in [c1, c2]")
        elif self.kind == "constant":
            if len(self.values) != 1:
                raise ValueError("constant profile needs exactly one value")
            v = self.values[0]
            if not (self.c1 <= v <= self.c2):
                raise ValueError("constant rate must lie in [c1, c2]")
        elif self.kind != "iid-uniform":
            raise ValueError(f"unknown profile kind {self.kind!r}")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(lam: float) -> "RateProfile":
        return RateProfile("constant", c1=lam, c2=lam, values=(lam,))

    @staticmethod
    def explicit(values: Sequence[float], c1: float, c2: float) -> "RateProfile":
        return RateProfile("explicit", c1=c1, c2=c2, values=tuple(values))

    @staticmethod
    def periodic(values: Sequence[float], c1: float, c2: float) -> "RateProfile":
        return RateProfile("periodic", c1=c1, c2=c2, values=tuple(values))

    @staticmethod
    def iid_uniform(c1: float, c2: float, seed: int) -> "RateProfile":
        return RateProfile("iid-uniform", c1=c1, c2=c2, seed=seed)

    # -- queries ------------------------------------------------------------
    def rate_at(self, x: int) -> float:
        """lambda_x; pure in (profile, x)."""
        return float(self.rates(x, x + 1)[0])

    def rates(self, start: int, stop: int) -> np.ndarray:
        """Vector of lambda_x for x in [start, stop)."""
        if start < 0 or stop < start:
            raise ValueError("need 0 <= start <= stop")
        n = stop - start
        if self.kind == "constant":
            return np.full(n, self.values[0], dtype=float)
        if self.kind == "explicit":
            if stop > len(self.values):
                raise ProfileTooShort(
                    f"explicit profile has {len(self.values)} values, site {stop - 1} requested")
            return np.asarray(self.values[start:stop], dtype=float)
        if self.kind == "periodic":
            idx = np.arange(start, stop) % len(self.values)
            return np.asarray(self.values, dtype=float)[idx]
        # iid-uniform: recomputed, never memoized; deterministic in (seed, x)
        u = rng.counter_uniform(self.seed, rng.profile_stream(np.arange(start, stop)), 0)
        return self.c1 + (self.c2 - self.c1) * np.atleast_1d(u)


@dataclass(frozen=True)
class ModelConfig:
    """Process configuration for either the lattice or the continuous model."""

    space: str = "discrete"               # discrete | continuous
    r: int = 1                            # fire range (discrete)
    profile: Optional[RateProfile] = None  # discrete rates; default constant 1
    intensity: float = 1.0                # continuous: rate per unit length-time
    connect_distance: float = 1.0
    ignite_distance: float = 1.0

    def __post_init__(self):
        if self.space not in ("discrete", "continuous"):
            raise ValueError(f"unknown space {self.space!r}")
        if self.space == "discrete":
            if self.r < 1:
                raise ValueError("range r must be >= 1")
            if self.profile is None:
                object.__setattr__(self, "profile", RateProfile.constant(1.0))
        else:
            if self.intensity <= 0 or self.connect_distance <= 0 or self.ignite_distance <= 0:
                raise ValueError("continuous parameters must be positive")


_POISSON_KMAX = 1001   # cell means are O(1): a larger count is never drawn


@functools.lru_cache(maxsize=16)
def _poisson_cdf(mean: float) -> np.ndarray:
    """P(N <= k) for N ~ Poisson(mean), k = 0.._POISSON_KMAX, summed term by
    term, so that inverting a uniform u against it gives the count that a
    sequential search `while u > acc: k += 1; p *= mean / k; acc += p`
    stops at."""
    p = np.exp(-mean)
    acc = [p]
    for k in range(1, _POISSON_KMAX + 1):
        p *= mean / k
        acc.append(acc[-1] + p)
    cdf = np.array(acc)
    cdf.flags.writeable = False
    return cdf


# Most cells a mask walk gathers, and exponentials NoiseField.advance draws,
# at once.  Its temporaries peak at about 50 B a draw: 6.6 MB at 2^17 (tracemalloc).
_BLOCK = 1 << 17


def _mask_blocks(mask):
    """(cols, block, row, site) per column block of `mask`: _BLOCK cells at most, or one column."""
    step, w = max(1, _BLOCK // max(len(mask), 1)), mask.shape[1]
    for lo in range(0, w, step):
        cols = slice(lo, min(lo + step, w))
        yield cols, mask[:, cols], *np.nonzero(mask[:, cols])


class NoiseField:
    """Reproducible Poisson randomness shared by every coupled process.

    Discrete: site x's arrivals are the partial sums of unit-rate
    exponentials divided by lambda_x, exponential k being counter k of the
    stream of (master_seed, x).  Nothing is stored: a reader keeps, per
    site, the current partial sum and the count of exponentials in it, and
    `advance` moves those states forward in place; `arrivals_before` reads
    one site's stream in order.  Scaling every rate by c > 0 divides every
    arrival time by c pathwise.  `vacancy_arrivals` draws from a second
    stream per site, one exponential per vacancy, for readers that need
    only the law.  Both take master seeds by row or site, so one call can
    serve sites of many replications (the lockstep lattice state of `fire`).

    Continuous: a space-time Poisson point set of the configured intensity,
    generated per unit cell from (master_seed, cell), so window growth
    never reshuffles previously exposed points.  `cells` draws a block of
    whole cells in one pass, and the engine reads only through it;
    `points_in` reads a rectangle through it, the plain reader the tests
    check the engine against.  Nothing is cached.
    """

    def __init__(self, master_seed: int, config: ModelConfig):
        self.master_seed = int(master_seed)
        self.config = config

    # ----- discrete -------------------------------------------------------
    def _arrival_block(self, seed, stream, lam, unit, count, width: int):
        """Unit sums and times of the next `width` arrivals of each site.

        Row i reads the stream stream[i] of master seed seed[i] from the
        site's state (unit[i], count[i]) -- the sum of its first count[i]
        unit-rate exponentials -- and adds the exponentials with counters
        count[i], count[i] + 1, ... in sequence, so a site's arrival times
        are the same floats however its reads are split into blocks or
        stacked with other rows.  Every argument is a 1-D array of one
        entry per row, or of one entry for all rows.  This is the only code
        that forms arrival sums.
        """
        e = rng.counter_exponential(seed[:, None], stream[:, None],
                                    count[:, None] + np.arange(width))
        sums = np.cumsum(np.concatenate([unit[:, None], e], axis=1), axis=1)[:, 1:]
        return sums, sums / lam[:, None]

    def advance(self, stream, lam, unit, count, time, t, seed, move) -> None:
        """Move each site that the mask `move` marks to its first arrival
        strictly after its row's time, in place.

        unit, count and time are rows x sites arrays, views allowed, read
        only in the mask's columns: a site's (unit, count) is the sum of its
        first `count` unit-rate exponentials, its count-th arrival in unit
        time ((0.0, 0) before its first), and its time, written and not
        read, is unit / lam.  stream and lam hold one entry per site, its
        stream id (`rng.site_stream`) and rate; t and seed one per row, its
        time and its replication's master seed.  The mask goes in
        `_mask_blocks`, and only the block in hand is gathered.
        """
        for cols, block, row, site in _mask_blocks(move):
            state = [a[:, cols] for a in (unit, count, time)]
            s_stream, s_lam, s_t, s_seed = stream[cols][site], lam[cols][site], t[row], seed[row]
            s_unit, s_count = state[0][block], state[1][block]
            s_time = s_unit / s_lam     # cheaper than a gather, and the same floats
            todo = np.flatnonzero((s_count == 0) | (s_time <= s_t))
            while len(todo):
                at = slice(None) if len(todo) == len(site) else todo   # views when all move
                # enough steps for most sites to pass t, within a bounded block
                need = max(float(np.max(s_lam[at] * (s_t[at] - s_time[at]))), 0.0)
                width = max(1, min(int(need + 2 * math.sqrt(need)) + 1, _BLOCK // len(todo)))
                sums, times = self._arrival_block(s_seed[at], s_stream[at], s_lam[at],
                                                  s_unit[at], s_count[at], width)
                past = times > s_t[at, None]
                k = np.where(past.any(axis=1), past.argmax(axis=1), width - 1)
                rows = np.arange(len(todo))
                s_unit[at], s_time[at] = sums[rows, k], times[rows, k]
                s_count[at] += k + 1
                todo = todo[s_time[todo] <= s_t[todo]]
            state[0][block], state[1][block], state[2][block] = s_unit, s_count, s_time

    def _first_arrivals(self, stream, lam, t, seed) -> list:
        """[unit, count, time] of each site's first arrival strictly after
        its row's time, as rows x sites arrays (see `advance`)."""
        shape = (len(t), len(stream))
        state = [np.zeros(shape), np.zeros(shape, dtype=np.int64), np.zeros(shape)]
        self.advance(stream, lam, *state, t, seed, np.ones(shape, dtype=bool))
        return state

    def vacancy_arrivals(self, stream, lam, k, t, seed):
        """Arrival that ends vacancy k of a site, begun at t: t + E / lam,
        E being counter k of the site's vacancy stream `stream`
        (`rng.vacancy_stream`) under master seed `seed`.  All arguments
        broadcast."""
        return t + rng.counter_exponential(seed, stream, k) / lam

    def arrivals_before(self, x: int, t: float) -> np.ndarray:
        """All arrival times of site x in [0, t], strictly increasing: the
        site's stream read in order, in blocks of 64 arrivals."""
        if t < 0:
            raise ValueError("t must be >= 0")
        lam, stream = self.config.profile.rates(x, x + 1), rng.site_stream(np.array([x]))
        seed = np.array([self.master_seed], dtype=np.uint64)
        unit, count = np.zeros(1), np.zeros(1, dtype=np.int64)
        times = np.empty(0)
        while not len(times) or times[-1] <= t:
            sums, block = self._arrival_block(seed, stream, lam, unit, count, 64)
            times = np.concatenate([times, block[0]])
            unit, count = sums[:, -1], count + 64
        return times[times <= t]

    def next_arrivals_after(self, start: int, stop: int, t: float) -> np.ndarray:
        """First arrival strictly after t for each site in [start, stop).

        With t = 0 these are the sites' first arrivals.
        """
        return self._first_arrivals(rng.site_stream(np.arange(start, stop)),
                                    self.config.profile.rates(start, stop), np.array([float(t)]),
                                    np.array([self.master_seed], dtype=np.uint64))[2][0]

    # ----- continuous -----------------------------------------------------
    def cells(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """Points of the unit cells [i0, i1) x [j0, j1) as an (n, 2) array,
        drawn in one pass, cell by cell, and not cached.

        Cell (i, j) has a Poisson(intensity) count n, the inversion of
        counter 0 of its stream, and point m (0 <= m < n) at position
        i + U(counter 1 + m) and time j + U(counter 1 + n + m).  Every draw
        is a pure function of (seed, stream, counter), so a cell's points
        do not depend on which other cells share its block.
        """
        if i0 >= i1 or j0 >= j1:
            return np.empty((0, 2))
        i, j = np.meshgrid(np.arange(i0, i1), np.arange(j0, j1), indexing="ij")
        i, j = i.ravel(), j.ravel()
        stream = rng.cell_stream(i, j)
        u = rng.counter_uniform(self.master_seed, stream, 0)
        n = np.minimum(np.searchsorted(_poisson_cdf(self.config.intensity), u, "left"),
                       _POISSON_KMAX)
        cell = np.repeat(np.arange(len(stream)), n)
        m = np.arange(len(cell)) - (np.cumsum(n) - n)[cell]
        pos = rng.counter_uniform(self.master_seed, stream[cell], 1 + m)
        time = rng.counter_uniform(self.master_seed, stream[cell], 1 + n[cell] + m)
        return np.column_stack([i[cell] + pos, j[cell] + time])

    def points_in(self, a: float, b: float, s: float, t: float) -> np.ndarray:
        """Points of the space-time Poisson process in [a,b] x [s,t].

        Returned as an (n, 2) array ordered by position; counts over
        disjoint regions are independent and window extension preserves
        previously returned points.
        """
        if a > b or s > t:
            raise ValueError("need a <= b and s <= t")
        if a == b or s == t:
            return np.empty((0, 2))
        pts = self.cells(int(np.floor(a)), int(np.floor(b)) + 1,
                         int(np.floor(s)), int(np.floor(t)) + 1)
        keep = (pts[:, 0] >= a) & (pts[:, 0] <= b) & (pts[:, 1] >= s) & (pts[:, 1] <= t)
        pts = pts[keep]
        return pts[np.lexsort((pts[:, 1], pts[:, 0]))]
