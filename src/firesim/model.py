"""Rate profiles, model configuration and the shared Poisson noise field.

The noise field is the single source of randomness: every process (green,
fire, blue) is a deterministic functional of it, which is what makes the
pathwise coupling experiments possible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng


class CapExceeded(Exception):
    """A resource guard (site window, spatial window or time cap) was hit.

    Signals the cap, not a model error: callers may enlarge the cap and
    retry, or flag the replication as censored.
    """


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
                raise ValueError(
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


_BLOCK = 1 << 18   # most exponentials NoiseField.advance draws at once


def _filled(x, n: int, dtype) -> np.ndarray:
    """A new array of n entries of dtype, x broadcast into it."""
    out = np.empty(n, dtype=dtype)
    out[...] = x
    return out


class NoiseField:
    """Reproducible Poisson randomness shared by every coupled process.

    Discrete: site x's arrivals are the partial sums of unit-rate
    exponentials divided by lambda_x, exponential k being counter k of the
    stream of (master_seed, x).  Nothing is stored: a reader keeps, per
    site, the current partial sum and the count of exponentials in it, and
    `advance` moves those states forward; `arrivals_after` reads one site's
    stream in order.  Scaling every rate by c > 0 divides every arrival
    time by c pathwise.  `vacancy_arrivals` draws from a second stream per
    site, one exponential per vacancy, for readers that need only the law.
    Both take a master seed per site, so one call can serve sites of many
    replications (the lockstep lattice state of `fire`).

    Continuous: a space-time Poisson point set of the configured intensity,
    generated per unit cell from (master_seed, cell), so window growth
    never reshuffles previously exposed points.  `points_in` caches the
    cells it reads and draws the ones not cached yet together, in one
    block; `cells` draws a block of whole cells without caching them.
    """

    def __init__(self, master_seed: int, config: ModelConfig):
        self.master_seed = int(master_seed)
        self.config = config
        self._cells: dict[tuple[int, int], np.ndarray] = {}

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

    def advance(self, stream, lam, unit, count, t, seed=None):
        """Move each site to its first arrival strictly after t[i].

        The sites are 1-D arrays: stream[i] is site i's stream id
        (`rng.site_stream`), lam[i] its rate and (unit[i], count[i]) its
        state: the sum of its first count[i] unit-rate exponentials, i.e.
        its count[i]-th arrival in unit time, and (0.0, 0) before its first
        arrival.  seed[i] is the master seed of the site's replication,
        this field's by default.  unit, count, t and seed broadcast.
        Returns the new (unit, count, time) arrays, where time = unit / lam
        > t.
        """
        n = len(stream)
        seed = _filled(self.master_seed if seed is None else seed, n, np.uint64)
        t = _filled(t, n, float)
        unit = _filled(unit, n, float)
        count = _filled(count, n, np.int64)
        time = unit / lam
        todo = np.flatnonzero((count == 0) | (time <= t))
        while len(todo):
            at = slice(None) if len(todo) == n else todo   # views when all move
            # enough steps for most sites to pass t, within a bounded block
            need = max(float(np.max(lam[at] * (t[at] - time[at]))), 0.0)
            width = max(1, min(int(need + 2 * math.sqrt(need)) + 1, _BLOCK // len(todo)))
            sums, times = self._arrival_block(seed[at], stream[at], lam[at], unit[at],
                                              count[at], width)
            past = times > t[at, None]
            k = np.where(past.any(axis=1), past.argmax(axis=1), width - 1)
            rows = np.arange(len(todo))
            unit[at], time[at] = sums[rows, k], times[rows, k]
            count[at] += k + 1
            todo = todo[time[todo] <= t[todo]]
        return unit, count, time

    def vacancy_arrivals(self, stream, lam, k, t, seed=None):
        """Arrival that ends vacancy k of a site, begun at t: t + E / lam,
        E being counter k of the site's vacancy stream `stream`
        (`rng.vacancy_stream`) under master seed `seed`, this field's by
        default.  All arguments broadcast."""
        seed = self.master_seed if seed is None else seed
        return t + rng.counter_exponential(seed, stream, k) / lam

    def arrivals_after(self, x: int, t: float):
        """Arrival times of site x strictly after t, in order: an unbounded
        iterator that reads the stream in blocks as it is consumed."""
        lam, stream = self.config.profile.rates(x, x + 1), rng.site_stream(np.array([x]))
        seed = np.array([self.master_seed], dtype=np.uint64)
        unit, count = np.zeros(1), np.zeros(1, dtype=np.int64)
        while True:
            sums, times = self._arrival_block(seed, stream, lam, unit, count, 64)
            yield from times[0][times[0] > t].tolist()
            unit, count = sums[:, -1], count + 64

    def arrivals_before(self, x: int, t: float) -> np.ndarray:
        """All arrival times of site x in [0, t], strictly increasing."""
        if t < 0:
            raise ValueError("t must be >= 0")
        return np.array(list(itertools.takewhile(lambda a: a <= t, self.arrivals_after(x, 0.0))))

    def next_arrivals_after(self, start: int, stop: int, t: float) -> np.ndarray:
        """First arrival strictly after t for each site in [start, stop).

        With t = 0 these are the sites' first arrivals.
        """
        lam = self.config.profile.rates(start, stop)
        return self.advance(rng.site_stream(np.arange(start, stop)), lam, 0.0, 0, t)[2]

    # ----- continuous -----------------------------------------------------
    def _draw_cells(self, ij: np.ndarray):
        """Points of the unit cells ij (rows (i, j)), drawn in one pass, cell
        by cell, and each cell's count.

        Cell (i, j) has a Poisson(intensity) count n, the inversion of
        counter 0 of its stream, and point m (0 <= m < n) at position
        i + U(counter 1 + m) and time j + U(counter 1 + n + m).  Every draw
        is a pure function of (seed, stream, counter), so a cell's points
        do not depend on which other cells share its block.
        """
        stream = rng.cell_stream(ij[:, 0], ij[:, 1])
        u = rng.counter_uniform(self.master_seed, stream, 0)
        n = np.minimum(np.searchsorted(_poisson_cdf(self.config.intensity), u, "left"),
                       _POISSON_KMAX)
        cell = np.repeat(np.arange(len(ij)), n)
        m = np.arange(len(cell)) - (np.cumsum(n) - n)[cell]
        pos = rng.counter_uniform(self.master_seed, stream[cell], 1 + m)
        time = rng.counter_uniform(self.master_seed, stream[cell], 1 + n[cell] + m)
        return np.column_stack([ij[cell, 0] + pos, ij[cell, 1] + time]), n

    def cells(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """Points of the unit cells [i0, i1) x [j0, j1) as an (n, 2) array,
        drawn in one pass and not cached."""
        if i0 >= i1 or j0 >= j1:
            return np.empty((0, 2))
        i, j = np.meshgrid(np.arange(i0, i1), np.arange(j0, j1), indexing="ij")
        return self._draw_cells(np.column_stack([i.ravel(), j.ravel()]))[0]

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
        keys = list(itertools.product(range(int(np.floor(a)), int(np.floor(b)) + 1),
                                      range(int(np.floor(s)), int(np.floor(t)) + 1)))
        missing = [key for key in keys if key not in self._cells]
        if missing:
            pts, n = self._draw_cells(np.array(missing, dtype=np.int64))
            self._cells.update(zip(missing, np.split(pts, np.cumsum(n)[:-1])))
        pts = np.concatenate([self._cells[key] for key in keys])
        keep = (pts[:, 0] >= a) & (pts[:, 0] <= b) & (pts[:, 1] >= s) & (pts[:, 1] <= t)
        pts = pts[keep]
        return pts[np.lexsort((pts[:, 1], pts[:, 0]))]
