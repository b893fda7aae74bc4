"""Rate profiles, model configuration and the shared Poisson noise field.

The noise field is the single source of randomness: every process (green,
fire, blue) is a deterministic functional of it, which is what makes the
pathwise coupling experiments possible.
"""

from __future__ import annotations

import itertools
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


# Poisson sampling by counter-based inversion; cell means are O(1) so the
# sequential search terminates quickly.
def _cell_poisson_count(seed: int, stream, mean: float) -> int:
    u = rng.counter_uniform(seed, stream, 0)
    p = np.exp(-mean)
    acc = p
    k = 0
    while u > acc:
        k += 1
        p *= mean / k
        acc += p
        if k > 1000:   # mean is O(1); unreachable in practice
            break
    return k


_BLOCK = 1 << 18   # most exponentials NoiseField.advance draws at once


class NoiseField:
    """Reproducible Poisson randomness shared by every coupled process.

    Discrete: site x's arrivals are the partial sums of unit-rate
    exponentials divided by lambda_x, exponential k being counter k of the
    stream of (master_seed, x).  Nothing is stored: a reader keeps, per
    site, the current partial sum and the count of exponentials in it, and
    `advance` moves those states forward; `arrivals_after` reads one site's
    stream in order.  Scaling every rate by c > 0 divides every arrival
    time by c pathwise.

    Continuous: a unit-intensity space-time Poisson point set, generated per
    unit cell from (master_seed, cell), so window growth never reshuffles
    previously exposed points.
    """

    def __init__(self, master_seed: int, config: ModelConfig):
        self.master_seed = int(master_seed)
        self.config = config
        self._cells: dict[tuple[int, int], np.ndarray] = {}

    # ----- discrete -------------------------------------------------------
    def _arrival_block(self, xs, lam, unit, count, width: int):
        """Unit sums and times of the next `width` arrivals of each site.

        Row i starts from site xs[i]'s state (unit[i], count[i]) -- the sum
        of its first count[i] unit-rate exponentials -- and adds the
        exponentials with counters count[i], count[i] + 1, ... in sequence,
        so a site's arrival times are the same floats however its reads are
        split into blocks.  This is the only code that forms arrival sums.
        """
        e = rng.counter_exponential(self.master_seed, rng.site_stream(xs)[:, None],
                                    count[:, None] + np.arange(width))
        sums = np.cumsum(np.column_stack([unit, e]), axis=1)[:, 1:]
        return sums, sums / lam[:, None]

    def advance(self, xs, lam, unit, count, t: float):
        """Move each site xs[i] to its first arrival strictly after t.

        (unit[i], count[i]) is the site's state: the sum of its first
        count[i] unit-rate exponentials, i.e. its count[i]-th arrival in
        unit time, and (0.0, 0) before its first arrival (scalars
        broadcast); lam[i] is its rate.  Returns the new (unit, count,
        time) arrays, where time = unit / lam > t.
        """
        xs = np.asarray(xs)
        unit = np.broadcast_to(unit, xs.shape).astype(float)
        count = np.broadcast_to(count, xs.shape).astype(np.int64)
        time = unit / lam
        todo = np.flatnonzero((count == 0) | (time <= t))
        while len(todo):
            # enough steps for most sites to pass t, within a bounded block
            need = max(float(np.max(lam[todo] * (t - time[todo]))), 0.0)
            width = max(1, min(int(need + 2 * np.sqrt(need)) + 1, _BLOCK // len(todo)))
            sums, times = self._arrival_block(xs[todo], lam[todo], unit[todo],
                                              count[todo], width)
            past = times > t
            k = np.where(past.any(axis=1), past.argmax(axis=1), width - 1)
            rows = np.arange(len(todo))
            unit[todo], time[todo] = sums[rows, k], times[rows, k]
            count[todo] += k + 1
            todo = todo[time[todo] <= t]
        return unit, count, time

    def arrivals_after(self, x: int, t: float):
        """Arrival times of site x strictly after t, in order: an unbounded
        iterator that reads the stream in blocks as it is consumed."""
        lam = self.config.profile.rates(x, x + 1)
        unit, count = np.zeros(1), np.zeros(1, dtype=np.int64)
        while True:
            sums, times = self._arrival_block(np.array([x]), lam, unit, count, 64)
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
        return self.advance(np.arange(start, stop), lam, 0.0, 0, t)[2]

    # ----- continuous -----------------------------------------------------
    def _cell_points(self, i: int, j: int) -> np.ndarray:
        """(n, 2) array of (position, time) points of unit cell (i, j)."""
        key = (i, j)
        pts = self._cells.get(key)
        if pts is None:
            stream = rng.cell_stream(i, j)
            n = _cell_poisson_count(self.master_seed, stream, self.config.intensity)
            if n == 0:
                pts = np.empty((0, 2))
            else:
                c = np.arange(1, 2 * n + 1)
                u = np.atleast_1d(rng.counter_uniform(self.master_seed, stream, c))
                pts = np.column_stack([i + u[:n], j + u[n:]])
            self._cells[key] = pts
        return pts

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
        blocks = []
        for i in range(int(np.floor(a)), int(np.floor(b)) + 1):
            for j in range(int(np.floor(s)), int(np.floor(t)) + 1):
                pts = self._cell_points(i, j)
                if len(pts):
                    blocks.append(pts)
        if not blocks:
            return np.empty((0, 2))
        pts = np.concatenate(blocks)
        keep = (pts[:, 0] >= a) & (pts[:, 0] <= b) & (pts[:, 1] >= s) & (pts[:, 1] <= t)
        pts = pts[keep]
        return pts[np.lexsort((pts[:, 1], pts[:, 0]))]
