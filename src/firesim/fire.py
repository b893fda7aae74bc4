"""Event-driven fire process, blue renewal process and arrival-gap events.

Fires never change when trees arrive, only whether they stand, and every
ignition -- an arrival at the origin -- burns a prefix [0, reach].  So the
whole lattice state is one number per site: its next arrival after its last
burn.  A site is occupied at time t iff that number is <= t, and site 0's
number is the next ignition.  The engine walks the ignitions in order,
materialises sites only as far as the vacant-run scan reaches, and after a
burn advances only the burnt, occupied sites.  The reach follows the same
vacant-run rule as the green process, which makes the fire/green
coincidence at record times exact.

Reach values can be right-censored at a site window: a burn whose scan
exhausts the window is recorded with reach equal to the window size and
flagged.  Everything the window covers stays exact, because burning [0, W]
has the same effect on sites <= W regardless of how far the true reach
extends.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

import numpy as np

from .green import first_vacant_run
from .model import CapExceeded, ModelConfig, NoiseField

DEFAULT_TIME_CAP = 1e4
DEFAULT_SITE_CAP = 1 << 22


@dataclass
class BurnEvent:
    time: float
    rightmost: float        # site index (discrete) or position (continuous)
    censored: bool = False  # rightmost is a lower bound (window-capped)


@dataclass
class FireTrace:
    """Burn history of one fire-process run."""

    events: list[BurnEvent] = field(default_factory=list)
    tau: dict = field(default_factory=dict)      # target -> first-burn time
    records: list[tuple[float, float]] = field(default_factory=list)  # (sigma_i, u_i)
    complete: bool = True    # all requested targets were reached in time
    censored: bool = False   # any event reach was window-capped

    def rightmost_by(self, t: float) -> float:
        """N(t): the rightmost point burnt by time t."""
        best = 0.0
        for ev in self.events:
            if ev.time <= t and ev.rightmost > best:
                best = ev.rightmost
        return best


@dataclass
class RenewalRecord:
    """Per-hit observables of the blue-process experiment."""

    i: int
    tau_i: float     # length of the i-th renewal cycle
    rho_i: float     # rightmost burnt by the blue process at the i-th hit
    rho_F_i: float   # rightmost burnt by the fire process at the i-th hit
    censored_B: bool = False   # rho_i right-censored at the window
    censored_F: bool = False   # rho_F_i right-censored at the window

    @property
    def censored(self) -> bool:
        return self.censored_B or self.censored_F


# ---------------------------------------------------------------------------
# discrete engine
# ---------------------------------------------------------------------------

class _Lattice:
    """Lazy state of the lattice fire process started all-vacant at t0.

    The state of site x is its next arrival after its last burn (after t0
    if never burnt), so x is occupied at t iff that arrival is <= t.  The
    ignitions are site 0's arrivals, which the caller reads from the noise
    field; site 0's own entry is never read.  Sites are materialised in
    blocks only while the vacant-run scan needs more.
    """

    def __init__(self, noise: NoiseField, r: int, cap: int, t0: float):
        self.noise, self.r, self.cap, self.t0 = noise, r, cap, t0
        self.lam, self.unit, self.count, self.time = self._vacant(0, min(64, cap))

    def _vacant(self, lo: int, hi: int):
        """(lam, unit, count, time) of sites [lo, hi), all vacant at t0."""
        lam = self.noise.config.profile.rates(lo, hi)
        return (lam, *self.noise.advance(np.arange(lo, hi), lam, 0.0, 0, self.t0))

    def _advance(self, xs: np.ndarray, t: float) -> None:
        self.unit[xs], self.count[xs], self.time[xs] = self.noise.advance(
            xs, self.lam[xs], self.unit[xs], self.count[xs], t)

    def burn(self, t: float) -> tuple[int, bool]:
        """Burn at ignition time t; returns (reach, censored).

        A scan that finds no vacant run among sites 1..cap-1 burns [0, cap)
        and reports reach `cap`, censored.  Only the burnt, occupied sites
        advance.
        """
        cap = self.cap
        m = min(64, cap)
        while True:
            j0 = first_vacant_run(self.time[1:m] > t, self.r)
            if j0 >= 0 or m == cap:
                break
            m = min(2 * m, cap)
            if m > len(self.time):
                state = (self.lam, self.unit, self.count, self.time)
                self.lam, self.unit, self.count, self.time = (
                    np.concatenate(pair) for pair in zip(state, self._vacant(len(self.time), m)))
        reach, censored = (cap, True) if j0 < 0 else (j0 + self.r - 1, False)
        self._advance(1 + np.flatnonzero(self.time[1:min(reach, cap - 1) + 1] <= t), t)
        return reach, censored

    def restart(self, t: float) -> "_Lattice":
        """A copy of this state, restarted all-vacant at time t."""
        other = copy.copy(self)
        other.t0 = t
        other.unit, other.count, other.time = self.unit.copy(), self.count.copy(), self.time.copy()
        other._advance(1 + np.flatnonzero(other.time[1:] <= t), t)
        return other


def _initial_window(targets, reach_window, site_cap) -> int:
    need = 256
    if targets:
        need = max(need, 2 * int(max(targets)) + 64)
    if reach_window is not None:
        need = max(need, int(reach_window))
    W = 1 << int(np.ceil(np.log2(need)))
    return min(W, site_cap)


def run_fire(noise: NoiseField, config: ModelConfig, targets=(), *,
             time_cap: float = DEFAULT_TIME_CAP,
             reach_window: int | None = None,
             site_cap: int = DEFAULT_SITE_CAP) -> FireTrace:
    """Simulate the fire process until every target is burnt (or a cap hits).

    With targets, the scan is capped at a window of about twice the largest
    target, and a burn that passes it is recorded censored at the window.
    With `reach_window` set, every burn reach is right-censored at that
    window; targets must then lie inside the window.  Otherwise a burn
    passing `site_cap` raises CapExceeded.
    """
    if config.space == "continuous":
        return _run_fire_continuous(noise, config, targets, time_cap=time_cap)
    targets = sorted(set(targets))
    if targets and targets[0] < 1:
        raise ValueError("targets must be >= 1")
    cap = (_initial_window(targets, reach_window, site_cap)
           if targets or reach_window is not None else site_cap)
    trace = FireTrace()
    unmet = list(targets)
    u_max = 0
    lattice = _Lattice(noise, config.r, cap, 0.0)
    for t in itertools.takewhile(lambda t: t <= time_cap, noise.arrivals_after(0, 0.0)):
        reach, censored = lattice.burn(t)
        if censored and reach_window is None and not (unmet and reach >= unmet[-1]):
            raise CapExceeded(f"site window cap {site_cap} exceeded")
        trace.events.append(BurnEvent(t, reach, censored))
        trace.censored = trace.censored or censored
        if reach > u_max:
            u_max = reach
            trace.records.append((t, reach))
        while unmet and unmet[0] <= reach:
            trace.tau[unmet.pop(0)] = t
        if targets and not unmet:
            return trace
    trace.complete = not unmet
    return trace


def run_blue_experiment(noise: NoiseField, config: ModelConfig, n_k: int,
                        cycles: int, *,
                        reach_window: int | None = None,
                        time_cap: float = DEFAULT_TIME_CAP) -> list[RenewalRecord]:
    """Fire/blue renewal experiment at threshold n_k.

    Runs the fire process, detecting the consecutive times it reaches n_k,
    and alongside it the blue process: the fire process restarted
    all-vacant at the previous hit, on the same noise.  Returns one
    RenewalRecord per hit.
    """
    if config.space == "continuous":
        raise NotImplementedError("blue experiment is defined for the lattice model")
    if cycles < 1 or n_k < 1:
        raise ValueError("need cycles >= 1 and n_k >= 1")
    if reach_window is None:
        reach_window = 64 * n_k
    cap = _initial_window([n_k], reach_window, DEFAULT_SITE_CAP)
    fire = _Lattice(noise, config.r, cap, 0.0)
    blue = None   # blue coincides with fire on cycle 1
    records: list[RenewalRecord] = []
    prev_t = 0.0
    for t in itertools.takewhile(lambda t: t <= time_cap, noise.arrivals_after(0, 0.0)):
        rho_F, cens_F = fire.burn(t)
        rho_B, cens_B = blue.burn(t) if blue else (rho_F, cens_F)
        if rho_F >= n_k:
            records.append(RenewalRecord(
                i=len(records) + 1, tau_i=t - prev_t, rho_i=rho_B, rho_F_i=rho_F,
                censored_B=cens_B, censored_F=cens_F))
            if len(records) == cycles:
                return records
            prev_t, blue = t, fire.restart(t)
    raise CapExceeded(f"only {len(records)} of {cycles} cycles before time cap {time_cap}")


def detect_gap_event(noise: NoiseField, config: ModelConfig, span, start: float,
                     duration: float) -> bool:
    """True iff some length-r site window (continuous: length-connect
    subinterval) inside (0, span] has no arrivals in [start, start+duration).

    This is the defining event of the renewal-obstruction in the coupling
    argument, evaluated on the green process restarted at `start`.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if duration == 0:
        return True
    if config.space == "discrete":
        span = int(span)
        if span < config.r:
            raise ValueError("span must be >= r")
        nxt = noise.next_arrivals_after(1, span + 1, start)
        quiet = nxt >= start + duration
        return first_vacant_run(quiet, config.r) >= 0
    pts = noise.points_in(0.0, float(span), start, start + duration)
    ts = pts[:, 1]
    xs = np.sort(pts[(ts >= start) & (ts < start + duration), 0])
    edges = np.concatenate([[0.0], xs, [float(span)]])
    return bool(np.max(np.diff(edges)) >= config.connect_distance)


# ---------------------------------------------------------------------------
# continuous engine
# ---------------------------------------------------------------------------

def _run_fire_continuous(noise: NoiseField, config: ModelConfig, targets, *,
                         time_cap: float, length_cap: float = 1e7) -> FireTrace:
    """Event-driven continuous fire: trees arrive, clusters touching the
    ignition zone burn instantly and are deleted."""
    import bisect

    targets = sorted(set(float(x) for x in targets))
    if targets and targets[0] <= 0:
        raise ValueError("targets must be > 0")
    connect, ignite = config.connect_distance, config.ignite_distance
    T = min(2.0 * np.log(max(targets) + 2) + 8.0, time_cap) if targets else time_cap
    L = 64.0 if not targets else max(64.0, 2.0 * max(targets))
    while True:
        if L > length_cap:
            raise CapExceeded(f"spatial window cap {length_cap} exceeded")
        pts = noise.points_in(0.0, L, 0.0, T)
        order = np.argsort(pts[:, 1], kind="stable")
        trace = FireTrace()
        unmet = list(targets)
        u_max = 0.0
        alive: list[float] = []
        grow_space = False
        for p, t in pts[order]:
            bisect.insort(alive, p)
            if p > ignite:
                continue
            # ignition: burn the cluster chained from the origin
            k = 0
            reach = alive[0]   # alive[0] <= p <= ignite
            while k + 1 < len(alive) and alive[k + 1] - alive[k] <= connect:
                k += 1
                reach = alive[k]
            if reach > L - connect:
                grow_space = True   # cluster might extend past the window
                break
            del alive[:k + 1]
            trace.events.append(BurnEvent(float(t), float(reach)))
            if reach > u_max:
                u_max = reach
                trace.records.append((float(t), float(reach)))
            while unmet and unmet[0] <= reach:
                trace.tau[unmet.pop(0)] = float(t)
            if targets and not unmet:
                return trace
        if grow_space:
            L *= 2
            continue
        if targets and unmet:
            if T < time_cap:
                T = min(2 * T, time_cap)
                continue
            trace.complete = False
        return trace
