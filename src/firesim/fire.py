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

Advancing a burnt site through its stream draws every arrival it received
while occupied, which only that coupling needs.  The memoryless state,
`_Memoryless`, instead gives a site vacated at t its next arrival
t + Exp(lambda_x), one fresh draw per vacancy from a second per-site
stream.  Poisson arrivals are memoryless, so the burns have the same law;
distributional estimates use it, pathwise checks do not.

The continuous state, `green._Continuum`, has the same structure, and
`run_fire` drives both states through one loop.

Reach values can be right-censored at a window: a burn whose scan
exhausts the window is recorded with reach equal to the window size (on
the continuous model, the reach of its chain inside the window) and
flagged.  Everything the window covers stays exact, because burning [0, W]
has the same effect on sites <= W regardless of how far the true reach
extends.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

import numpy as np

from .green import DEFAULT_TIME_CAP, _Continuum, first_vacant_run
from .model import CapExceeded, ModelConfig, NoiseField

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
    if never burnt), so x is occupied at t iff that arrival is <= t,
    together with its cursor, its place in its noise stream: here the
    unit-time sum of its arrivals so far and their count.  The ignitions
    are site 0's arrivals, which the caller reads from the noise field;
    site 0's own entry is never read.  Sites are materialised in blocks
    only while the vacant-run scan needs more.
    """

    def __init__(self, noise: NoiseField, r: int, cap: int, t0: float):
        self.noise, self.r, self.cap, self.t0 = noise, r, cap, t0
        self.lam, *self.cursor, self.time = self._vacant(0, min(64, cap))

    def _vacant(self, lo: int, hi: int):
        """(lam, *cursor, time) of sites [lo, hi), all vacant at t0."""
        lam = self.noise.config.profile.rates(lo, hi)
        return (lam, *self.noise.advance(np.arange(lo, hi), lam, 0.0, 0, self.t0))

    def _advance(self, xs: np.ndarray, t: float) -> None:
        """Vacate the occupied sites xs at time t."""
        unit, count = self.cursor
        unit[xs], count[xs], self.time[xs] = self.noise.advance(
            xs, self.lam[xs], unit[xs], count[xs], t)

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
                state = (self.lam, *self.cursor, self.time)
                self.lam, *self.cursor, self.time = (
                    np.concatenate(pair) for pair in zip(state, self._vacant(len(self.time), m)))
        reach, censored = (cap, True) if j0 < 0 else (j0 + self.r - 1, False)
        self._advance(1 + np.flatnonzero(self.time[1:min(reach, cap - 1) + 1] <= t), t)
        return reach, censored

    def ignitions(self):
        """Ignition times after t0, in order: site 0's arrivals."""
        return self.noise.arrivals_after(0, self.t0)

    def restart(self, t: float) -> "_Lattice":
        """A copy of this state, restarted all-vacant at time t."""
        other = copy.copy(self)
        other.t0 = t
        other.cursor = [a.copy() for a in self.cursor]
        other.time = self.time.copy()
        other._advance(1 + np.flatnonzero(other.time[1:] <= t), t)
        return other


class _Memoryless(_Lattice):
    """The lattice state with the law of `_Lattice` but not its coupling.

    Each vacancy takes one fresh draw (see the module docstring): a site's
    cursor is its burns so far, k, and its vacancy k ends at its start plus
    draw k of its vacancy stream over lambda_x.  A run's floats therefore
    depend on (seed, site, k) only, not on how far sites are materialised.
    """

    def _vacant(self, lo: int, hi: int):
        lam = self.noise.config.profile.rates(lo, hi)
        burns = np.zeros(hi - lo, dtype=np.int64)
        return lam, burns, self.noise.vacancy_arrivals(np.arange(lo, hi), lam, burns, self.t0)

    def _advance(self, xs: np.ndarray, t: float) -> None:
        (burns,) = self.cursor
        burns[xs] += 1
        self.time[xs] = self.noise.vacancy_arrivals(xs, self.lam[xs], burns[xs], t)


def _window(config: ModelConfig, targets, reach_window, site_cap):
    """The scan cap: a window of about twice the largest target or
    `reach_window`, within site_cap; site_cap without either.  A lattice
    window is a power of two of at least 256 sites."""
    if not targets and reach_window is None:
        return site_cap
    if config.space == "continuous":
        return min(max(64.0, 2.0 * max(targets, default=0.0), reach_window or 0.0), site_cap)
    need = 256
    if targets:
        need = max(need, 2 * int(max(targets)) + 64)
    if reach_window is not None:
        need = max(need, int(reach_window))
    return min(1 << int(np.ceil(np.log2(need))), site_cap)


def run_fire(noise: NoiseField, config: ModelConfig, targets=(), *,
             time_cap: float = DEFAULT_TIME_CAP,
             reach_window: int | None = None,
             site_cap: int = DEFAULT_SITE_CAP,
             coupled: bool = True) -> FireTrace:
    """Simulate the fire process until every target is burnt (or a cap hits).

    With targets, the scan is capped at a window of about twice the largest
    target, and a burn that passes it is recorded censored at the window.
    With `reach_window` set, every burn reach is right-censored at that
    window; targets must then lie inside the window.  Otherwise a burn
    passing `site_cap` raises CapExceeded.  On the continuous model the
    window and caps are lengths.

    `coupled=False` runs the lattice on the memoryless state: the same law
    from about a tenth of the draws, but not a function of the site
    streams the green readers read, so for distributional estimates only.
    The continuous state reads each cell once either way, so there the
    switch changes nothing.
    """
    continuous = config.space == "continuous"
    targets = sorted({float(x) for x in targets} if continuous else set(targets))
    if targets and (targets[0] <= 0 if continuous else targets[0] < 1):
        raise ValueError("targets must be > 0" if continuous else "targets must be >= 1")
    cap = _window(config, targets, reach_window, site_cap)
    state = (_Continuum(noise, config, cap, time_cap) if continuous
             else (_Lattice if coupled else _Memoryless)(noise, config.r, cap, 0.0))
    trace = FireTrace()
    unmet = list(targets)
    u_max = 0
    for t in itertools.takewhile(lambda t: t <= time_cap, state.ignitions()):
        reach, censored = state.burn(t)
        if censored and reach_window is None and not (unmet and reach >= unmet[-1]):
            raise CapExceeded(f"window cap {cap} exceeded")
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
    cap = _window(config, [n_k], reach_window, DEFAULT_SITE_CAP)
    fire = _Lattice(noise, config.r, cap, 0.0)
    blue = None   # blue coincides with fire on cycle 1
    records: list[RenewalRecord] = []
    prev_t = 0.0
    for t in itertools.takewhile(lambda t: t <= time_cap, fire.ignitions()):
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
