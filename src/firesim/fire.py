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

Lattice replications run in lockstep: a lattice state holds R
replications as rows x sites arrays, one master seed per row.  Each step
takes the next ignition of every live row, runs one vacant-run scan over
all rows, advances the burnt, occupied sites of all rows in one draw and
drops the rows that finished.  Every draw is a pure function of (row seed,
site, draw index) and every arrival sum is formed along its own row, so a
row's floats are those of its run alone.  `run_fires` runs a list of
lattice replications this way, in blocks of rows bounded by a cell
budget, and a lattice `run_fire` is the batch of one.  The continuous
state, `green._Continuum`, has the same structure and runs in `run_fire`
as a one-row state through the same loop, one replication at a time.

Reach values can be right-censored at a window: a burn whose scan
exhausts the window is recorded with reach equal to the window size (on
the continuous model, the reach of its chain inside the window) and
flagged.  Everything the window covers stays exact, because burning [0, W]
has the same effect on sites <= W regardless of how far the true reach
extends.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import rng
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

_CELLS = 1 << 16   # sites x rows a lattice state may hold: rows <= _CELLS // window
_DRAW = 1 << 13    # burnt sites one draw takes, unless one row burns more


def _first_runs(vacant: np.ndarray, r: int) -> np.ndarray:
    """Per row of the 2-D `vacant`, the 0-based index of its first run of r
    consecutive True; -1 where the row holds none."""
    n = vacant.shape[1] - r + 1
    if n <= 0:
        return np.full(len(vacant), -1)
    run = vacant[:, :n]
    for k in range(1, r):
        run = run & vacant[:, k:k + n]
    return np.where(run.any(axis=1), run.argmax(axis=1), -1)


class _Lattice:
    """Lazy states of R replications of the lattice fire process, started
    all-vacant at t0 and stepped in lockstep.

    Row i runs on noises[i]'s master seed.  The state of site x in a row is
    its next arrival after its last burn (after t0 if never burnt), so x is
    occupied at t iff that arrival is <= t, together with its cursor, its
    place in its noise stream: here the unit-time sum of its arrivals so
    far and their count.  Sites are materialised, for every row at once,
    in blocks only while the vacant-run scan needs more; their rates and
    stream ids are kept per site.  The ignitions are site 0's arrivals from
    time 0, read for all rows together in blocks of 64; site 0's own entry
    is never read.  Every row's floats are pure in (its seed, site, draw
    index), so a row equals its run alone.
    """

    def __init__(self, noises: list[NoiseField], r: int, cap: int, t0: float):
        self.noise, self.r, self.cap, self.t0 = noises[0], r, cap, t0
        self.seed = np.array([noise.master_seed for noise in noises], dtype=np.uint64)
        self.lam, self.stream, *self.cursor, self.time = self._vacant(0, min(64, cap))
        # site 0's arrivals: the current block of 64 per row and its last unit sum
        self.steps, self.ignitions = 0, np.empty((len(noises), 64))
        self.ignition_unit = np.zeros(len(noises))

    @property
    def rows(self) -> int:
        return len(self.seed)

    def _vacant(self, lo: int, hi: int):
        """(lam, stream, *cursor, time) of sites [lo, hi), all vacant at t0;
        lam and stream per site, cursor and time per row and site."""
        lam = self.noise.config.profile.rates(lo, hi)
        stream = rng.site_stream(np.arange(lo, hi))
        shape = (self.rows, hi - lo)
        state = self.noise.advance(np.broadcast_to(stream, shape).ravel(),
                                   np.broadcast_to(lam, shape).ravel(), 0.0, 0, self.t0,
                                   np.broadcast_to(self.seed[:, None], shape).ravel())
        return (lam, stream, *(a.reshape(shape) for a in state))

    def _marked(self, rows: slice, burnt: np.ndarray, t: np.ndarray):
        """Views of cursor and time over `rows` and sites 1..w, with the
        stream id, rate, time and seed of each site that `burnt` (those
        rows x sites 1..w) marks, in the mask's row-major order; t holds
        the rows' times."""
        w = burnt.shape[1]
        row, site = np.divmod(np.flatnonzero(burnt), w)
        site += 1
        return ([a[rows, 1:w + 1] for a in self.cursor], self.time[rows, 1:w + 1],
                self.stream[site], self.lam[site], t[row], self.seed[rows][row])

    def _advance(self, rows: slice, burnt: np.ndarray, t: np.ndarray) -> None:
        """Vacate the occupied sites that `burnt` (`rows` x sites 1..w)
        marks, each at its row's time in t."""
        (unit, count), time, stream, lam, t, seed = self._marked(rows, burnt, t)
        unit[burnt], count[burnt], time[burnt] = self.noise.advance(
            stream, lam, unit[burnt], count[burnt], t, seed)

    def _vacate(self, burnt: np.ndarray, t: np.ndarray) -> None:
        """`_advance` the sites `burnt` (rows x sites 1..w) marks, in groups
        of rows that burn at most _DRAW sites or are one row, so that the
        draws' temporaries stay bounded."""
        group = max(1, _DRAW // burnt.shape[1])
        for lo in range(0, len(t), group):
            part = burnt[lo:lo + group]
            if part.any():
                self._advance(slice(lo, lo + group), part, t[lo:lo + group])

    def _grow(self, width: int) -> None:
        """Materialise sites up to `width` in every row, drawing at most
        _DRAW sites at once and copying one array at a time."""
        step = max(1, _DRAW // self.rows)
        lam, stream, *cursor, time = zip(*(self._vacant(lo, min(lo + step, width))
                                           for lo in range(self.time.shape[1], width, step)))
        self.lam = np.concatenate([self.lam, *lam])
        self.stream = np.concatenate([self.stream, *stream])
        self.cursor = [np.concatenate([old, *new], axis=1)
                       for old, new in zip(self.cursor, cursor)]
        self.time = np.concatenate([self.time, *time], axis=1)

    def ignite(self) -> np.ndarray:
        """The next ignition time of every row: step s reads arrival s of
        site 0, in blocks of 64 for all rows at once."""
        j = self.steps % 64
        if j == 0:
            sums, self.ignitions = self.noise._arrival_block(
                self.seed, rng.site_stream(np.zeros(1, dtype=np.int64)), self.lam[:1],
                self.ignition_unit, np.array([self.steps]), 64)
            self.ignition_unit = sums[:, -1]
        self.steps += 1
        return self.ignitions[:, j]

    def burn(self, t: np.ndarray) -> tuple[list, list]:
        """Burn row i at its ignition time t[i]; returns the lists (reach,
        censored) of the rows.

        A scan that finds no vacant run among sites 1..cap-1 burns [0, cap)
        and reports reach `cap`, censored.  Only the burnt, occupied sites
        advance, all rows together in draws of at most _DRAW sites (or one
        row).
        """
        cap, r = self.cap, self.r
        m = min(64, cap)
        j0 = _first_runs(self.time[:, 1:m] > t[:, None], r)
        censored = j0 < 0
        if censored.any():
            todo = np.flatnonzero(censored)
            while len(todo) and m < cap:
                m = min(2 * m, cap)
                if m > self.time.shape[1]:
                    self._grow(m)
                j0[todo] = _first_runs(self.time[todo, 1:m] > t[todo, None], r)
                todo = todo[j0[todo] < 0]
            censored = j0 < 0
        last = np.where(censored, cap - 1, j0 + (r - 1))   # the last site burnt
        reach = last + censored
        width = int(last.max())
        burnt = self.time[:, 1:width + 1] <= t[:, None]
        if last.min() < width:
            burnt &= np.arange(1, width + 1) <= last[:, None]
        if width:
            self._vacate(burnt, t)
        return reach.tolist(), censored.tolist()

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows where the mask `rows` is True."""
        self.seed, self.time = self.seed[rows], self.time[rows]
        self.cursor = [a[rows] for a in self.cursor]
        self.ignitions, self.ignition_unit = self.ignitions[rows], self.ignition_unit[rows]

    def restart(self, t: float) -> "_Lattice":
        """A copy of this state, restarted all-vacant at time t."""
        other = copy.copy(self)
        other.t0 = t
        other.cursor = [a.copy() for a in self.cursor]
        other.time = self.time.copy()
        other._vacate(other.time[:, 1:] <= t, np.full(self.rows, t))
        return other


class _Memoryless(_Lattice):
    """The lattice state with the law of `_Lattice` but not its coupling.

    Each vacancy takes one fresh draw (see the module docstring): a site's
    cursor is its burns so far, k, and its vacancy k ends at its start plus
    draw k of its vacancy stream over lambda_x.  A row's floats therefore
    depend on (seed, site, k) only, not on how far sites are materialised.
    """

    def _vacant(self, lo: int, hi: int):
        lam = self.noise.config.profile.rates(lo, hi)
        stream = rng.vacancy_stream(np.arange(lo, hi))
        burns = np.zeros((self.rows, hi - lo), dtype=np.int32)
        return lam, stream, burns, self.noise.vacancy_arrivals(
            stream, lam, 0, self.t0, self.seed[:, None])

    def _advance(self, rows: slice, burnt: np.ndarray, t: np.ndarray) -> None:
        (burns,), time, stream, lam, t, seed = self._marked(rows, burnt, t)
        k = burns[burnt] + 1
        burns[burnt] = k
        time[burnt] = self.noise.vacancy_arrivals(stream, lam, k, t, seed)


class _OneRow:
    """The continuous state, `green._Continuum`, as a one-row state of the
    lockstep step interface; once its ignitions run out, the next is inf.
    Its one row is never dropped: the loop ends when it finishes."""

    rows = 1

    def __init__(self, state: _Continuum):
        self.state, self.times = state, state.ignitions()

    def ignite(self) -> np.ndarray:
        return np.array([next(self.times, np.inf)])

    def burn(self, t: np.ndarray) -> tuple[list, list]:
        reach, censored = self.state.burn(t.item())
        return [reach], [censored]


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


def _keep(state, live: list, keep: np.ndarray) -> list:
    """Drop the state rows where `keep` is False; returns their new labels."""
    state.keep(keep)
    return [row for row, kept in zip(live, keep) if kept]


def _run_rows(state, targets: list, time_cap: float, reach_window, cap) -> list:
    """Step every row of `state` through its ignitions up to time_cap until
    its targets are burnt; one FireTrace per row, or the CapExceeded that
    ended it.  Rows that finish are dropped from the state while others
    go on; the loop ends when all have finished."""
    traces: list = [FireTrace() for _ in range(state.rows)]
    unmet = [list(targets) for _ in traces]
    u_max = [0] * len(traces)
    live = list(range(len(traces)))    # the trace index of each state row
    while live:
        t = state.ignite()
        ts = t.tolist()
        if max(ts) > time_cap:
            for row, ti in zip(live, ts):
                if ti > time_cap:
                    traces[row].complete = not unmet[row]
            if min(ts) > time_cap:
                break
            on = t <= time_cap
            live, t = _keep(state, live, on), t[on]
            ts = t.tolist()
        reach, censored = state.burn(t)
        done = []      # positions of the rows that finished at this step
        for i, (row, ti, ri, ci) in enumerate(zip(live, ts, reach, censored)):
            trace, todo = traces[row], unmet[row]
            if ci and reach_window is None and not (todo and ri >= todo[-1]):
                traces[row] = CapExceeded(f"window cap {cap} exceeded")
                done.append(i)
                continue
            trace.events.append(BurnEvent(ti, ri, ci))
            trace.censored = trace.censored or ci
            if ri > u_max[row]:
                u_max[row] = ri
                trace.records.append((ti, ri))
            while todo and todo[0] <= ri:
                trace.tau[todo.pop(0)] = ti
            if targets and not todo:
                done.append(i)
        if len(done) == len(live):
            break
        if done:
            going = np.ones(len(live), dtype=bool)
            going[done] = False
            live = _keep(state, live, going)
    return traces


def _targets_and_window(config: ModelConfig, targets, reach_window, site_cap):
    """The sorted, checked targets and the scan cap of a run."""
    continuous = config.space == "continuous"
    targets = sorted({float(x) for x in targets} if continuous else set(targets))
    if targets and (targets[0] <= 0 if continuous else targets[0] < 1):
        raise ValueError("targets must be > 0" if continuous else "targets must be >= 1")
    return targets, _window(config, targets, reach_window, site_cap)


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
    switch changes nothing.  On the lattice this is `run_fires` on one
    replication.
    """
    if config.space == "continuous":
        targets, cap = _targets_and_window(config, targets, reach_window, site_cap)
        (trace,) = _run_rows(_OneRow(_Continuum(noise, config, cap, time_cap)),
                             targets, time_cap, reach_window, cap)
    else:
        (trace,) = run_fires([noise], config, targets, time_cap=time_cap,
                             reach_window=reach_window, site_cap=site_cap, coupled=coupled)
    if isinstance(trace, CapExceeded):
        raise trace
    return trace


def run_fires(noises, config: ModelConfig, targets=(), *,
              time_cap: float = DEFAULT_TIME_CAP,
              reach_window: int | None = None,
              site_cap: int = DEFAULT_SITE_CAP,
              coupled: bool = True) -> list:
    """`run_fire` on each noise field of the sequence `noises` (all of
    `config`): one FireTrace per replication, in order, or the CapExceeded
    its run raised.

    Lattice replications run in lockstep, in blocks of at most
    _CELLS // window rows: each step ignites every live row, scans and burns
    them together and drops the rows that finished.  Each row gets the
    floats of its run alone.  The continuous state has no lockstep form, so
    each continuous replication is one `run_fire` call, the unit in which
    perfbench's tracer counts runs, burn events and failures.
    """
    kwargs = dict(time_cap=time_cap, reach_window=reach_window, site_cap=site_cap)
    if config.space == "continuous":
        out = []
        for noise in noises:
            try:
                out.append(run_fire(noise, config, targets, **kwargs))
            except CapExceeded as exc:
                out.append(exc)
        return out
    targets, cap = _targets_and_window(config, targets, reach_window, site_cap)
    block = max(1, _CELLS // cap)
    kind = _Lattice if coupled else _Memoryless
    return [res for lo in range(0, len(noises), block)
            for res in _run_rows(kind(noises[lo:lo + block], config.r, cap, 0.0),
                                 targets, time_cap, reach_window, cap)]


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

    def burn(state, t):
        (reach,), (censored,) = state.burn(t)
        return reach, censored

    fire = _Lattice([noise], config.r, cap, 0.0)
    blue = None   # blue coincides with fire on cycle 1
    records: list[RenewalRecord] = []
    prev_t = 0.0
    while (t := fire.ignite())[0] <= time_cap:   # t: the one row's ignition
        rho_F, cens_F = burn(fire, t)
        rho_B, cens_B = burn(blue, t) if blue else (rho_F, cens_F)
        if rho_F >= n_k:
            t = t.item()
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
