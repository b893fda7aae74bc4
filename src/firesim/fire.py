"""Event-driven fire process, blue renewal process and arrival-gap events.

Fires never change when trees arrive, only whether they stand, and every
ignition -- an arrival at the origin -- burns a prefix [0, reach].  So the
whole lattice state is one number per site: its next arrival after its last
burn.  A site is occupied at time t iff that number is <= t, and site 0's
number is the next ignition.  The engine walks the ignitions in order,
materialises sites only as far as the vacant-run scan reaches, and after a
burn advances only the burnt, occupied sites.  The reach follows the same
vacant-run rule as the green process, through the one scan
`green.first_vacant_run`, which makes the fire/green coincidence at
record times exact.

Advancing a burnt site through its stream draws every arrival it received
while occupied, which only that coupling needs.  The memoryless state,
`_Memoryless`, instead gives a site vacated at t its next arrival
t + Exp(lambda_x), one fresh draw per vacancy from a second per-site
stream.  Poisson arrivals are memoryless, so the burns have the same law;
distributional estimates use it, pathwise checks do not.

Lattice replications run in lockstep: a lattice state holds R
replications as rows x sites arrays, one master seed per row.  Each step
takes the next ignition of every live row, runs one vacant-run scan over
all rows, advances the burnt, occupied sites of all rows in one call and
drops the rows that finished.  Every draw is a pure function of (row seed,
site, draw index) and every arrival sum is formed along its own row, so a
row's floats are those of its run alone.  `run_fires` runs a list of
lattice replications this way, in blocks of rows bounded by a cell budget,
and a lattice `run_fire` is the batch of one.  `run_blue_experiments` runs
renewal replications so, each as a fire row and its blue twin (`_Paired`),
and advances a site both burn at one ignition once; `run_blue_experiment`
is its batch of one.  The continuous state, `green._Continuum`, is itself
a one-row state of the same step interface, which `run_fire` hands to the
same loop, one replication at a time.  A run without targets only marks
the trees it burns and keeps its state on the trace, which then reads the
green process of the same noise, as `experiments.validate_prop1` does.

Reach values can be right-censored at a window: a burn whose scan
exhausts the window is recorded with reach equal to the window size (on
the continuous model, the reach of its chain inside the window) and
flagged.  Everything the window covers stays exact, because burning [0, W]
has the same effect on sites <= W regardless of how far the true reach
extends.  A fire run's window comes from its targets, about twice the
largest, so one run to the largest target gives every smaller target's
first-burn time; a blue run's comes from n_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .green import DEFAULT_SITE_CAP, DEFAULT_TIME_CAP, _Continuum, first_vacant_run
from .model import CapExceeded, ModelConfig, NoiseField, _mask_blocks


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
    state: object = field(default=None, compare=False)  # of a continuous run without targets

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


# ---------------------------------------------------------------------------
# discrete engine
# ---------------------------------------------------------------------------

_CELLS = 1 << 16   # sites x rows a lattice state may hold: rows <= _CELLS // window
_PAIRS = 8         # most fire/blue pairs a paired state steps in lockstep


class _Lattice:
    """Lazy states of R replications of the lattice fire process, stepped
    in lockstep.

    Row i runs on noises[i]'s master seed, every row on their one model
    (ValueError for noise fields of several models), and starts all-vacant
    at its t0, time 0 unless `_Paired.restart` sets it.  The state of site x
    in a row is its next arrival after its last burn (after t0 if never
    burnt), so x is occupied at t iff that arrival is <= t, together with
    its cursor, its place in its noise stream: here the unit-time sum of its
    arrivals so far and their count.  Sites are materialised, for every row
    at once, in blocks only while the vacant-run scan needs more; their
    rates and stream ids are kept per site.  The ignitions are site 0's
    arrivals from time 0, read for all rows together in blocks of 64; site
    0's own entry is never read.  Every row's floats are pure in (its seed,
    site, draw index), so a row equals its run alone.  `NoiseField.advance`
    moves burnt sites in place and bounds the draws and gathers a step takes.
    """

    def __init__(self, noises: list[NoiseField], cap: int):
        config = noises[0].config
        if any(noise.config is not config and noise.config != config for noise in noises):
            raise ValueError("the noise fields of one lattice state need one model")
        self.noise, self.r, self.cap = noises[0], config.r, cap
        self.seed = np.array([noise.master_seed for noise in noises], dtype=np.uint64)
        self.t0 = np.zeros(len(noises))
        self.lam, self.stream, *self.cursor, self.time = self._vacant(0, min(64, cap))
        # site 0's arrivals: the current block of 64 per row and its last unit sum
        self.steps, self.ignitions = 0, np.empty((len(noises), 64))
        self.ignition_unit = np.zeros(len(noises))

    @property
    def rows(self) -> int:
        return len(self.seed)

    def _vacant(self, lo: int, hi: int):
        """(lam, stream, *cursor, time) of sites [lo, hi), vacant at each
        row's t0; lam and stream per site, cursor and time per row and site."""
        lam = self.noise.config.profile.rates(lo, hi)
        stream = rng.site_stream(np.arange(lo, hi))
        return (lam, stream, *self.noise._first_arrivals(stream, lam, self.t0, self.seed))

    def _advance(self, burnt: np.ndarray, t: np.ndarray) -> None:
        """Vacate the occupied sites that `burnt` (rows x sites 1..w) marks,
        each at its row's time in t."""
        state = [a[:, 1:] for a in (*self.cursor, self.time)]
        self.noise.advance(self.stream[1:], self.lam[1:], *state, t, self.seed, burnt)

    def _grow(self, width: int) -> None:
        """Materialise sites up to `width` in every row."""
        lam, stream, *cursor, time = self._vacant(self.time.shape[1], width)
        self.lam = np.concatenate([self.lam, lam])
        self.stream = np.concatenate([self.stream, stream])
        self.cursor = [np.concatenate(pair, axis=1) for pair in zip(self.cursor, cursor)]
        self.time = np.concatenate([self.time, time], axis=1)

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
        advance, all rows together in one `NoiseField.advance` call.
        """
        cap, r = self.cap, self.r
        m = min(64, cap)
        while True:    # until every row has a run in sites 1..m-1, or m is the cap
            j0 = first_vacant_run(self.time[:, 1:m] > t[:, None], r)
            if m == cap or j0.min() >= 0:
                break
            m = min(2 * m, cap)
            if m > self.time.shape[1]:
                self._grow(m)
        censored = j0 < 0
        last = np.where(censored, cap - 1, j0 + (r - 1))   # the last site burnt
        reach = last + censored
        width = int(last.max())
        burnt = self.time[:, 1:width + 1] <= t[:, None]
        if last.min() < width:
            burnt &= np.arange(1, width + 1) <= last[:, None]
        if width:
            self._advance(burnt, t)
        return reach.tolist(), censored.tolist()

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows where the mask `rows` is True."""
        self.seed, self.t0, self.time = self.seed[rows], self.t0[rows], self.time[rows]
        self.cursor = [a[rows] for a in self.cursor]
        self.ignitions, self.ignition_unit = self.ignitions[rows], self.ignition_unit[rows]


class _Memoryless(_Lattice):
    """The lattice state with the law of `_Lattice` but not its coupling.

    Each vacancy takes one fresh draw (see the module docstring): a site's
    cursor is its burns so far, k, and its vacancy k ends at its start plus
    draw k of its vacancy stream over lambda_x, drawn in the column blocks
    of `model._mask_blocks`.  So a row's floats depend on (seed, site, k)
    only, not on how far sites are materialised or on the blocks.
    """

    def _vacant(self, lo: int, hi: int):
        lam = self.noise.config.profile.rates(lo, hi)
        stream = rng.vacancy_stream(np.arange(lo, hi))
        burns = np.zeros((self.rows, hi - lo), dtype=np.int32)
        return lam, stream, burns, self.noise.vacancy_arrivals(
            stream, lam, 0, self.t0[:, None], self.seed[:, None])

    def _advance(self, burnt: np.ndarray, t: np.ndarray) -> None:
        for cols, block, row, site in _mask_blocks(burnt):
            burns, time = self.cursor[0][:, 1:][:, cols], self.time[:, 1:][:, cols]
            site += cols.start + 1
            stream, lam, t_row, seed = self.stream[site], self.lam[site], t[row], self.seed[row]
            del row, site    # freed before the draw, which peaks with its temporaries
            k = burns[block] + 1
            burns[block] = k
            time[block] = self.noise.vacancy_arrivals(stream, lam, k, t_row, seed)


class _Paired(_Lattice):
    """R fire rows followed by their R blue twins, on the coupled state.

    Blue row R + i has fire row i's seed, so the twins ignite together, and
    `restart` makes it fire row i restarted all-vacant at a hit.  A site
    both twins burn at one ignition t holds in each an arrival of one stream
    at or before t, and a stream's partial sums are the same floats however
    reached, so both move it to one first arrival after t: `_advance` draws
    it for the fire row and copies it into the blue row.
    """

    def __init__(self, noises: list[NoiseField], cap: int):
        super().__init__([*noises, *noises], cap)

    def _advance(self, burnt: np.ndarray, t: np.ndarray) -> None:
        half, w = self.rows // 2, burnt.shape[1]
        both = burnt[:half] & burnt[half:]
        super()._advance(np.concatenate([burnt[:half], burnt[half:] & ~burnt[:half]]), t)
        for a in (*self.cursor, self.time):
            a[half:, 1:w + 1][both] = a[:half, 1:w + 1][both]

    def restart(self, pairs: np.ndarray, t: np.ndarray) -> None:
        """Overwrite the blue row of each pair in `pairs` with its fire row
        and vacate its occupied sites at that pair's time in t.  Sites it
        materialises later start vacant at that time."""
        blue = self.rows // 2 + pairs
        for a in (*self.cursor, self.time):
            a[blue] = a[pairs]
        self.t0[blue] = t
        burnt = np.zeros((self.rows, self.time.shape[1] - 1), dtype=bool)
        burnt[blue] = self.time[blue, 1:] <= t[:, None]
        self._advance(burnt, self.t0)


def _window(config: ModelConfig, targets, reach_window: int):
    """The scan cap: a window of about twice the largest target, within
    DEFAULT_SITE_CAP; DEFAULT_SITE_CAP without targets.  A lattice window
    is a power of two of at least 256 sites and of at least `reach_window`,
    which only a blue run sets above 0."""
    if not targets:
        return DEFAULT_SITE_CAP
    if config.space == "continuous":
        return min(max(64.0, 2.0 * max(targets)), DEFAULT_SITE_CAP)
    need = max(256, 2 * int(max(targets)) + 64, reach_window)
    return min(1 << int(np.ceil(np.log2(need))), DEFAULT_SITE_CAP)


def _keep(state, live: list, keep: np.ndarray) -> list:
    """Drop the state rows where `keep` is False; returns the labels of `live` kept."""
    state.keep(keep)
    return [row for row, kept in zip(live, keep) if kept]


def _run_rows(state, targets: list, time_cap: float, cap) -> list:
    """Step every row of `state` through its ignitions up to time_cap until
    its targets are burnt; one FireTrace per row, or the CapExceeded that
    ended it: a censored burn that does not meet every target left.  Rows
    that finish are dropped from the state while others go on; the loop
    ends when all have finished."""
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
            if ci and not (todo and ri >= todo[-1]):
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


def _targets_and_window(config: ModelConfig, targets):
    """The sorted, checked targets and the scan cap of a run."""
    continuous = config.space == "continuous"
    targets = sorted({float(x) for x in targets} if continuous else set(targets))
    if targets and (targets[0] <= 0 if continuous else targets[0] < 1):
        raise ValueError("targets must be > 0" if continuous else "targets must be >= 1")
    return targets, _window(config, targets, 0)


def run_fire(noise: NoiseField, targets=(), *, time_cap: float = DEFAULT_TIME_CAP,
             coupled: bool = True) -> FireTrace:
    """Simulate the fire process of `noise` until every target is burnt (or a cap hits).

    The targets set the window: the scan is capped at about twice the
    largest target, within DEFAULT_SITE_CAP, and a burn that passes it is
    recorded censored at the window, where it meets every target.  Every
    burn before tau_x reaches below x, so a run to several targets gives
    each the tau_x of a run to x alone.  Without targets a burn passing
    DEFAULT_SITE_CAP, read at call time, raises CapExceeded.  On the
    continuous model the window and cap are lengths; without targets a
    state past `green._TREES` trees raises too, and the trace keeps it
    (`state`) to read the green process of the same noise.

    `coupled=False` runs the lattice on the memoryless state: the same law
    from about a tenth of the draws, but not a function of the site
    streams the green readers read, so for distributional estimates only.
    The continuous state reads each cell once either way, so there the
    switch changes nothing.  On the lattice this is `run_fires` on one
    replication.
    """
    continuous = noise.config.space == "continuous"
    if continuous:
        targets, cap = _targets_and_window(noise.config, targets)
        state = _Continuum(noise, cap, time_cap, keep_burnt=not targets)
        (trace,) = _run_rows(state, targets, time_cap, cap)
    else:
        (trace,) = run_fires([noise], targets, time_cap=time_cap, coupled=coupled)
    if isinstance(trace, CapExceeded):
        raise trace
    if continuous and not targets:
        trace.state = state
    return trace


def run_fires(noises, targets=(), *, time_cap: float = DEFAULT_TIME_CAP,
              coupled: bool = True) -> list:
    """`run_fire` on each noise field of the sequence `noises`, all of one
    model: one FireTrace per replication, in order, or the CapExceeded its
    run raised; [] for no noise fields, ValueError for lattice fields of
    several models.

    Lattice replications run in lockstep, in blocks of at most
    _CELLS // window rows: each step ignites every live row, scans and burns
    them together and drops the rows that finished.  Each row gets the
    floats of its run alone.  The continuous state has no lockstep form, so
    each continuous replication is one `run_fire` call, the unit in which
    perfbench's tracer counts runs, burn events and failures.
    """
    if not noises:
        return []
    config = noises[0].config
    if config.space == "continuous":
        out = []
        for noise in noises:
            try:
                out.append(run_fire(noise, targets, time_cap=time_cap))
            except CapExceeded as exc:
                out.append(exc)
        return out
    targets, cap = _targets_and_window(config, targets)
    block = max(1, _CELLS // cap)
    kind = _Lattice if coupled else _Memoryless
    return [res for lo in range(0, len(noises), block)
            for res in _run_rows(kind(noises[lo:lo + block], cap), targets, time_cap, cap)]


def _run_pairs(state: _Paired, n_k: int, cycles: int, time_cap: float) -> list:
    """Step every fire/blue pair of `state` until it has `cycles` hits of
    n_k or an ignition past time_cap; one RenewalRecord list per pair, or
    the CapExceeded that ended it.  A pair's blue row restarts at each hit,
    and pairs that finish are dropped while others go on."""
    out: list = [[] for _ in range(state.rows // 2)]
    prev = [0.0] * len(out)            # each pair's last hit time
    live = list(range(len(out)))       # the output index of each state pair
    while live:
        t = state.ignite()             # a blue row ignites with its fire row
        reach, censored = state.burn(t)
        half, hits, done = len(live), [], []    # done: state rows of finished pairs
        for i, (pair, ti) in enumerate(zip(live, t.tolist())):
            recs = out[pair]
            if ti > time_cap:
                out[pair] = CapExceeded(f"only {len(recs)} of {cycles} cycles "
                                        f"before time cap {time_cap}")
            elif reach[i] >= n_k:
                recs.append(RenewalRecord(
                    i=len(recs) + 1, tau_i=ti - prev[pair], rho_i=reach[half + i],
                    rho_F_i=reach[i], censored_B=censored[half + i], censored_F=censored[i]))
                prev[pair] = ti
                if len(recs) < cycles:
                    hits.append(i)
            if ti > time_cap or len(recs) == cycles:
                done += [i, half + i]
        if hits:
            state.restart(np.array(hits), t[hits])
        if done:
            live = _keep(state, live, np.isin(np.arange(len(t)), done, invert=True))
    return out


def run_blue_experiments(noises, n_k: int, cycles: int, *, reach_window: int) -> list:
    """`run_blue_experiment` on each noise field of the sequence `noises`,
    all of one model: one RenewalRecord list per replication, in order, or
    the CapExceeded its run raised; [] for no noise fields, ValueError for
    lattice fields of several models.  The
    replications run in lockstep as the pairs of `_Paired` states of at
    most _PAIRS pairs and _CELLS // window rows, and each gets the floats
    of its run alone.
    """
    if cycles < 1 or n_k < 1:
        raise ValueError("need cycles >= 1 and n_k >= 1")
    if not noises:
        return []
    config = noises[0].config
    if config.space == "continuous":
        raise NotImplementedError("blue experiment is defined for the lattice model")
    cap = _window(config, [n_k], reach_window)
    block = max(1, min(_PAIRS, _CELLS // (2 * cap)))
    return [res for lo in range(0, len(noises), block)
            for res in _run_pairs(_Paired(noises[lo:lo + block], cap), n_k, cycles,
                                  DEFAULT_TIME_CAP)]


def run_blue_experiment(noise: NoiseField, n_k: int, cycles: int, *,
                        reach_window: int) -> list[RenewalRecord]:
    """Fire/blue renewal experiment at threshold n_k, `run_blue_experiments`
    on one replication: the fire process, detecting the consecutive times
    it reaches n_k, and alongside it the blue process, the fire process
    restarted all-vacant at the previous hit on the same noise.  The scan
    window holds at least `reach_window` sites, and ignitions past
    DEFAULT_TIME_CAP, read at call time, end the run in CapExceeded.
    Returns one RenewalRecord per hit."""
    (recs,) = run_blue_experiments([noise], n_k, cycles, reach_window=reach_window)
    if isinstance(recs, CapExceeded):
        raise recs
    return recs


def detect_gap_event(noise: NoiseField, span: int, start: float, duration: float) -> bool:
    """True iff some r consecutive sites inside 1..span have no arrivals in
    [start, start+duration).

    This is the defining event of the renewal-obstruction in the coupling
    argument, evaluated on the green process restarted at `start`.  Like
    the blue experiment that finds its times, it is defined on the lattice.
    """
    r = noise.config.r
    if noise.config.space == "continuous":
        raise NotImplementedError("gap event is defined for the lattice model")
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if duration == 0:
        return True
    span = int(span)
    if span < r:
        raise ValueError("span must be >= r")
    quiet = noise.next_arrivals_after(1, span + 1, start) >= start + duration
    return first_vacant_run(quiet, r) >= 0
