"""In-memory span tracer that wraps firesim's public functions from outside.

The package is not edited: `Tracer.install` replaces every public function
and public method of the seven firesim modules with a wrapper that records
one span (name, start, end, parent) per call, plus the exact counts the
per-layer metrics need.  Spans are kept in flat arrays and only reduced to
per-layer figures when the traced run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("rng", "model", "green", "fire", "analytic", "experiments", "cli")

# Integer counts that must repeat exactly between two runs at one seed.
EXACT_COUNTS = ("rng.draws", "model.cells_generated", "fire.burn_events",
                "fire.censored_reaches", "fire.sites_materialised", "fire.draws",
                "fire.builds", "fire.runs", "fail.cap_exceeded", "fail.cap_exceeded_lemma1",
                "fail.incomplete_trace", "fail.doubly_censored")


def _public_callables(module):
    """(owner, attribute, function, qualified name) for every public function
    and public method the module defines; dataclass and exception internals
    are left alone."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, name
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in sorted(vars(obj).items()):
                wanted = not attr.startswith("_") or (
                    attr == "__init__" and not dataclasses.is_dataclass(obj))
                if wanted and inspect.isfunction(member):
                    yield obj, attr, member, f"{name}.{attr}"


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of_name: list[int] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: list[int] = []
        self._active = [0] * len(LAYERS)   # open spans per layer
        self._open: list[int] = []         # open spans per span name
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)
        self._fire = LAYERS.index("fire")

    # -- installation -------------------------------------------------------
    def install(self, package) -> None:
        """Wrap the public callables of every layer module of `package`, for
        the rest of the process."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        originals = {}
        for layer_idx, module in enumerate(modules):
            for owner, attr, fn, qualname in _public_callables(module):
                wrapped = self._wrap(fn, f"{LAYERS[layer_idx]}.{qualname}", layer_idx,
                                     self._hook_for(qualname, LAYERS[layer_idx]),
                                     package.CapExceeded)
                originals[id(fn)] = wrapped
                setattr(owner, attr, wrapped)
        # names bound by `from .x import f` in other modules (and the package
        # re-exports) must point at the wrapper too, or their calls go unseen
        for namespace in [package, *modules]:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and id(obj) in originals:
                    setattr(namespace, name, originals[id(obj)])

    def _hook_for(self, qualname: str, layer: str):
        counts = self.counts
        active = self._active
        fire = self._fire
        if layer == "rng" and qualname == "counter_uniform":
            def hook(result):
                n = np.size(result)
                counts["rng.draws"] += n
                if active[fire]:
                    counts["fire.draws"] += n
            return hook
        if layer == "rng" and qualname == "site_stream":
            def hook(result):
                if active[fire]:
                    counts["fire.sites_materialised"] += np.size(result)
            return hook
        if layer == "rng" and qualname == "cell_stream":
            def hook(result):
                counts["model.cells_generated"] += np.size(result)
            return hook
        if layer == "fire" and qualname == "run_fire":
            def hook(trace):
                counts["fire.runs"] += 1
                counts["fire.burn_events"] += len(trace.events)
                counts["fire.censored_reaches"] += sum(ev.censored for ev in trace.events)
                counts["fail.incomplete_trace"] += not trace.complete
            return hook
        if layer == "fire" and qualname == "run_blue_experiment":
            def hook(records):
                counts["fire.runs"] += 1
                counts["fire.burn_events"] += len(records)
                counts["fire.censored_reaches"] += sum(
                    rec.censored_B + rec.censored_F for rec in records)
                if self._in_lemma1():
                    # validate_lemma1 discards only cycles censored on both sides
                    counts["fail.doubly_censored"] += sum(
                        rec.censored_B and rec.censored_F for rec in records)
            return hook
        if layer == "fire" and qualname == "DiscreteArrivals.__init__":
            def hook(_):
                counts["fire.builds"] += 1
            return hook
        return None

    def _in_lemma1(self) -> bool:
        name = "experiments.validate_lemma1"
        return name in self.names and self._open[self.names.index(name)] > 0

    def _wrap(self, fn, name: str, layer_idx: int, hook, cap_exceeded):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of_name.append(layer_idx)
        self._open.append(0)
        stack, active, counts, opened = self._stack, self._active, self.counts, self._open
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col = self.start_col, self.end_col
        clock = time.perf_counter
        is_run = name in ("fire.run_fire", "fire.run_blue_experiment")

        def traced(*args, **kwargs):
            idx = len(name_col)
            name_col.append(name_id)
            parent_col.append(stack[-1] if stack else -1)
            end_col.append(0.0)
            stack.append(idx)
            active[layer_idx] += 1
            opened[name_id] += 1
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            except cap_exceeded:
                if is_run:
                    counts["fire.runs"] += 1
                    counts["fail.cap_exceeded_lemma1" if self._in_lemma1()
                           else "fail.cap_exceeded"] += 1
                raise
            finally:
                end_col[idx] = clock()
                opened[name_id] -= 1
                active[layer_idx] -= 1
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- reduction ----------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.name_col)

    def snapshot(self) -> dict:
        """Exact counts so far plus the number of spans recorded."""
        return {**self.counts, "spans": self.span_count}

    def layer_metrics(self) -> dict:
        """Per-layer calls and self time, and the fire-span statistics."""
        names = np.array(self.name_col, dtype=np.int64)
        parents = np.array(self.parent_col, dtype=np.int64)
        dur = np.array(self.end_col) - np.array(self.start_col)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        layer = np.asarray(self.layer_of_name, dtype=np.int64)[names]
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_s = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        out = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])

        def durations(qualified):
            if qualified not in self.names:
                return np.empty(0)
            return dur[names == self.names.index(qualified)]

        runs = durations("fire.run_fire")
        out["fire.span_p50_ms"] = float(np.median(runs) * 1e3) if len(runs) else 0.0
        out["fire.span_max_ms"] = float(runs.max() * 1e3) if len(runs) else 0.0
        out["fire.replay_s"] = float(durations("fire.DiscreteArrivals.replay").sum())
        draws = self.counts["rng.draws"]
        out["rng.draws_per_s"] = draws / out["rng.self_s"] if out["rng.self_s"] > 0 else 0.0
        out["fire.builds_per_run"] = (self.counts["fire.builds"] / self.counts["fire.runs"]
                                      if self.counts["fire.runs"] else 0.0)
        return out
