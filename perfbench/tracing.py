"""Spans and memory probes recorded from outside the jcsim package.

The benchmark wraps every public function of each jcsim layer and rebinds
the wrapper under every name that refers to it in the ``jcsim`` package
namespaces.  A module that imported a function by name (for example
``jcsim.interferometer.beam_splitter``) holds its own binding, so each
binding is replaced; internal calls go through module globals and are
therefore traced too.  Spans are kept in memory and handed back at the end
of the pass.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

#: jcsim modules whose public functions form the traced layers.
LAYERS = ("fock", "jcm", "linear_optics", "interferometer", "loop_circuit", "cli")

# Span record layout: [span_id, name, start, end, parent_id, n_max].
ID, NAME, START, END, PARENT, N_MAX = range(6)


def _n_max_of(args) -> int | None:
    """Cutoff of the state passed as the first argument, if there is one."""
    cutoff = getattr(args[0], "cutoff", None) if args else None
    return getattr(cutoff, "n_max", None)


def public_functions() -> dict[str, object]:
    """``layer.function`` -> function, for every public function of each layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"jcsim.{layer}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[f"{layer}.{attr}"] = value
    return found


def install(make_wrapper) -> list[tuple[object, str, object]]:
    """Rebind every public layer function to ``make_wrapper(name, fn)``.

    Returns the replaced bindings as (module, attribute, original) triples.
    """
    originals = public_functions()
    by_id = {id(fn): (name, fn) for name, fn in originals.items()}
    wrappers: dict[int, object] = {}
    replaced = []
    modules = [importlib.import_module("jcsim")] + [
        importlib.import_module(f"jcsim.{layer}") for layer in LAYERS
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is None:
                continue
            name, fn = hit
            if id(fn) not in wrappers:
                wrappers[id(fn)] = make_wrapper(name, fn)
            setattr(module, attr, wrappers[id(fn)])
            replaced.append((module, attr, value))
    return replaced


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1, _n_max_of(args)]
            spans.append(record)
            stack.append(record[ID])
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


class MemoryProbe:
    """tracemalloc figures for the calls whose memory the benchmark reports.

    * ``beam_splitter``: bytes still traced after the first call at each
      cutoff returns, less the returned state, i.e. what the call retained
      (the splitter kernel cache).
    * ``csf_gate`` and ``conditional_run``: peak traced bytes during the
      call above the level at entry.  The two never nest in each other, so
      resetting the peak on entry is safe.
    """

    def __init__(self):
        self.retained: dict[int, int] = {}
        self.peak: dict[str, int] = {}

    def wrap(self, name: str, fn):
        if name == "linear_optics.beam_splitter":
            return self._retained_wrapper(fn)
        if name in ("linear_optics.csf_gate", "interferometer.conditional_run"):
            return self._peak_wrapper(name, fn)
        return fn

    def _retained_wrapper(self, fn):
        def probed(state, *args, **kwargs):
            n_max = state.cutoff.n_max
            if n_max in self.retained:
                return fn(state, *args, **kwargs)
            before = tracemalloc.get_traced_memory()[0]
            out = fn(state, *args, **kwargs)
            after = tracemalloc.get_traced_memory()[0]
            self.retained[n_max] = after - before - out.amplitudes.nbytes
            return out

        return probed

    def _peak_wrapper(self, name, fn):
        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - before
            n_max = _n_max_of(args)
            key = name if n_max is None else f"{name}.n{n_max}"
            self.peak[key] = max(self.peak.get(key, 0), peak)
            return out

        return probed

    def as_dict(self) -> dict:
        return {"retained": {f"n{k}": v for k, v in self.retained.items()}, "peak": self.peak}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """
    child_total: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_total[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child_total[span[ID]] for span in spans]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
