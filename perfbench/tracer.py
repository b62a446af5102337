"""Span recorder for traced benchmark runs.

`Tracer` wraps every public function of the traced irsmimo modules from
outside the package. On entry it replaces each function in every irsmimo
module namespace that holds it (for example `training.measure_power` and
`transmission.measure_power`, or `irsmimo.run_rate_experiment` and
`harness.run_rate_experiment`); on exit it puts every original back.

Spans live in memory as four parallel arrays: the span name, its start and
end time stamps, and the index of the enclosing span (-1 for a root). The
program is single-threaded, so children nest inside their parent and a
span's self time is its duration minus the durations of its children.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "irsmimo"
# `cli` only parses arguments and writes CSV files, so it is not a layer.
LAYERS = ("harness", "training", "transmission", "channel", "irs_control",
          "codebook", "arrays", "quantization")
OBSERVE_SPAN = "bench.observe"


def package_modules():
    """The irsmimo package and every loaded submodule, in name order."""
    return [module for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def layer_functions():
    """(span name, function) for each public function of each layer module."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                out.append((f"{layer}.{attr}", value))
    return out


class Tracer:
    """Context manager that records a span around each layer-function call.

    `observers` maps a span name to a callback `(args, kwargs, result)` run
    after the call returns; the callback runs in a span of its own, so its
    time is not charged to the caller's self time.
    """

    def __init__(self):
        self.names = [OBSERVE_SPAN]
        self.observers = {}
        self._name_ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._stack = []
        self._patched = []

    def __enter__(self):
        wrappers = {}
        for span_name, function in layer_functions():
            self.names.append(span_name)
            wrappers[id(function)] = (function,
                                      self._wrap(len(self.names) - 1,
                                                 span_name, function))
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)
        return False

    def _span(self, name_id, function, args, kwargs):
        index = len(self._name_ids)
        self._name_ids.append(name_id)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        try:
            return function(*args, **kwargs)
        finally:
            self._ends[index] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name_id, span_name, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            result = self._span(name_id, function, args, kwargs)
            observer = self.observers.get(span_name)
            if observer is not None:
                self._span(0, observer, (args, kwargs, result), {})
            return result

        return traced

    def mark(self) -> int:
        """Number of spans recorded so far; spans[a:b] is what ran in between."""
        return len(self._name_ids)

    def spans(self):
        """(name ids, durations in seconds, self times in seconds, parents)."""
        name_ids = np.array(self._name_ids, dtype=np.int32)
        durations = (np.array(self._ends, dtype=float)
                     - np.array(self._starts, dtype=float))
        parents = np.array(self._parents, dtype=np.int32)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=durations[nested],
                                 minlength=durations.size)
        return name_ids, durations, durations - child_time, parents
