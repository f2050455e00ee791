"""Per-layer spans recorded from outside the package.

`install()` replaces every public function of the layer modules (and the
public methods of their classes) by a timing wrapper. Modules bind each
other's functions with `from .params import binary_entropy`, so the wrapper
goes into every `mdighz.*` module global, and every module-level dict value,
that holds the same object; patching only the defining module would miss
those calls. Names are discovered at install time, so a function that a later
refactor deletes or renames is simply absent from the report.

Self time is a span's duration minus the time covered by its direct child
spans. Each thread keeps its own span stack, so self times stay correct when
points are evaluated in a thread pool.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

LAYERS = ("params", "fock", "gains", "decoy", "keyrates", "mermin",
          "montecarlo", "cli")
# cli is timed as one span: its commands, CSV and manifest writing all count
# as cli self time, and everything below it belongs to the other layers.
CLI_ENTRY = "main"


class Span:
    """Calls, inclusive durations and self times of one wrapped function."""

    def __init__(self, original):
        self.original = original
        self.durations = array("d")  # array.append is atomic under the GIL
        self.self_times = array("d")
        self.observed = 0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def self_s(self) -> float:
        return sum(self.self_times)


class Tracer:
    def __init__(self, observers=None):
        """observers: label -> fn(result) -> int, summed into Span.observed."""
        self.spans: dict[str, Span] = {}
        self._observers = observers or {}
        self._local = threading.local()

    def wrap(self, label: str, fn):
        span = self.spans[label] = Span(fn)
        local = self._local
        observe = self._observers.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.durations.append(elapsed)
                span.self_times.append(elapsed - frame[0])
            if observe is not None:
                span.observed += observe(result)
            return result

        for name in ("cache_info", "cache_clear"):  # keep lru_cache's API
            if hasattr(fn, name):
                setattr(traced, name, getattr(fn, name))
        return traced


def _own_callables(module):
    """Public functions defined in `module`, lru_cache wrappers included."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def _own_classes(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isclass(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer modules' public functions; returns the absent layers."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "mdighz" or name.startswith("mdighz."))]
    absent = []
    wrappers = {}  # id(original) -> wrapper; each Span keeps its original alive
    for layer in LAYERS:
        module = sys.modules.get(f"mdighz.{layer}")
        if module is None:
            absent.append(layer)
            continue
        for name, fn in list(_own_callables(module)):
            if layer != "cli" or name == CLI_ENTRY:
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
        if layer == "cli":
            continue
        for cls_name, cls in list(_own_classes(module)):
            for name, fn in list(vars(cls).items()):
                if not name.startswith("_") and inspect.isfunction(fn):
                    setattr(cls, name, tracer.wrap(f"{layer}.{cls_name}.{name}", fn))

    for module in modules:
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if id(value) in wrappers:
                setattr(module, name, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]
    return absent
