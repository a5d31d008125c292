"""Spans and counters around pplab's public functions, patched in from outside.

Every public function and method defined in ``cli``, ``analysis``,
``dynamics``, ``kernels`` and ``models`` is wrapped.  ``cli`` and
``dynamics`` import functions by name, so each wrapper replaces every
module attribute that holds the original, not just the defining one.
Functions a single operation calls thousands of times (coefficient
evaluations, the product at a point) only count calls: a span for each would
cost more memory than the run it describes.  Every other call records a span
(name, start, end, parent span, operation id); spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

MODULES = ("cli", "analysis", "dynamics", "kernels", "models")

# Prefixes of names that get a call counter instead of spans.
_COUNT_ONLY = (
    "models.",
    "analysis.product_at",
    "analysis.product_limit",
    "dynamics.step",
    "dynamics.default_",
    "dynamics.Trajectory.value",
    "dynamics.Trajectory.residue_of",
)


def _public_functions(module, short):
    """(owner, attribute, traced name) for the module's public callables."""
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        origin = getattr(obj, "__module__", None) or ""
        if not origin.startswith(module.__name__):
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    found.append((obj, meth, f"{short}.{obj.__name__}.{meth}"))
        elif callable(obj):
            found.append((module, attr, f"{short}.{attr}"))
    return found


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers --

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_simulate_packed(self, args, result):
        self.counters["kernels.steps"] += len(result[0])

    def _after_write_csv(self, args, result):
        self.counters["dynamics.csv_bytes"] += os.path.getsize(args[1])

    # -- patching --

    def install(self):
        """Wrap every public function of MODULES wherever it is referenced."""
        modules = {short: importlib.import_module(f"pplab.{short}") for short in MODULES}
        holders = [importlib.import_module("pplab"), *modules.values()]
        after = {
            "kernels.simulate_packed": self._after_simulate_packed,
            "dynamics.Trajectory.write_csv": self._after_write_csv,
        }
        for short, module in modules.items():
            for owner, attr, name in _public_functions(module, short):
                orig = vars(owner)[attr]
                if name.startswith(_COUNT_ONLY):
                    wrapped = self._count(name, orig)
                else:
                    wrapped = self._span(name, orig, after.get(name))
                if inspect.isclass(owner):
                    self._set(owner, attr, wrapped)
                    continue
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            self._set(holder, key, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results --

    def summary(self) -> dict:
        """Per-name calls, total seconds and self seconds (time not in child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), child in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child
        for name, n in self.calls.items():
            out[name]["calls"] += n
        return dict(out)

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op})
                )
                fh.write("\n")
