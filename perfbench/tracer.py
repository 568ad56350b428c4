"""Spans recorded from outside the package.

The tracer wraps every public module-level function of the traced modules
and rebinds each name in every ``anderson_lab`` module that holds it, since
modules import kernels by name (``estimators`` holds its own
``matrix_batch``, ``spectral`` its own ``interval_det``).  ``restore`` puts
every original binding back.

Each thread keeps its own span stack.  Work that ``estimators._map_batches``
hands to pool threads starts under the span that submitted it, so that span's
self time excludes the batches it waited for.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    units: dict | None
    raised: str | None  # exception type name, if the call raised


def _sample_windows_units(law, lo, hi, count, *args, **kwargs):
    return {
        "sites": count * (hi - lo + 1),
        "redraw_columns": len(law.densities.perturbed_sites(lo, hi)),
    }


def _lanes_units(energy, windows, *args, **kwargs):
    shape = getattr(windows, "shape", ())
    return {"site_lanes": shape[0] * shape[1] if len(shape) == 2 else len(windows)}


def _det_units(energy, window, *args, **kwargs):
    return {"sites": len(getattr(window, "values", window))}


def _sturm_units(diagonal, shifts, *args, **kwargs):
    width = getattr(shifts, "size", 1)
    return {"site_shifts": len(diagonal) * width, "narrow": int(width <= 2)}


#: work units counted from the call arguments, outside the timed span
UNITS = {
    "measures.sample_windows": _sample_windows_units,
    "transfer.matrix_batch": _lanes_units,
    "transfer.vector_growth_logs": _lanes_units,
    "transfer.det_recurrence": _det_units,
    "spectral.sturm_counts": _sturm_units,
}


class Tracer:
    def __init__(self, package: str, modules: tuple[str, ...]):
        self._package = package
        self._modules = modules
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._bindings: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.names: list[str] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        units_of = UNITS.get(name)
        stack_of = self._stack
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            units = units_of(*args, **kwargs) if units_of else None
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            raised = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                raised = type(err).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append(Span(sid, parent, name, t0, t1, units, raised))

        return traced

    def _carry_parent(self, map_batches):
        """Wrap ``_map_batches`` so that pool threads start under the caller's span."""
        stack_of = self._stack

        @functools.wraps(map_batches)
        def carried(fn, total, workers):
            stack = stack_of()
            parent = stack[-1] if stack else None

            def adopted(*args):
                inner = stack_of()
                inner.append(parent)
                try:
                    return fn(*args)
                finally:
                    inner.pop()

            return map_batches(adopted, total, workers)

        return carried

    # -- installing and restoring ----------------------------------------

    def _rebind(self, original, replacement) -> int:
        holders = [
            mod for key, mod in list(sys.modules.items())
            if key == self._package or key.startswith(self._package + ".")
        ]
        count = 0
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    count += 1
        return count

    def install(self) -> None:
        self.names = []
        for short in self._modules:
            mod = sys.modules[f"{self._package}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self._rebind(fn, self._wrap(name, fn))
                self.names.append(name)
        estimators = sys.modules[f"{self._package}.estimators"]
        original = estimators._map_batches
        if self._rebind(original, self._carry_parent(original)) == 0:
            raise RuntimeError("estimators._map_batches not found; cannot carry spans into pool threads")

    def restore(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        for mod, attr, original in self._bindings:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"failed to restore {mod.__name__}.{attr}")
        self._bindings.clear()

    def take(self) -> list[Span]:
        """Spans recorded since the last call; clears the record."""
        spans = self.spans[:]
        del self.spans[: len(spans)]
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover.

    Children that ran in pool threads can overlap one another, so the covered
    part is the length of the union of the children's intervals.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.sid] = (s.t1 - s.t0) - covered
    return out
