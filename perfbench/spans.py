"""Span recorder for the traced benchmark run.

``installed(recorder)`` wraps the public functions of every pencilfiber layer
from the outside, so the program's source is not touched.  Each wrapper opens
a span that links to the span open when it was called; spans are held in
memory and summarised once the traced round is over.

Q(w) arithmetic is too frequent for one span per call (a corpus crosscheck
makes well over a million ``EisensteinNumber`` operator calls), so the
arithmetic wrappers keep a counter and read the clock only around the
outermost arithmetic call.  That time is charged to the span that was open,
as if it were a child, so a layer's self time is its algorithmic overhead and
all Q(w) cost lands in ``eisenstein``.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

LAYERS = ("eisenstein", "forms", "linalg", "arrangement", "milnor", "pencils", "resonance", "catalan", "cli")

# EisensteinNumber methods timed as arithmetic.  __bool__ and __hash__ are
# left out: they are cheap next to the clock reads a wrapper would add.
ARITH_METHODS = (
    "__init__",
    "__eq__",
    "__neg__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "conj",
    "norm",
    "inverse",
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    arith_start: float
    end: float = 0.0
    arith_end: float = 0.0
    outermost: bool = True  # no enclosing span has the same name


class Recorder:
    """In-memory spans plus the arithmetic counter and clock."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.arith_ops = 0
        self.arith_s = 0.0
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._in_arith = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        self.spans.append(Span(name, parent, perf_counter(), self.arith_s, outermost=depth == 0))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.arith_end = self.arith_s
        self._stack.pop()
        self._active[span.name] -= 1

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus its child spans and its own arithmetic."""
    child_s = [0.0] * len(spans)
    child_arith = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
            child_arith[span.parent] += span.arith_end - span.arith_start
    return [
        (span.end - span.start) - child_s[i] - ((span.arith_end - span.arith_start) - child_arith[i])
        for i, span in enumerate(spans)
    ]


def summarise(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, and inclusive seconds of outermost calls."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        if span.outermost:
            row["incl_s"] += span.end - span.start
    return out


def partition_count(r: int) -> int:
    """Unordered partitions of r = 3k lines into three k-classes; 0 otherwise."""
    if r % 3:
        return 0
    k = r // 3
    return math.factorial(r) // (math.factorial(k) ** 3 * 6)


def _rref_cells(args: tuple, result: object) -> dict[str, int]:
    rows = args[0]
    return {"linalg.rref.cells": len(rows) * len(rows[0]) if rows else 0}


def _term_pairs(args: tuple, result: object) -> dict[str, int]:
    left, right = args[0], args[1]
    if type(right) is not type(left):  # scalar product: no term pairs
        return {}
    return {"forms.homform_mul.term_pairs": len(left.coeffs) * len(right.coeffs)}


def _pencil_work(args: tuple, result: object) -> dict[str, int]:
    return {"pencils.search_space": partition_count(args[0].r), "pencils.found": len(result)}


# Work counters computed from a finished call's arguments and result.
WORK: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "linalg.rref": _rref_cells,
    "forms.homform_mul": _term_pairs,
    "pencils.find_pencils": _pencil_work,
}


def _span_wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    work = WORK.get(name)

    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if work is not None:
            for counter, amount in work(args, result).items():
                recorder.add(counter, amount)
        return result

    return wrapper


def _arith_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        if recorder._in_arith:
            return fn(*args, **kwargs)
        recorder._in_arith = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.arith_s += perf_counter() - start
            recorder.arith_ops += 1
            recorder._in_arith = False

    return wrapper


@contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every layer's public functions while the block runs, then restore.

    A wrapper replaces the function in every loaded pencilfiber module that
    binds it, because ``from .x import y`` gives callers their own name.
    """
    modules = {layer: importlib.import_module(f"pencilfiber.{layer}") for layer in LAYERS}
    package = [m for n, m in sys.modules.items() if n == "pencilfiber" or n.startswith("pencilfiber.")]
    restore: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, wrapper: Callable) -> None:
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if layer == "eisenstein":
                    wrapper = _arith_wrapper(recorder, fn)
                else:
                    wrapper = _span_wrapper(recorder, f"{layer}.{attr}", fn)
                for mod in package:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            patch(mod, name, wrapper)
        number = modules["eisenstein"].EisensteinNumber
        for method in ARITH_METHODS:
            patch(number, method, _arith_wrapper(recorder, vars(number)[method]))
        forms = modules["forms"]
        patch(forms.HomForm, "__mul__", _span_wrapper(recorder, "forms.homform_mul", forms.HomForm.__mul__))
        patch(forms.UniPoly, "__mul__", _span_wrapper(recorder, "forms.unipoly_mul", forms.UniPoly.__mul__))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
