"""Span recording around pwlab's public functions, from outside the program.

A `Recorder` keeps spans in memory as (name, start_ns, end_ns, parent).
`wrapped(recorder, functions)` replaces each listed function at every pwlab
module that binds it, and restores the originals on exit;
`after_each_call(names, hook)` does the same to run a hook after each call.  `layer_metrics`
turns the spans and work counts into `<function>.calls`, `.total_s`,
`.self_s` and `<function>.<count>` values.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np


class Recorder:
    """Spans of one traced run.  Single-threaded: the open spans form a stack."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


# Work counts, keyed by "<function>.<count>": each maps the call's bound
# arguments and its result to the amount of work the call did.
def _exp_terms(args, result):
    fhat, spatial = args["fhat"], args["spatial"]
    return sum(k * m for k, m in zip(fhat.spec.npts, spatial.npts))


def _modulated_centers(args, result):
    which = args["which"]
    return args["family"].count if which is None else len(np.atleast_1d(which))


COUNTERS = {
    "nehari.modulated_sum_l1.centers": _modulated_centers,
    "fourier.synthesize_on_grid.exp_terms": _exp_terms,
    "hankel.HankelMatrix.build.entries": lambda args, result: result.matrix.shape[0] ** 2,
    "hankel.singular_values.order3": lambda args, result: args["A"].shape[0] ** 3,
    "hankel.singular_values.complex_calls": lambda args, result: int(np.iscomplexobj(args["A"])),
    "omega.OmegaEvaluator.batch.points": lambda args, result: np.atleast_2d(args["pts"]).shape[0],
    "omega.omega_mc.samples": lambda args, result: args["samples"],
}


def _make_wrapper(recorder: Recorder, name: str, fn, counts: list[str]):
    counters = [(f"{name}.{c}", COUNTERS[f"{name}.{c}"]) for c in counts]
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if counters:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, counter in counters:
                recorder.add(key, counter(bound.arguments, result))
        return result

    return wrapper


def _pwlab_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "pwlab" or key.startswith("pwlab."))]


def _rebind(original, replacement, undo: list) -> None:
    """Bind `replacement` wherever a loaded pwlab module binds `original`."""
    for mod in _pwlab_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


@contextlib.contextmanager
def after_each_call(names, hook):
    """Call `hook()` after every call of each "module.func" in `names`
    returns or raises, at every pwlab module that binds the function."""
    undo = []
    try:
        for name in names:
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"pwlab.{module_name}"), attr)

            @functools.wraps(original)
            def wrapper(*args, _fn=original, **kwargs):
                try:
                    return _fn(*args, **kwargs)
                finally:
                    hook()
            _rebind(original, wrapper, undo)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


@contextlib.contextmanager
def wrapped(recorder: Recorder, functions: list[dict]):
    """Wrap each function in `functions` (entries of layers.json) for the
    duration of the block.

    "module.func" is replaced in every loaded pwlab module whose namespace
    binds the same object, so `from .fourier import synthesize_on_grid` in
    another module is traced too.  "module.Class.method" is replaced on the
    class, keeping classmethods classmethods.
    """
    undo = []
    try:
        for entry in functions:
            name = entry["name"]
            module_name, *path = name.split(".")
            module = importlib.import_module(f"pwlab.{module_name}")
            if len(path) == 1:
                original = getattr(module, path[0])
                _rebind(original, _make_wrapper(recorder, name, original, entry["counts"]),
                        undo)
            elif len(path) == 2:
                cls = getattr(module, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    replacement = classmethod(_make_wrapper(recorder, name, raw.__func__,
                                                            entry["counts"]))
                else:
                    replacement = _make_wrapper(recorder, name, raw, entry["counts"])
                undo.append((cls, path[1], raw))
                setattr(cls, path[1], replacement)
            else:
                raise ValueError(f"cannot wrap {name!r}")
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(recorder: Recorder, functions: list[dict]) -> dict[str, float]:
    """calls, total_s, self_s and work counts per wrapped function.

    Self time is a span's duration minus the part its child spans cover.
    Total time sums only the outermost span of each name, so a function that
    re-enters itself is not counted twice.
    """
    spans = recorder.spans
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for entry in functions:
        name = entry["name"]
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        for count in entry["counts"]:
            out[f"{name}.{count}"] = recorder.counts.get(f"{name}.{count}", 0)
    for index, (name, start, end, parent) in enumerate(spans):
        if f"{name}.calls" not in out:
            continue
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (duration - _covered_ns(children.get(index, []))) * 1e-9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.total_s"] += duration * 1e-9
    return out
