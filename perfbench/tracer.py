"""Span tracer that wraps module functions from outside the program.

Every public function defined in a traced module is replaced, for the
duration of `Tracer.installed()`, by a wrapper that records one span per
call: name, start, end, parent span, and (for the kernels named in
`elems_of`) the size of the first argument. The program calls these
functions as module attributes (`kernels.sigmoid`, `model.forward_step`)
or as bare module globals, and both are looked up at call time, so
patching the module attribute catches every call without editing the
program. The original attributes are restored when the block exits.

Spans stay in memory; `self_times` derives each span's self time (its
duration minus the part of it covered by its direct children) and
`profile` folds a range of spans into per-function totals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types

import numpy as np

# A span is [name, start, end, parent index (-1 for a root), elems].
NAME, START, END, PARENT, ELEMS = range(5)
STAGE_PREFIX = "bench."


def public_functions(module) -> list:
    """Names of the functions a module defines itself and does not mark private."""
    return sorted(
        name
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    )


class Tracer:
    def __init__(self, modules: dict, elems_of=()):
        """`modules` maps a layer name to its module; `elems_of` lists the
        qualified names (`layer.function`) whose input sizes are counted."""
        self.modules = dict(modules)
        self.elems_of = frozenset(elems_of)
        self.spans: list = []
        self._stack: list = []
        self._clock = time.perf_counter

    @property
    def function_names(self) -> list:
        return [f"{layer}.{fn}" for layer, mod in self.modules.items()
                for fn in public_functions(mod)]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        count = name in self.elems_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    int(np.size(args[0])) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of the traced modules; restore the
        originals on exit, also when the block raises."""
        saved = []
        try:
            for layer, mod in self.modules.items():
                for fn_name in public_functions(mod):
                    original = getattr(mod, fn_name)
                    saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, self._wrap(f"{layer}.{fn_name}", original))
            yield self
        finally:
            for mod, fn_name, original in reversed(saved):
                setattr(mod, fn_name, original)

    @contextlib.contextmanager
    def span(self, stage: str):
        """A span the benchmark opens around one of its own stages."""
        record = [STAGE_PREFIX + stage, self._clock(), 0.0,
                  self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[END] = self._clock()

    def write(self, path) -> None:
        """Spans as JSON: a name table and rows of [name index, start, end,
        parent, elems], times in seconds from the first span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [[index[s[NAME]], round(s[START] - origin, 9), round(s[END] - origin, 9),
                 s[PARENT], s[ELEMS]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "elems"],
                       "names": names, "spans": rows}, f, separators=(",", ":"))


def self_times(spans) -> list:
    """Each span's duration minus the summed durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def stages(spans) -> list:
    """The benchmark stage each span runs under (None outside any stage).
    Parents precede their children in the list, so one pass suffices."""
    out = []
    for s in spans:
        if s[NAME].startswith(STAGE_PREFIX):
            out.append(s[NAME][len(STAGE_PREFIX):])
        else:
            out.append(out[s[PARENT]] if s[PARENT] >= 0 else None)
    return out


def profile(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per-name totals over spans[lo:hi]: calls, self_s, elems.

    Names are the span names for every span, and also `<stage>.<name>` for
    spans that run under a benchmark stage. Self times are computed over
    the whole list, so a child outside the range still counts against its
    parent.
    """
    own = self_times(spans)
    stage_of = stages(spans)
    totals: dict = {}
    hi = len(spans) if hi is None else hi
    for i in range(lo, hi):
        s = spans[i]
        keys = [s[NAME]]
        if stage_of[i] is not None and not s[NAME].startswith(STAGE_PREFIX):
            keys.append(f"{stage_of[i]}.{s[NAME]}")
        for key in keys:
            t = totals.setdefault(key, {"calls": 0, "self_s": 0.0, "elems": 0})
            t["calls"] += 1
            t["self_s"] += own[i]
            t["elems"] += s[ELEMS]
    return totals


def inclusive_under(spans, name: str, parents, lo: int = 0, hi: int | None = None) -> float:
    """Summed duration of the spans called `name` whose direct parent is
    named in `parents`."""
    hi = len(spans) if hi is None else hi
    return sum(
        s[END] - s[START]
        for s in spans[lo:hi]
        if s[NAME] == name and s[PARENT] >= 0 and spans[s[PARENT]][NAME] in parents
    )
