"""Piece clock: stage times that hold steady on a shared host.

Other tenants of a shared host slow this process by up to about 40%, and
their load drifts over minutes, so the wall time of a whole stage (one to
a few seconds) moves with it from run to run. Short pieces of work now
and then run with no interference, and the fastest of many equal pieces
barely moves.

The piece clock splits each stage into such pieces. It wraps a few
functions the program calls once per piece of work and records the time
each call starts: `training.clip_gradients` once per training block,
`model.hidden_sequence` once per evaluation chunk and member, and, where a
workload's blocks or chunks are long, functions called once per timestep
or token. A piece runs from one mark to the next. Its kind is (segment,
mark before, mark after), where a segment is one top-level call of the
pipeline. A mark's label carries the chunk length where one is named, so
a short last chunk is a kind of its own, and pieces of one kind do the
same work. A stage's steady time is the sum, over the pieces of one
round, of the fastest piece of the same kind seen in the whole run.

A mark costs one wrapper call, well under a microsecond, and the
wrappers pass arguments and results through untouched. They are removed
when `installed()` exits.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time

START, END = "start", "end"


class PieceClock:
    def __init__(self, marked: dict):
        """`marked` maps a mark label to (module, function name, index of
        the argument whose length joins the label, or None)."""
        self.marked = dict(marked)
        self.best: dict = {}        # kind of piece -> shortest duration seen
        # One entry per segment run: (name, hash of its mark labels in order,
        # number of pieces of each kind). Times are folded into `best` when
        # the segment ends, so memory does not grow with the marks.
        self.instances: list = []
        self._marks = None
        self._period = 1
        self._counts: dict = {}
        self._clock = time.perf_counter

    def _wrap(self, label: str, fn, sized):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            marks = self._marks
            if marks is not None:
                n = self._counts.get(label, 0)
                self._counts[label] = n + 1
                size = "" if sized is None else f":{len(args[sized])}"
                marks.append((f"{label}{n % self._period}{size}", self._clock()))
            return fn(*args, **kwargs)

        return marked

    @contextlib.contextmanager
    def installed(self):
        """Wrap the marked functions; restore the originals on exit, also
        when the block raises."""
        saved = []
        try:
            for label, (mod, fn_name, sized) in self.marked.items():
                original = getattr(mod, fn_name)
                saved.append((mod, fn_name, original))
                setattr(mod, fn_name, self._wrap(label, original, sized))
            yield self
        finally:
            for mod, fn_name, original in reversed(saved):
                setattr(mod, fn_name, original)

    @contextlib.contextmanager
    def segment(self, stage: str, kind: str = "", period: int = 1):
        """One top-level call of the pipeline, under `stage`. Segments of one
        name do the same work. Marks of one label alternate between `period`
        kinds of piece, as when each chunk runs every ensemble member."""
        marks = [(START, self._clock())]
        self._marks, self._period, self._counts = marks, period, {}
        try:
            yield
        finally:
            marks.append((END, self._clock()))
            self._marks = None
            name = f"{stage}/{kind}"
            counts: dict = {}
            for (a, t0), (b, t1) in zip(marks, marks[1:]):
                key = (name, a, b)
                counts[key] = counts.get(key, 0) + 1
                self.best[key] = min(self.best.get(key, math.inf), t1 - t0)
            self.instances.append((name, hash(tuple(label for label, _ in marks)), counts))


def shape(instances) -> list:
    """Segment names and mark labels (hashed), without times."""
    return [(name, labels) for name, labels, _ in instances]


def steady_stage_times(instances, best: dict) -> dict:
    """Each stage's time when every piece runs as fast as its fastest kin."""
    out: dict = {}
    for name, _, counts in instances:
        stage = name.split("/", 1)[0]
        out[stage] = out.get(stage, 0.0) + sum(n * best[key] for key, n in counts.items())
    return out
