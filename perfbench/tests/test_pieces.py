"""Tests of the piece clock that gives the steady stage times.

    python3 -m pytest perfbench/tests -q
"""

import types

import pytest

import pieces
import workloads
from test_tracer import _tiny

MARKED = workloads.MARKS


def _toy_module():
    mod = types.ModuleType("toy")
    exec("def step(x):\n    return len(x)\n", mod.__dict__)
    return mod


def test_steady_time_sums_the_fastest_piece_of_each_kind():
    mod = _toy_module()
    pc = pieces.PieceClock({"clip": (mod, "step", None)})
    # Segment start, three marks, segment end; then a segment with no marks.
    times = iter([0.0, 1.0, 3.0, 5.0, 5.5,           # round 1
                  10.0, 10.5, 12.0, 13.8, 14.0,      # round 2
                  20.0, 20.25])
    pc._clock = lambda: next(times)
    with pc.installed():
        for _ in range(2):
            with pc.segment("gate", "x"):
                for _ in range(3):
                    mod.step("ab")
        with pc.segment("eval_plain"):
            pass
    assert pc.best == pytest.approx({
        ("gate/x", "start", "clip0"): 0.5, ("gate/x", "clip0", "clip0"): 1.5,
        ("gate/x", "clip0", "end"): 0.2, ("eval_plain/", "start", "end"): 0.25})
    slow, fast, other = pc.instances
    assert pieces.shape([slow]) == pieces.shape([fast])
    # Either round's composition gives the same steady time.
    for instance in (slow, fast):
        assert pieces.steady_stage_times([instance, other], pc.best) == pytest.approx(
            {"gate": 0.5 + 2 * 1.5 + 0.2, "eval_plain": 0.25})


def test_marks_alternate_with_the_period_and_wrappers_are_restored():
    mod = _toy_module()
    original = mod.step
    pc = pieces.PieceClock({"step": (mod, "step", 0)})
    with pc.installed():
        assert mod.step("ab") == 2       # outside a segment: no mark
        with pc.segment("eval_ensemble", period=2):
            for x in ("abc", "abc", "d", "d"):
                assert mod.step(x) == len(x)
    assert mod.step is original
    [(name, _, counts)] = pc.instances
    assert name == "eval_ensemble/"
    assert counts == {(name, a, b): 1 for a, b in [
        ("start", "step0:3"), ("step0:3", "step1:3"), ("step1:3", "step0:1"),
        ("step0:1", "step1:1"), ("step1:1", "end")]}
    with pytest.raises(ZeroDivisionError):
        with pc.installed():
            1 / 0
    assert mod.step is original


@pytest.mark.parametrize("name", ["desk", "variants"])
def test_marked_rounds_repeat_their_pieces_and_perplexities(name, tmp_path):
    w = _tiny(name)
    inputs = workloads.setup(w, 3)
    plain = workloads.run_round(w, inputs, tmp_path)
    originals = {label: getattr(mod, fn) for label, (mod, fn, _) in MARKED.items()}
    pc = pieces.PieceClock(MARKED)
    shapes = []
    with pc.installed():
        for _ in range(2):
            lo = len(pc.instances)
            marked = workloads.run_round(w, inputs, tmp_path, segment=pc.segment)
            shapes.append(pieces.shape(pc.instances[lo:]))
            assert marked["ppl"] == plain["ppl"]
    assert all(getattr(mod, fn) is originals[label] for label, (mod, fn, _) in MARKED.items())
    assert shapes[0] == shapes[1]
    labels = {label.split(":")[0] for _, _, counts in pc.instances for _, *ab in counts
              for label in ab}
    assert {"clip0", "hidden0", "hidden1", "step0", "lsm0", "ssm0", "gate0"} <= labels
    steady = pieces.steady_stage_times(pc.instances[-len(shapes[0]):], pc.best)
    assert set(steady) == {"base", "gate", "eval_plain", "eval_gated", "eval_ensemble"}
    assert all(t > 0 for t in steady.values())
