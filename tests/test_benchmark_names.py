"""The benchmark's per-layer figures name program functions: perfbench wraps
each one by module attribute and reads its figures under
`<layer>.<function>.<figure>` (optionally behind a stage prefix such as
`gate_phase.`). A function renamed, made private or deleted would only show
up as a missing metric in a traced benchmark run; this test fails first.

perfbench's piece clock also marks calls of some of these functions, and
its tests need each mark to fire; the last test here checks that the two
softmax kernels are still called where those marks expect them."""

import importlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

from ioglm import corpus, evaluate, gate, kernels, model, training

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
FUNCTION_FIGURES = [m["name"] for m in SPEC["per_layer"] if m["name"].count(".") >= 2]


def test_the_piece_clock_marks_are_among_the_figures():
    named = {".".join(name.split(".")[-3:-1]) for name in FUNCTION_FIGURES}
    assert {"training.clip_gradients", "model.hidden_sequence", "model.forward_step",
            "kernels.log_softmax", "kernels.softmax_stable", "gate.compute_gate"} <= named


@pytest.mark.parametrize("name", FUNCTION_FIGURES)
def test_figure_names_a_public_function_of_its_module(name):
    layer, function = name.split(".")[-3:-1]
    module = importlib.import_module(f"ioglm.{layer}")
    value = getattr(module, function, None)
    assert not function.startswith("_")
    assert isinstance(value, types.FunctionType), f"ioglm.{layer}.{function} is not a function"
    assert value.__module__ == module.__name__, f"{name}: defined in {value.__module__}"


def test_training_takes_one_softmax_pass_per_timestep_and_eval_the_log_softmax(monkeypatch):
    # perfbench's `ssm` and `lsm` marks count calls of these two kernels
    events = []

    def record(module, name, label):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            events.append(label)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)

    record(kernels, "softmax_stable", "ssm")
    record(kernels, "log_softmax", "lsm")
    record(training, "clip_gradients", "clip")
    record(evaluate, "perplexity", "eval")

    def check_phase(blocks, steps):
        # each training block: one softmax pass per timestep, then the
        # clip; log_softmax only in the epoch's validation
        cut = events.index("eval")
        assert events[:cut] == (["ssm"] * steps + ["clip"]) * blocks
        assert set(events[cut + 1:]) == {"lsm"}
        events.clear()

    rng = np.random.default_rng(0)
    train, valid = rng.integers(0, 12, size=2 * (3 * 4 + 1)), rng.integers(0, 12, size=30)
    assert len(corpus.batchify(train, 2, 4)) == 3
    base = model.init_params(12, 6, 6, seed=1)
    base, _ = training.train_base(training.TrainConfig(batch_size=2, bptt_length=4, max_epochs=1),
                                  train, valid, base)
    check_phase(3, 4)
    g = gate.init_gate(12, d_g=5, seed=2)
    training.train_iog(training.iog_config(batch_size=2, bptt_length=4, d_g=5, max_epochs=1),
                       train, valid, base, g)
    check_phase(3, 4)
    evaluate.perplexity(base, valid, gate=g)
    assert set(events) == {"eval", "lsm"}
