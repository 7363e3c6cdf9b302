"""The benchmark's per-layer figures name program functions: perfbench wraps
each one by module attribute and reads its figures under
`<layer>.<function>.<figure>` (optionally behind a stage prefix such as
`gate_phase.`). A function renamed, made private or deleted would only show
up as a missing metric in a traced benchmark run; this test fails first.

perfbench's piece clock also marks calls of some of these functions, and
its tests need each mark to fire; the last test here checks that each
marked function is still called where and how often those marks expect:
the two softmax kernels (the training one once per run of timesteps that
fits `model._PASS_BYTES`), the clip, the block forward, the gate, and the
evaluation recurrence, whose mark label carries the length of its 1-D
chunk argument, so that a short last chunk is a piece kind of its own.
It also checks that the public sigmoid, whose figures count its calls,
serves only the gate's vocabulary, never a recurrent timestep."""

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


# Training softmax passes per block of 2 lanes x 4 timesteps over 12 words,
# by `model._PASS_BYTES`: the 1 MiB default holds the whole block, a budget
# of 3 timesteps' float64 leaves runs of 3 and 1, and a budget below one
# timestep (as at ptb shape) gives one pass per timestep.
PASSES_PER_BLOCK = [(None, 1), (3 * 8 * 2 * 12, 2), (8 * 2 * 12 - 1, 4)]


@pytest.mark.parametrize("pass_bytes,passes", PASSES_PER_BLOCK)
def test_training_takes_one_softmax_pass_per_run_of_timesteps_and_eval_the_log_softmax(
        monkeypatch, pass_bytes, passes):
    # perfbench's piece-clock marks count calls of these functions
    if pass_bytes is not None:
        monkeypatch.setattr(model, "_PASS_BYTES", pass_bytes)
    events = []

    def record(module, name, label, sized=False):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            # a sized label carries the length of a 1-D second argument
            sized_1d = sized and np.ndim(args[1]) == 1
            events.append(f"{label}:{len(args[1])}" if sized_1d else label)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)

    record(kernels, "softmax_stable", "ssm")
    record(kernels, "log_softmax", "lsm")
    record(kernels, "sigmoid", "sig")
    record(training, "clip_gradients", "clip")
    record(evaluate, "perplexity", "eval")
    record(model, "forward_step", "step")
    record(gate, "compute_gate", "gate")
    record(model, "hidden_sequence", "hidden", sized=True)

    def check_phase(blocks, gated):
        # each training block: one block forward, one gate block in the gate
        # phase with one sigmoid per lane, one softmax pass per run of
        # timesteps, then the clip; log_softmax only in the epoch's
        # validation, a single 29-token chunk, whose one lane takes one sigmoid
        gates = ["gate", "sig", "sig"] if gated else []
        cut = events.index("eval")
        assert events[:cut] == (["step"] + gates + ["ssm"] * passes + ["clip"]) * blocks
        assert events[cut + 1:] == ["hidden:29"] + gates[:2] + ["lsm"]
        events.clear()

    rng = np.random.default_rng(0)
    train, valid = rng.integers(0, 12, size=2 * (3 * 4 + 1)), rng.integers(0, 12, size=30)
    assert len(corpus.batchify(train, 2, 4)) == 3
    base = model.init_params(12, 6, 6, seed=1)
    base, _ = training.train_base(training.TrainConfig(batch_size=2, bptt_length=4, max_epochs=1),
                                  train, valid, base)
    check_phase(3, gated=False)
    g = gate.init_gate(12, d_g=5, seed=2)
    training.train_iog(training.iog_config(batch_size=2, bptt_length=4, d_g=5, max_epochs=1),
                       train, valid, base, g)
    check_phase(3, gated=True)
    # eval: per chunk, the recurrence once per member, one gate with one
    # sigmoid, then one log_softmax per member; 29 inputs at chunk=8 give
    # chunks of 8, 8, 8, 5. An lstm_gate's own recurrence adds no sigmoid.
    for eval_gate in (g, gate.init_gate(12, d_g=5, variant="lstm_gate", seed=3)):
        evaluate.perplexity(base, valid, gate=eval_gate, chunk=8)
        assert events == ["eval"] + [e for n in (8, 8, 8, 5)
                                     for e in (f"hidden:{n}", "gate", "sig", "lsm")]
        events.clear()
    evaluate.ensemble_perplexity([base, base], valid, gate=g, chunk=8)
    assert events == [e for n in (8, 8, 8, 5)
                      for e in (f"hidden:{n}", f"hidden:{n}", "gate", "sig", "lsm", "lsm")]
