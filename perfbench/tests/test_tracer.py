"""Tests of the benchmark's tracer and of its claim not to change the program.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import types

import pytest

import tracer
import workloads
from ioglm import checkpoint, corpus, evaluate, gate, kernels, model, synthdata, training

MODULES = {"kernels": kernels, "corpus": corpus, "model": model, "gate": gate,
           "training": training, "evaluate": evaluate, "checkpoint": checkpoint,
           "synthdata": synthdata}


def span(name, start, end, parent, elems=0):
    return [name, start, end, parent, elems]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", 0.0, 10.0, -1),   # children b (3) and d (4)
        span("b", 1.0, 4.0, 0),     # child c (1)
        span("c", 2.0, 3.0, 1),
        span("d", 5.0, 9.0, 0),
        span("b", 11.0, 12.5, -1),  # a second root
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_profile_sums_by_name_and_by_stage():
    spans = [
        span("bench.gate_phase", 0.0, 10.0, -1),
        span("model.forward_step", 1.0, 4.0, 0),
        span("kernels.sigmoid", 2.0, 3.0, 1, elems=6),
        span("model.forward_step", 5.0, 6.0, 0),
        span("kernels.sigmoid", 11.0, 11.5, -1, elems=4),
    ]
    prof = tracer.profile(spans)
    assert prof["model.forward_step"] == {"calls": 2, "self_s": 3.0, "elems": 0}
    assert prof["kernels.sigmoid"] == {"calls": 2, "self_s": 1.5, "elems": 10}
    assert prof["gate_phase.kernels.sigmoid"]["calls"] == 1
    assert prof["gate_phase.model.forward_step"]["self_s"] == 3.0
    assert prof["bench.gate_phase"]["self_s"] == 6.0
    # A range that leaves out a parent still charges its children to it.
    assert tracer.profile(spans, 2, 3)["kernels.sigmoid"]["self_s"] == 1.0
    assert tracer.inclusive_under(spans, "kernels.sigmoid", {"model.forward_step"}) == 1.0


def _toy_module():
    mod = types.ModuleType("toy")
    exec(
        "def leaf(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return leaf(x) * 2\n"
        "def _private(x):\n"
        "    return x\n",
        mod.__dict__,
    )
    return mod


def test_wrappers_record_bare_global_calls_and_are_restored():
    mod = _toy_module()
    originals = dict(vars(mod))
    tr = tracer.Tracer({"toy": mod}, elems_of=("toy.leaf",))
    with tr.installed():
        assert mod.outer is not originals["outer"]
        assert mod._private is originals["_private"]
        assert mod.outer(3) == 8
    assert [(s[tracer.NAME], s[tracer.PARENT], s[tracer.ELEMS]) for s in tr.spans] == [
        ("toy.outer", -1, 0), ("toy.leaf", 0, 1)]
    assert all(vars(mod)[k] is v for k, v in originals.items())


def test_wrappers_are_restored_when_the_block_raises():
    originals = {layer: dict(vars(mod)) for layer, mod in MODULES.items()}
    tr = tracer.Tracer(MODULES)
    with pytest.raises(ZeroDivisionError):
        with tr.installed():
            assert kernels.sigmoid is not originals["kernels"]["sigmoid"]
            1 / 0
    for layer, mod in MODULES.items():
        assert all(vars(mod)[k] is v for k, v in originals[layer].items()), layer


def _tiny(name):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(
        w,
        corpus={**w.corpus, "train_tokens": 700, "valid_tokens": 240, "test_tokens": 240},
        train_blocks=2, valid_len=200, test_len=200,
        base_train={**w.base_train, "max_epochs": 1},
        gates=tuple((variant, {"max_epochs": 1, "d_g": 16}) for variant, _ in w.gates),
        # Too short to learn anything, so the learning checks are off.
        learns_below=None, gates_that_help=(),
    )


@pytest.mark.parametrize("name", ["desk", "variants"])
def test_traced_round_gives_bit_identical_perplexities(name, tmp_path):
    w = _tiny(name)
    plain = workloads.run_round(w, workloads.setup(w, 3), tmp_path)
    tr = tracer.Tracer(MODULES, elems_of=("kernels.sigmoid",))
    with tr.installed():
        with tr.span("setup"):
            inputs = workloads.setup(w, 3)
        traced = workloads.run_round(w, inputs, tmp_path, stage=tr.span)
    assert traced["ppl"] == plain["ppl"]
    assert all(ok for _, ok, _ in workloads.round_checks(w, len(inputs.vocab), traced, plain))
    prof = tracer.profile(tr.spans)
    assert prof["training.train_base"]["calls"] == 2
    assert prof["kernels.sigmoid"]["elems"] > 0
    assert prof["gate_phase.model.forward_step"]["calls"] > 0
