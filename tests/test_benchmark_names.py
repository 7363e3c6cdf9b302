"""The benchmark's per-layer figures name program functions: perfbench wraps
each one by module attribute and reads its figures under
`<layer>.<function>.<figure>` (optionally behind a stage prefix such as
`gate_phase.`). A function renamed, made private or deleted would only show
up as a missing metric in a traced benchmark run; this test fails first."""

import importlib
import json
import types
from pathlib import Path

import pytest

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
