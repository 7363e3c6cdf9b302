"""`tools/bench_record.py` turns perfbench result files into one record of
medians and quartiles per workload."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

ENV = {"nproc": 2, "numpy": "2.4.6"}


def _result(seed, metrics, wall_rates=None, failed=0):
    """A perfbench result file's fields that the collector reads."""
    return {"seed": seed, "seconds": 30.0, "environment": ENV,
            "median_wall_rates": wall_rates or {},
            "report": {"attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}


def _write(directory, name, result):
    (directory / name).write_text(json.dumps(result))


def test_two_seeds_give_medians_and_inclusive_quartiles(tmp_path):
    _write(tmp_path, "desk-seed1-trace0.json", _result(
        1, {"eval_tok_s": (100.0, "1/s"), "setup_s": (0.4, "s")}, {"eval_tok_s": 80.0}))
    _write(tmp_path, "desk-seed2-trace0.json", _result(
        2, {"eval_tok_s": (300.0, "1/s"), "setup_s": (0.2, "s")}, {"eval_tok_s": 60.0},
        failed=1))
    _write(tmp_path, "desk-seed2-trace1.json", _result(2, {"model.self_s": (1.5, "s")}))
    _write(tmp_path, "desk-seed2-spans.json", [[0, 0.0, 1.0, -1, 0]])  # not a result file
    record = bench_record.collect(tmp_path)

    assert record["environments"] == [ENV]
    desk = record["workloads"]["desk"]
    assert desk["trace0"] == {"seeds": [1, 2], "seconds": [30.0], "checks_attempted": 20,
                              "checks_failed": 1}
    assert desk["end_to_end"]["eval_tok_s"] == {"unit": "1/s", "median": 200.0, "q1": 150.0,
                                                "q3": 250.0, "iqr": 100.0, "n": 2}
    setup = desk["end_to_end"]["setup_s"]
    assert (setup["median"], setup["q1"], setup["q3"]) == pytest.approx((0.3, 0.25, 0.35))
    assert desk["median_wall_rates"]["eval_tok_s"] == {"unit": "1/s", "median": 70.0,
                                                       "q1": 65.0, "q3": 75.0, "iqr": 10.0,
                                                       "n": 2}
    assert desk["trace1"]["seeds"] == [2]
    assert desk["per_layer"]["model.self_s"] == {"unit": "s", "median": 1.5, "q1": 1.5,
                                                 "q3": 1.5, "iqr": 0.0, "n": 1}


def test_writes_the_record_and_refuses_an_empty_directory(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out), "--results", str(tmp_path)]) == 1
    assert "no perfbench result files" in capsys.readouterr().err and not out.exists()
    results = tmp_path / "out"
    results.mkdir()
    _write(results, "ptb-seed3-trace0.json", _result(3, {"eval_tok_s": (5.0, "1/s")}))
    assert bench_record.main([str(out), "--results", str(results)]) == 0
    assert json.loads(out.read_text()) == bench_record.collect(results)
