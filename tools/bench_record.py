"""Collect perfbench results into one benchmark record.

    python3 tools/bench_record.py BENCH_<n>.json [--results perfbench/out]

Reads every `<workload>-seed<N>-trace<0|1>.json` that `perfbench/run.py`
wrote to the results directory and writes one JSON record. It holds the
environment records of the runs and, per workload, the seeds and windows
it was built from, the checks attempted and failed, and each metric as the
median and quartiles over the seeds: the end-to-end metrics of the
`--trace 0` runs (their rates come from steady stage times), the same
rates from median stage wall times, and the per-layer metrics of the
`--trace 1` runs. It only reads results; it runs nothing.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_NAME = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def spread(values) -> dict:
    """Median and quartiles (inclusive method) of the values."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def _metric_table(runs, metrics_of) -> dict:
    """Each metric of the runs as its unit plus its `spread` over them."""
    names = metrics_of(runs[0])
    return {name: {"unit": unit, **spread(metrics_of(r)[name][0] for r in runs)}
            for name, (_, unit) in names.items()}


def _reported(run) -> dict:
    return {name: (m["value"], m["unit"]) for name, m in run["report"]["metrics"].items()}


def _wall_rates(run) -> dict:
    return {name: (value, "1/s") for name, value in run["median_wall_rates"].items()}


def collect(results_dir) -> dict:
    """The record of every result file in `results_dir`."""
    by_workload, environments = {}, []
    for path in sorted(Path(results_dir).glob("*.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match is None:
            continue
        run = json.loads(path.read_text(encoding="utf-8"))
        if run["environment"] not in environments:
            environments.append(run["environment"])
        runs = by_workload.setdefault(match["workload"], {"0": [], "1": []})
        runs[match["trace"]].append(run)
    workloads = {}
    for name, runs in sorted(by_workload.items()):
        entry = {}
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            group = sorted(runs[trace], key=lambda r: r["seed"])
            if not group:
                continue
            entry[f"trace{trace}"] = {
                "seeds": [r["seed"] for r in group],
                "seconds": sorted({r["seconds"] for r in group}),
                "checks_attempted": sum(r["report"]["attempted"] for r in group),
                "checks_failed": sum(r["report"]["failed"] for r in group),
            }
            entry[key] = _metric_table(group, _reported)
            if trace == "0":
                entry["median_wall_rates"] = _metric_table(group, _wall_rates)
        workloads[name] = entry
    if not workloads:
        raise ValueError(f"no perfbench result files in {results_dir}")
    return {"environments": environments, "workloads": workloads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("output", help="the record to write, e.g. BENCH_<n>.json")
    p.add_argument("--results", default=str(ROOT / "perfbench" / "out"),
                   help="directory of perfbench result files")
    args = p.parse_args(argv)
    try:
        record = collect(args.results)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
