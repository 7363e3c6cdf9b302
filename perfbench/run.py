"""Two-phase train/eval benchmark for ioglm.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Runs one workload (`desk`, `ptb`, `variants`) in this process, or every
workload one after another, each in its own process (`--workload all`).
With `--trace 0` it times the pipeline untraced and prints the end-to-end
metrics; with `--trace 1` it runs untraced rounds first, then traced
rounds with every public function of the eight timed ioglm modules
wrapped, and prints the per-layer metrics. Either way it checks the
outputs, writes the full results (and, when traced, the spans) under
`perfbench/out/`, and prints one JSON object as the last line of stdout.
Metric names and units come from BENCHMARK.json at the repository root.
See perfbench/README.md.
"""

import os
import sys
import time

# The BLAS pool size is fixed before numpy is imported, so the numbers
# measure the program rather than the pool.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("desk", "ptb", "variants")
LAYERS = ("kernels", "corpus", "model", "gate", "training", "evaluate", "checkpoint",
          "synthdata")
KERNELS_WITH_ELEMS = ("kernels.sigmoid", "kernels.log_softmax", "kernels.softmax_stable")
SETUP_REPEATS = 7
MIN_ROUNDS = 2


class BenchError(Exception):
    """The benchmark cannot run here."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement window; at least two rounds run regardless")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def import_program():
    """Import ioglm from this checkout's src/, never from anywhere else."""
    if not (SRC / "ioglm" / "__init__.py").is_file():
        raise BenchError(f"no ioglm sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import ioglm

    if Path(ioglm.__file__).resolve().parent != (SRC / "ioglm").resolve():
        raise BenchError(f"imported ioglm from {ioglm.__file__}, not from {SRC}")
    for layer in LAYERS:
        getattr(ioglm, layer)


# ---------------------------------------------------------------------------
# Environment record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_cap": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_in_use": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# Checks

class Checks:
    """Output checks, each one operation that passes or fails."""

    def __init__(self):
        self.results = []

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


# ---------------------------------------------------------------------------
# Measurement

def fresh_import_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports numpy and the
    eight timed modules, start to exit. Imports happen once per process, so
    repeating them needs new processes."""
    code = f"import ioglm; [getattr(ioglm, m) for m in {LAYERS!r}]"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


RATES = {"base_train_tok_s": ("base", "base"), "gate_train_tok_s": ("gate", "gate"),
         "eval_tok_s": ("eval", "eval_plain"), "eval_gated_tok_s": ("eval", "eval_gated"),
         "eval_ensemble_tok_s": ("eval", "eval_ensemble")}


def median_wall_rates(rounds: list) -> dict:
    """Each rate from whole-stage wall times, as a median over rounds."""
    return {name: statistics.median(r["tokens"][tokens] / r["wall"][stage] for r in rounds)
            for name, (tokens, stage) in RATES.items()}


def end_to_end(rounds: list, setup_s: float, steady: dict) -> dict:
    """The end-to-end metrics; rates from the steady stage times."""
    tokens = rounds[0]["tokens"]
    first = rounds[0]["ppl"]
    return {
        "setup_s": setup_s,
        **{name: tokens[key] / steady[stage] for name, (key, stage) in RATES.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "valid_ppl_base": first["valid_base"],
        "valid_ppl_gated": first["valid_gated"],
    }


def round_layer_metrics(tr, lo: int, hi: int, result: dict) -> dict:
    """Per-function and per-layer figures of one traced round (spans lo:hi).
    Counts are ints, times floats."""
    import tracer

    prof = tracer.profile(tr.spans, lo, hi)
    names = tr.function_names
    empty = {"calls": 0, "self_s": 0.0, "elems": 0}
    m = {}
    for name in names:
        t = prof.get(name, empty)
        m[f"{name}.calls"] = t["calls"]
        m[f"{name}.self_s"] = t["self_s"]
        if name in KERNELS_WITH_ELEMS:
            m[f"{name}.elems"] = t["elems"]
    # Stage-scoped figures such as gate_phase.model.forward_step.self_s.
    for key, t in prof.items():
        if key.split(".", 1)[0] not in LAYERS and not key.startswith(tracer.STAGE_PREFIX):
            m[f"{key}.calls"] = t["calls"]
            m[f"{key}.self_s"] = t["self_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(m[f"{name}.self_s"] for name in names
                                   if name.split(".", 1)[0] == layer)
    m["training.validation_s"] = tracer.inclusive_under(
        tr.spans, "evaluate.perplexity", {"training.train_base", "training.train_iog"}, lo, hi)
    m["checkpoint.bytes"] = result["checkpoint_bytes"]
    return m


def per_layer(tr, traced: list, untraced_wall: float, checks: Checks) -> dict:
    """Per-layer metrics over the traced rounds: counts from the first one,
    checked equal in the others; times as medians across them."""
    rows = [round_layer_metrics(tr, lo, hi, result) for lo, hi, result in traced]

    def counts(m):
        return {k: v for k, v in m.items() if isinstance(v, int)}

    for i, m in enumerate(rows[1:], 2):
        checks.check(f"traced round {i}: counts identical to traced round 1",
                     counts(m) == counts(rows[0]))
    out = {k: v if isinstance(v, int) else statistics.median(m[k] for m in rows)
           for k, v in rows[0].items()}
    traced_wall = statistics.median(sum(r["wall"].values()) for _, _, r in traced)
    out["trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return out


def run_workload(args, spec: dict) -> int:
    import ioglm
    import pieces
    import tracer
    import workloads

    clock = time.perf_counter
    w = workloads.WORKLOADS[args.workload]
    checks = Checks()

    def check_round(result, reference, label):
        for name, ok, detail in workloads.round_checks(w, len(inputs.vocab), result,
                                                       reference):
            checks.check(f"{label}: {name}", ok, detail)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=OUT)
    try:
        setup_times, digests = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = clock()
            inputs = workloads.setup(w, args.seed)
            setup_times.append(clock() - start)
            digests.append(workloads.inputs_digest(inputs))
        for d in digests[1:]:
            checks.check("set-up gives identical inputs for the same seed", d == digests[0])

        # Untraced rounds fill the window (half of it when tracing follows).
        # The piece clock marks training blocks and evaluation chunks, and on
        # `ptb` training timesteps too.
        pc = pieces.PieceClock({label: workloads.MARKS[label] for label in w.marks})
        window_start = clock()
        until = window_start + (args.seconds / 2 if args.trace else args.seconds)
        rounds, round_instances = [], []
        with pc.installed():
            while len(rounds) < MIN_ROUNDS or clock() < until:
                lo = len(pc.instances)
                rounds.append(workloads.run_round(w, inputs, workdir, segment=pc.segment))
                round_instances.append(pc.instances[lo:])
                check_round(rounds[-1], rounds[0] if len(rounds) > 1 else None,
                            f"round {len(rounds)}")
        first_shape = pieces.shape(round_instances[0])
        for i, instances in enumerate(round_instances[1:], 2):
            checks.check(f"round {i}: same pieces as round 1",
                         pieces.shape(instances) == first_shape)
        steady = pieces.steady_stage_times(round_instances[0], pc.best)

        extra = {}
        if args.trace:
            modules = {layer: getattr(ioglm, layer) for layer in LAYERS}
            tr = tracer.Tracer(modules, elems_of=KERNELS_WITH_ELEMS)
            traced = []
            with tr.installed():
                while not traced or clock() < window_start + args.seconds:
                    lo = len(tr.spans)
                    with tr.span("setup"):
                        traced_inputs = workloads.setup(w, args.seed)
                    result = workloads.run_round(w, traced_inputs, workdir, stage=tr.span)
                    traced.append((lo, len(tr.spans), result))
            for i, (_, _, result) in enumerate(traced, 1):
                check_round(result, rounds[0], f"traced round {i}")
            untraced_wall = statistics.median(sum(r["wall"].values()) for r in rounds)
            metrics = per_layer(tr, traced, untraced_wall, checks)
            spans_path = OUT / f"{w.name}-seed{args.seed}-spans.json"
            tr.write(spans_path)
            extra = {"traced_rounds": len(traced), "spans": len(tr.spans),
                     "spans_file": str(spans_path.relative_to(ROOT))}
            wanted = spec["per_layer"]
        else:
            setup_s = fresh_import_seconds(SETUP_REPEATS) + statistics.median(setup_times)
            metrics = end_to_end(rounds, setup_s, steady)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    report = {
        "correct": checks.failed == 0,
        "attempted": len(checks.results),
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = environment()
    results = {
        "workload": w.name,
        "why": next(x["why"] for x in spec["workloads"] if x["name"] == w.name),
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup_times_s": setup_times, "rounds": len(rounds),
        "round_walls": [r["wall"] for r in rounds], "round_tokens": rounds[0]["tokens"],
        "steady_stage_s": steady, "median_wall_rates": median_wall_rates(rounds),
        "pieces_per_round": sum(sum(c.values()) for _, _, c in round_instances[0]),
        "fastest_pieces_s": {" ".join(kind): t for kind, t in pc.best.items()},
        "perplexities": rounds[0]["ppl"], "all_metrics": metrics, "checks": checks.results,
        **extra, "report": report,
    }
    results_path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    with open(results_path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)

    print(f"workload {w.name}  seed {args.seed}  rounds {len(rounds)}  nproc {env['nproc']}  "
          f"blas {env['blas']['name']} {env['blas']['version']}  "
          f"blas threads {env['blas_threads_in_use']}")
    for m in wanted:
        print(f"  {m['name']:<48} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"checks: {len(checks.results) - checks.failed}/{len(checks.results)} passed; "
          f"results in {results_path.relative_to(ROOT)}")
    for r in checks.results:
        if not r["ok"]:
            print(f"  FAILED {r['check']}: {r['detail']}")
    print(json.dumps(report))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; stops at the
    first one that fails."""
    for name in WORKLOAD_NAMES:
        status = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False).returncode
        if status:
            return status
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.workload == "all":
            return run_all(args)
        import_program()
        return run_workload(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
