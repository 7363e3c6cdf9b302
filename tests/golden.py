"""Same-seed outputs of a small `ioglm` pipeline, pinned as digests.

Run with a working directory, the script generates a synthetic corpus there
and runs twelve CLI commands on it with relative paths: `build-vocab`; `train`
for an LSTM with dropout and for a tied 2-layer Elman; `train-iog` for each
gate variant; `eval` at chunks 128, 7 and 1; `ensemble-eval --gate-from`;
`analyze`; `variant-compare --json`. It prints one JSON object: the
fingerprint of what trained bytes depend on (numpy, the BLAS, the CPU) and
the BLAKE2b-64 of every file written, with `wall_seconds` left out of the
metrics records, and of each command's stdout and stderr.

    python tests/golden.py DIR            # print the outputs of a run in DIR
    python tests/golden.py --write        # regenerate tests/golden.json

The thread caps are set before numpy loads, so every BLAS call runs on one
thread. `tests/test_golden.py` compares a run with `tests/golden.json`.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SRC = HERE.parent / "src"

DATA = ["--train", "synth.train.txt", "--valid", "synth.valid.txt"]
BLOCK = ["--batch-size", "8", "--bptt-length", "10", "--max-epochs", "2"]
COMMANDS = [
    ["build-vocab", "--train", "synth.train.txt", "--output", "vocab.txt"],
    ["train", *DATA, "--vocab", "vocab.txt", "--checkpoint-out", "lstm.ckpt",
     "--metrics-out", "lstm.jsonl", "--cell", "lstm", "--d-e", "16", "--d-h", "16", *BLOCK,
     "--optimizer", "adam", "--initial-lr", "0.01", "--lr-schedule", "constant",
     "--dropout-rate", "0.2", "--seed", "3"],
    ["train", *DATA, "--vocab", "vocab.txt", "--checkpoint-out", "elman.ckpt",
     "--metrics-out", "elman.jsonl", "--cell", "elman", "--layers", "2", "--tie-weights",
     "--d-e", "12", "--d-h", "12", *BLOCK, "--initial-lr", "0.5", "--lr-step-start", "2",
     "--seed", "4"],
    *[["train-iog", "--base-checkpoint", "lstm.ckpt", *DATA, "--checkpoint-out",
       f"{variant}.ckpt", "--metrics-out", f"{variant}.jsonl", "--gate-variant", variant,
       "--d-g", "8", *BLOCK, "--initial-lr", "0.01", "--seed", "5"]
      for variant in ("input_only", "with_hidden", "lstm_gate")],
    ["eval", "--checkpoint", "input_only.ckpt", "--data", "synth.test.txt", "--chunk", "128"],
    ["eval", "--checkpoint", "with_hidden.ckpt", "--data", "synth.test.txt", "--chunk", "7"],
    ["eval", "--checkpoint", "lstm_gate.ckpt", "--data", "synth.test.txt", "--chunk", "1"],
    ["ensemble-eval", "--checkpoints", "lstm.ckpt", "elman.ckpt", "--gate-from",
     "input_only.ckpt", "--data", "synth.test.txt"],
    ["analyze", "--checkpoint", "input_only.ckpt", "--words", "w000", "w007", "nonword",
     "--k", "3", "--min-freq", "2", "--freq-corpus", "synth.train.txt"],
    ["variant-compare", "--base-checkpoint", "elman.ckpt", *DATA, "--test", "synth.test.txt",
     "--d-g", "6", "--batch-size", "8", "--bptt-length", "10", "--max-epochs", "1", "--json"],
]


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def fingerprint() -> dict:
    """What trained bytes depend on besides the code: numpy, the BLAS and the
    CPU model."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {"numpy": numpy.__version__, "blas": blas, "cpu_model": cpu}


def _file_digest(path: pathlib.Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".jsonl":  # per-epoch records, without their wall time
        records = [json.loads(line) for line in data.decode().splitlines()]
        data = "\n".join(json.dumps({k: v for k, v in r.items() if k != "wall_seconds"},
                                    sort_keys=True) for r in records).encode()
    return _digest(data)


def run_pipeline(directory) -> dict:
    """Run the pipeline in `directory`, which must be empty; returns the
    fingerprint and the digests of its outputs."""
    sys.path.insert(0, str(SRC))
    from ioglm import cli, synthdata

    os.chdir(directory)
    corpus = synthdata.generate_class_bigram_corpus(
        seed=1, n_classes=4, words_per_class=10, train_tokens=3000, valid_tokens=500,
        test_tokens=500, zipf_exponent=1.5)
    synthdata.write_corpus(corpus, ".")
    digests = {}
    for i, argv in enumerate(COMMANDS):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--threads", "1", *argv])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue()}")
        digests[f"{i:02d} {argv[0]} stdout"] = _digest(out.getvalue().encode())
        digests[f"{i:02d} {argv[0]} stderr"] = _digest(err.getvalue().encode())
    for path in sorted(pathlib.Path(".").iterdir()):
        if not path.name.startswith("synth."):
            digests[path.name] = _file_digest(path)
    return {"fingerprint": fingerprint(), "digests": digests}


def run_in_subprocess(directory) -> dict:
    """`run_pipeline` in a fresh interpreter, whose numpy loads after the
    thread caps are set."""
    os.makedirs(directory)
    proc = subprocess.run([sys.executable, __file__, str(directory)], capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"golden pipeline failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv) -> int:
    if argv == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_in_subprocess(os.path.join(tmp, "golden"))
        GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_pipeline(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
