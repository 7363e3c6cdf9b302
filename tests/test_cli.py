import argparse
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import helpers
import numpy as np
import pytest

import ioglm
from ioglm import checkpoint, cli, corpus, gate, model, training


def write_toy_corpus(directory):
    rng = np.random.default_rng(0)
    words = [f"tok{i}" for i in range(18)]
    paths = {}
    for split, lines in (("train", 60), ("valid", 12)):
        path = directory / f"{split}.txt"
        text = "\n".join(
            " ".join(words[j] for j in rng.integers(0, 18, size=8)) for _ in range(lines)
        )
        path.write_text(text + "\n")
        paths[split] = str(path)
    return paths


@pytest.fixture()
def toy_corpus(tmp_path):
    return write_toy_corpus(tmp_path)


def run_cli(*argv):
    return cli.main(list(argv))


def train_small_base(tmp_path, toy_corpus, seed="5"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    vocab_path = tmp_path / "vocab.txt"
    ckpt = tmp_path / "base.ckpt"
    metrics = tmp_path / "base.metrics.jsonl"
    assert run_cli("build-vocab", "--train", toy_corpus["train"],
                   "--output", str(vocab_path)) == 0
    code = run_cli(
        "train", "--train", toy_corpus["train"], "--valid", toy_corpus["valid"],
        "--vocab", str(vocab_path), "--checkpoint-out", str(ckpt),
        "--metrics-out", str(metrics), "--cell", "lstm", "--layers", "1",
        "--d-e", "12", "--d-h", "12", "--batch-size", "4", "--bptt-length", "6",
        "--max-epochs", "2", "--optimizer", "adam", "--initial-lr", "0.01",
        "--lr-schedule", "constant", "--seed", seed,
    )
    assert code == 0
    return vocab_path, ckpt, metrics


class TestBuildVocab:
    def test_writes_expected_file(self, tmp_path, capsys):
        train = tmp_path / "c.txt"
        train.write_text("red green blue red\n")
        out = tmp_path / "vocab.txt"
        assert run_cli("build-vocab", "--train", str(train), "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # 3 words + 2 reserved
        captured = capsys.readouterr().out
        assert "vocabulary size: 5" in captured

    def test_rerun_is_byte_identical(self, tmp_path):
        train = tmp_path / "c.txt"
        train.write_text("a b c a b a\n")
        out = tmp_path / "vocab.txt"
        run_cli("build-vocab", "--train", str(train), "--output", str(out))
        first = out.read_bytes()
        run_cli("build-vocab", "--train", str(train), "--output", str(out))
        assert out.read_bytes() == first

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = run_cli("build-vocab", "--train", str(tmp_path / "nope.txt"),
                       "--output", str(tmp_path / "v.txt"))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_end_to_end_and_checkpoint_config_echo(self, tmp_path, toy_corpus):
        vocab_path, ckpt, metrics = train_small_base(tmp_path, toy_corpus)
        loaded = checkpoint.load_checkpoint(ckpt)
        assert loaded.config["command"] == "train"
        assert loaded.config["max_epochs"] == 2
        records = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]

    def test_same_seed_gives_identical_checkpoints(self, tmp_path, toy_corpus):
        _, ckpt_a, _ = train_small_base(tmp_path / "a", toy_corpus)
        _, ckpt_b, _ = train_small_base(tmp_path / "b", toy_corpus)
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, toy_corpus):
        vocab_path = tmp_path / "v.txt"
        run_cli("build-vocab", "--train", toy_corpus["train"], "--output", str(vocab_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join([
                f"train = {toy_corpus['train']}",
                f"valid = {toy_corpus['valid']}",
                f"vocab = {vocab_path}",
                "d_e = 10",
                "d_h = 10   # comment",
                "batch_size = 4",
                "bptt_length = 5",
                "max_epochs = 3",
                "optimizer = adam",
                "initial_lr = 0.01",
                "lr_schedule = constant",
            ]) + "\n"
        )
        out = tmp_path / "m.ckpt"
        # the flag overrides the config file's 3 epochs
        assert run_cli("train", "--config", str(cfg), "--checkpoint-out", str(out),
                       "--max-epochs", "1") == 0
        assert checkpoint.load_checkpoint(out).config["max_epochs"] == 1

    def test_unknown_config_key_rejected(self, tmp_path, toy_corpus, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate_typo = 1\n")
        code = run_cli("train", "--config", str(cfg))
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("batch_size = x", "error: config key 'batch_size'"),
        ("tie_weights = maybe", "error: config key 'tie_weights': expected a boolean, "
                                "got 'maybe'\n"),
        ("cell = gru", "error: config key 'cell': expected one of ('lstm', 'elman'), "
                       "got 'gru'\n"),
    ], ids=["int", "switch", "choice"])
    def test_bad_config_value_names_the_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = run_cli("train", "--config", str(cfg))
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("word,tied", [("yes", True), ("TRUE", True), ("1", True),
                                           ("no", False), ("False", False), ("0", False)])
    def test_switch_set_in_the_config_file(self, drift_inputs, tmp_path, word, tied):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"tie_weights = {word}\nmax_epochs = 1\n")
        out = tmp_path / "m.ckpt"
        assert run_cli(*_training_argv("train", drift_inputs, out), "--config", str(cfg)) == 0
        assert checkpoint.load_checkpoint(out).lm.tie_weights is tied

    def test_non_finite_initial_lr_names_the_key_before_training(self, tmp_path, toy_corpus,
                                                                 capsys):
        vocab_path = tmp_path / "v.txt"
        run_cli("build-vocab", "--train", toy_corpus["train"], "--output", str(vocab_path))
        code = run_cli("train", "--train", toy_corpus["train"], "--valid", toy_corpus["valid"],
                       "--vocab", str(vocab_path), "--checkpoint-out", str(tmp_path / "m.ckpt"),
                       "--initial-lr", "nan")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: initial_lr must be finite" in err and "epoch" not in err

    def test_non_integer_threads_is_a_usage_error(self, tmp_path, capsys):
        train = tmp_path / "c.txt"
        train.write_text("a b\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("--threads", "abc", "build-vocab", "--train", str(train),
                    "--output", str(tmp_path / "v.txt"))
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "error:" in err and "--threads" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                value, before):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        train = tmp_path / "c.txt"
        train.write_text("a b\n")
        command = ["build-vocab", "--train", str(train), "--output", str(tmp_path / "v.txt")]
        threads = ["--threads", value]
        with pytest.raises(SystemExit) as exc:
            run_cli(*(threads + command if before else command + threads))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --threads: expected a positive integer" in err
        assert not (tmp_path / "v.txt").exists()
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    @pytest.mark.parametrize("spelling", [["--threads", "3"], ["--threads=3"],
                                          ["--thread", "3"], ["--thr=3"]],
                             ids=["full", "full=", "abbrev", "abbrev="])
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_every_spelling_the_parser_takes_caps_the_pools(self, tmp_path, monkeypatch,
                                                              spelling, before):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            monkeypatch.setenv(var, "")  # so that the test's own cap is undone after it
            monkeypatch.delenv(var)
        train = tmp_path / "c.txt"
        train.write_text("a b\n")
        command = ["build-vocab", "--train", str(train), "--output", str(tmp_path / "v.txt")]
        assert run_cli(*(spelling + command if before else command + spelling)) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == os.environ["OMP_NUM_THREADS"] == "3"

    @pytest.mark.parametrize("shape,message", [
        (["--d-e", "0"], "D_e=0"),
        (["--layers", "0"], "layers=0"),
        (["--tie-weights", "--d-e", "4", "--d-h", "6"], "weight tying requires D_e == D_h"),
    ], ids=["d_e", "layers", "tied"])
    def test_bad_model_shape_fails_before_the_corpora_are_read(self, tmp_path, toy_corpus,
                                                                capsys, shape, message):
        vocab = tmp_path / "v.txt"
        assert run_cli("build-vocab", "--train", toy_corpus["train"], "--output", str(vocab)) == 0
        bad = tmp_path / "bad.txt"
        bad.write_bytes("caf\xe9\n".encode("latin-1"))
        code = run_cli("train", "--train", str(bad), "--valid", toy_corpus["valid"],
                       "--vocab", str(vocab), "--checkpoint-out", str(tmp_path / "m.ckpt"), *shape)
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "not UTF-8" not in err

    def test_report_names_no_epoch_when_none_is_finite(self, capsys):
        args = argparse.Namespace(metrics_out=None, checkpoint_out="m.ckpt")
        cli._report_training(args, [{"epoch": 1, "valid_ppl": float("inf")},
                                    {"epoch": 2, "valid_ppl": float("inf")}])
        assert capsys.readouterr().out == (
            "no epoch reached a finite validation perplexity, "
            "so the checkpoint holds the initial parameters -> m.ckpt\n")


class TestTrainIog:
    def test_defaults_follow_recipe(self, tmp_path, toy_corpus):
        _, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        out = tmp_path / "gated.ckpt"
        metrics = tmp_path / "iog.metrics.jsonl"
        code = run_cli(
            "train-iog", "--base-checkpoint", str(base_ckpt),
            "--train", toy_corpus["train"], "--valid", toy_corpus["valid"],
            "--checkpoint-out", str(out), "--metrics-out", str(metrics),
            "--batch-size", "4", "--bptt-length", "6",
        )
        assert code == 0
        loaded = checkpoint.load_checkpoint(out)
        assert loaded.gate is not None
        assert loaded.gate.variant == "input_only"
        assert loaded.gate.d_g == 300
        assert loaded.config["dropout_rate"] == 0.5
        records = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert len(records) == 5

    def test_vocab_mismatch_rejected(self, tmp_path, toy_corpus, capsys):
        _, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        other_vocab = tmp_path / "other.txt"
        other_vocab.write_text("\n".join([f"w{i}" for i in range(21)] + ["<unk>", "<eos>"]) + "\n")
        code = run_cli(
            "train-iog", "--base-checkpoint", str(base_ckpt),
            "--train", toy_corpus["train"], "--valid", toy_corpus["valid"],
            "--vocab", str(other_vocab), "--checkpoint-out", str(tmp_path / "x.ckpt"),
        )
        assert code == 1
        assert "mismatch" in capsys.readouterr().err


class TestEval:
    def test_reports_json(self, tmp_path, toy_corpus, capsys):
        _, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        assert run_cli("eval", "--checkpoint", str(base_ckpt),
                       "--data", toy_corpus["valid"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["perplexity"] >= 1.0

    def test_identity_gate_matches_base(self, tmp_path, toy_corpus, capsys):
        vocab_path, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        gated_ckpt = tmp_path / "gated.ckpt"
        run_cli(
            "train-iog", "--base-checkpoint", str(base_ckpt),
            "--train", toy_corpus["train"], "--valid", toy_corpus["valid"],
            "--checkpoint-out", str(gated_ckpt), "--batch-size", "4",
            "--bptt-length", "6", "--max-epochs", "1", "--d-g", "8",
        )
        capsys.readouterr()
        run_cli("eval", "--checkpoint", str(gated_ckpt), "--data", toy_corpus["valid"],
                "--force-identity-gate")
        forced = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        run_cli("eval", "--checkpoint", str(base_ckpt), "--data", toy_corpus["valid"])
        plain = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(forced["perplexity"] - plain["perplexity"]) < 1e-9

    def test_corrupted_checkpoint_exits_nonzero_without_output(self, tmp_path, toy_corpus,
                                                               capsys):
        _, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        blob = bytearray(base_ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()  # drain output from the training helper
        code = run_cli("eval", "--checkpoint", str(bad), "--data", toy_corpus["valid"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "checksum" in captured.err

    @pytest.mark.parametrize("name,value", [("lm.out_bias", np.nan), ("gate.weight", np.inf)])
    def test_non_finite_parameter_exits_one_naming_the_array(self, tmp_path, toy_corpus,
                                                             capsys, name, value):
        _, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        base = checkpoint.load_checkpoint(base_ckpt)
        gated = tmp_path / "gated.ckpt"
        checkpoint.save_checkpoint(gated, base.vocab, base.lm,
                                   gate=gate.init_gate(len(base.vocab), d_g=4, seed=1))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(helpers.with_entry(gated.read_bytes(), name, value))
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(bad), "--data", toy_corpus["valid"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {bad}: array {name} holds a non-finite value\n"


class TestEnsembleEval:
    def test_single_member_equals_eval(self, tmp_path, toy_corpus, capsys):
        _, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        run_cli("eval", "--checkpoint", str(base_ckpt), "--data", toy_corpus["valid"])
        single = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        run_cli("ensemble-eval", "--checkpoints", str(base_ckpt),
                "--data", toy_corpus["valid"])
        ens = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert ens["perplexity"] == single["perplexity"]
        assert ens["members"][0]["path"] == str(base_ckpt)

    def test_two_member_jensen_bound(self, tmp_path, toy_corpus, capsys):
        _, ckpt_a, _ = train_small_base(tmp_path / "a", toy_corpus, seed="5")
        _, ckpt_b, _ = train_small_base(tmp_path / "b", toy_corpus, seed="9")
        run_cli("ensemble-eval", "--checkpoints", str(ckpt_a), str(ckpt_b),
                "--data", toy_corpus["valid"])
        ens = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        mean_member_nll = sum(m["nll"] for m in ens["members"]) / 2
        assert ens["nll"] <= mean_member_nll + 1e-9


    def test_with_hidden_gate_from_a_base_of_another_width(self, tmp_path, toy_corpus,
                                                           capsys):
        vocab_path, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)  # d_h 12
        narrow, gated = tmp_path / "narrow.ckpt", tmp_path / "gated.ckpt"
        assert run_cli(
            "train", "--train", toy_corpus["train"], "--valid", toy_corpus["valid"],
            "--vocab", str(vocab_path), "--checkpoint-out", str(narrow), "--d-e", "10",
            "--d-h", "10", "--batch-size", "4", "--bptt-length", "6", "--max-epochs", "1",
        ) == 0
        assert run_cli(
            "train-iog", "--base-checkpoint", str(narrow), "--train", toy_corpus["train"],
            "--valid", toy_corpus["valid"], "--checkpoint-out", str(gated),
            "--batch-size", "4", "--bptt-length", "6", "--max-epochs", "1", "--d-g", "8",
            "--gate-variant", "with_hidden",
        ) == 0
        capsys.readouterr()
        code = run_cli("ensemble-eval", "--checkpoints", str(base_ckpt), "--gate-from",
                       str(gated), "--data", toy_corpus["valid"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "gate.d_h=10, but the base has d_h=12" in captured.err


class TestAnalyze:
    def _gated(self, tmp_path, toy_corpus, variant="input_only"):
        _, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        gated = tmp_path / "gated.ckpt"
        run_cli(
            "train-iog", "--base-checkpoint", str(base_ckpt),
            "--train", toy_corpus["train"], "--valid", toy_corpus["valid"],
            "--checkpoint-out", str(gated), "--batch-size", "4", "--bptt-length", "6",
            "--max-epochs", "1", "--d-g", "8", "--gate-variant", variant,
        )
        return gated

    def test_rows_in_input_order_with_oov(self, tmp_path, toy_corpus, capsys):
        gated = self._gated(tmp_path, toy_corpus)
        capsys.readouterr()
        code = run_cli(
            "analyze", "--checkpoint", str(gated), "--words", "tok3", "zzz", "tok1",
            "--k", "3", "--min-freq", "1", "--freq-corpus", toy_corpus["train"],
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("tok3\t")
        assert lines[1] == "zzz\t<oov>"
        assert lines[2].startswith("tok1\t")
        assert len(lines[0].split("\t")[1].split()) == 3

    def test_k_zero_gives_empty_lists(self, tmp_path, toy_corpus, capsys):
        gated = self._gated(tmp_path, toy_corpus)
        capsys.readouterr()
        code = run_cli("analyze", "--checkpoint", str(gated), "--words", "tok2",
                       "--k", "0", "--min-freq", "0")
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["tok2\t"]

    def test_wrong_variant_exits_nonzero(self, tmp_path, toy_corpus, capsys):
        gated = self._gated(tmp_path, toy_corpus, variant="lstm_gate")
        capsys.readouterr()
        code = run_cli("analyze", "--checkpoint", str(gated), "--words", "tok2",
                       "--min-freq", "0")
        assert code == 1
        assert "input_only" in capsys.readouterr().err


@pytest.fixture(scope="module")
def unfit_inputs(tmp_path_factory):
    """A base and a gated checkpoint, made without training, over each of
    two vocabularies, `a` and `b`, and a text in `a`'s words."""
    root = tmp_path_factory.mktemp("unfit")
    paths = {"data": root / "a.txt"}
    paths["data"].write_text("red green blue red\n")
    for name, text in (("a", "red green blue red\n"), ("b", "one two\n")):
        vocab = corpus.build_vocab(text)
        lm = model.init_params(len(vocab), 4, 4, seed=1)
        paths[f"base_{name}"] = root / f"base_{name}.ckpt"
        checkpoint.save_checkpoint(paths[f"base_{name}"], vocab, lm)
        paths[f"gated_{name}"] = root / f"gated_{name}.ckpt"
        checkpoint.save_checkpoint(paths[f"gated_{name}"], vocab, lm,
                                   gate=gate.init_gate(len(vocab), d_g=3, seed=2))
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("argv,message", [
    (["ensemble-eval", "--checkpoints", "{base_a}", "{base_b}", "--data", "{data}"],
     "vocabulary mismatch between {base_a} and {base_b}"),
    (["ensemble-eval", "--checkpoints", "{base_a}", "--gate-from", "{base_a}", "--data",
      "{data}"], "{base_a} contains no gate parameters"),
    (["ensemble-eval", "--checkpoints", "{base_a}", "--gate-from", "{gated_b}", "--data",
      "{data}"], "gate checkpoint {gated_b} has a different vocabulary"),
    (["analyze", "--checkpoint", "{base_a}", "--words", "red"],
     "{base_a} contains no gate parameters"),
    (["analyze", "--checkpoint", "{gated_a}", "--words", "red", "--min-freq", "2"],
     "--min-freq > 0 requires --freq-corpus for the counts"),
], ids=["ensemble-vocabularies", "gate-from-no-gate", "gate-from-other-vocabulary",
        "analyze-no-gate", "min-freq-without-corpus"])
def test_checkpoint_unfit_for_the_command_is_refused(unfit_inputs, capsys, argv, message):
    assert run_cli(*(arg.format(**unfit_inputs) for arg in argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**unfit_inputs)}\n"


class TestModuleEntryPoint:
    def test_python_dash_m_smoke(self, tmp_path):
        train = tmp_path / "c.txt"
        train.write_text("a b c a\n")
        out = tmp_path / "v.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "ioglm", "--threads", "1", "build-vocab",
             "--train", str(train), "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "vocabulary size" in proc.stdout
        assert out.exists()

    def test_importing_the_cli_loads_no_numpy(self):
        # --threads caps the BLAS pools through the environment, which works
        # only while numpy is still unloaded when the CLI has parsed its flags.
        script = "\n".join([
            "import sys, ioglm.cli as cli",
            "cli.build_parser()",
            "try:",
            "    cli.main(['--threads', '0', 'eval'])",
            "except SystemExit:",
            "    pass",
            "print('numpy' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "argument --threads: expected a positive integer" in proc.stderr
        assert proc.stdout == "False\n"

    def test_readme_module_table_lists_every_submodule_in_order(self):
        readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text("utf-8")
        rows = re.findall(r"^\| `ioglm\.(\w+)` \|", readme, flags=re.MULTILINE)
        assert rows == list(ioglm._SUBMODULES)


class TestNonUtf8Inputs:
    def test_vocabulary_file_is_named(self, tmp_path, toy_corpus, capsys):
        vocab = tmp_path / "latin1.txt"
        vocab.write_bytes("caf\xe9\n<unk>\n<eos>\n".encode("latin-1"))
        code = run_cli("train", "--train", toy_corpus["train"], "--valid", toy_corpus["valid"],
                       "--vocab", str(vocab), "--checkpoint-out", str(tmp_path / "m.ckpt"))
        assert code == 1
        err = capsys.readouterr().err
        assert str(vocab) in err and "not UTF-8" in err

    def test_config_file_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("train = caf\xe9.txt\n".encode("latin-1"))
        code = run_cli("build-vocab", "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "not UTF-8" in err


# Every TrainConfig field must reach each training command it applies to, both
# as a flag and as a config key. Each value differs from both phases' defaults
# (optimizer has only two choices, so it is picked per command).
FIELD_VALUES = {
    "batch_size": 3, "bptt_length": 4, "max_epochs": 2, "initial_lr": 0.003,
    "lr_schedule": "constant", "lr_step_factor": 0.25, "lr_step_start": 2,
    "dropout_rate": 0.25, "grad_clip_norm": 2.5, "seed": 7, "d_g": 6,
    "gate_variant": "with_hidden",
}
OPTIMIZER_VALUES = {"train": "adam", "train-iog": "sgd"}
ALL_FIELDS = {f.name for f in dataclasses.fields(training.TrainConfig)}
COMMAND_FIELDS = {
    "train": ALL_FIELDS - {"phase", "d_g", "gate_variant"},
    "train-iog": ALL_FIELDS - {"phase"},
}
FIELD_CASES = [
    (command, f.name)
    for f in dataclasses.fields(training.TrainConfig)
    for command in COMMAND_FIELDS
    if f.name in COMMAND_FIELDS[command]
]


@pytest.fixture(scope="module")
def drift_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("drift")
    paths = write_toy_corpus(root)
    vocab = corpus.build_vocab(corpus.load_text(paths["train"]))
    paths["vocab"] = str(root / "vocab.txt")
    vocab.save(paths["vocab"])
    paths["base"] = str(root / "base.ckpt")
    checkpoint.save_checkpoint(paths["base"], vocab, model.init_params(len(vocab), 4, 4, seed=1))
    return paths


def _training_argv(command, paths, out):
    argv = [command, "--train", paths["train"], "--valid", paths["valid"],
            "--checkpoint-out", str(out)]
    if command == "train":
        return argv + ["--vocab", paths["vocab"], "--d-e", "4", "--d-h", "4"]
    return argv + ["--base-checkpoint", paths["base"]]


class TestTrainConfigDriftGuard:
    @pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("command,name", FIELD_CASES)
    def test_field_reaches_checkpoint_echo(self, drift_inputs, tmp_path, command, name,
                                           as_config):
        value = OPTIMIZER_VALUES[command] if name == "optimizer" else FIELD_VALUES[name]
        default = training.TrainConfig() if command == "train" else training.iog_config()
        assert getattr(default, name) != value
        settings = {"max_epochs": 1, "d_g": 4} if command == "train-iog" else {"max_epochs": 1}
        settings[name] = value
        out = tmp_path / "m.ckpt"
        argv = _training_argv(command, drift_inputs, out)
        if as_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{name} = {settings.pop(name)}\n")
            argv += ["--config", str(cfg)]
        for key, setting in settings.items():
            argv += ["--" + key.replace("_", "-"), str(setting)]
        assert run_cli(*argv) == 0
        assert checkpoint.load_checkpoint(out).config[name] == value

    @pytest.mark.parametrize("command", sorted(COMMAND_FIELDS))
    def test_phase_is_not_a_config_key(self, drift_inputs, tmp_path, command, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phase = iog\n")
        argv = _training_argv(command, drift_inputs, tmp_path / "m.ckpt")
        assert run_cli(*argv, "--config", str(cfg)) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_readme_lists_every_training_key_in_order(self):
        readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text("utf-8")
        listed = readme.split("every field of `training.TrainConfig` (", 1)[1].split(")", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == [
            f.name for f in dataclasses.fields(training.TrainConfig) if f.name != "phase"]

    def test_variant_compare_takes_every_field_but_the_variant(self):
        names = sorted(ALL_FIELDS - {"phase", "gate_variant"})
        argv = ["variant-compare"]
        for name in names:
            value = OPTIMIZER_VALUES["train-iog"] if name == "optimizer" else FIELD_VALUES[name]
            argv += ["--" + name.replace("_", "-"), str(value)]
        args = cli.build_parser().parse_args(argv)
        assert all(getattr(args, name) is not None for name in names)

    def test_train_iog_step_schedule(self, drift_inputs, tmp_path):
        metrics = tmp_path / "iog.jsonl"
        argv = _training_argv("train-iog", drift_inputs, tmp_path / "m.ckpt")
        assert run_cli(*argv, "--metrics-out", str(metrics), "--d-g", "4",
                       "--lr-schedule", "step", "--lr-step-start", "1",
                       "--lr-step-factor", "0.1", "--max-epochs", "2") == 0
        records = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert [r["lr"] for r in records] == pytest.approx([0.001, 0.0001], rel=1e-12)



class TestVariantCompare:
    def test_json_is_the_whole_stdout(self, drift_inputs, capsys):
        assert run_cli("variant-compare", "--base-checkpoint", drift_inputs["base"],
                       "--train", drift_inputs["train"], "--valid", drift_inputs["valid"],
                       "--test", drift_inputs["valid"], "--d-g", "4", "--max-epochs", "1",
                       "--batch-size", "4", "--bptt-length", "6", "--json") == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert [r["variant"] for r in rows] == ["input_only", "with_hidden", "lstm_gate"]
        assert "[iog:lstm_gate] epoch 1:" in captured.err

    @pytest.mark.parametrize("train", ["good", "not-utf8"])
    @pytest.mark.parametrize("variants,message", [
        ("input_only,lstm_gat", "unknown gate_variant 'lstm_gat'"),
        (",", "no gate variants to compare"),
        ("bogus", "unknown gate_variant 'bogus'"),
    ])
    def test_bad_variant_list_fails_before_any_training(self, drift_inputs, tmp_path, capsys,
                                                        monkeypatch, train, variants, message):
        """The list is checked before the base checkpoint or a corpus is read."""
        train_path = drift_inputs["train"]
        if train == "not-utf8":
            train_path = tmp_path / "bad.txt"
            train_path.write_bytes("caf\xe9\n".encode("latin-1"))
        monkeypatch.setattr(checkpoint, "load_checkpoint", None)
        assert run_cli("variant-compare", "--base-checkpoint", drift_inputs["base"],
                       "--train", str(train_path), "--valid", drift_inputs["valid"],
                       "--test", drift_inputs["valid"], "--d-g", "4", "--max-epochs", "1",
                       "--variants", variants) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

class TestConfigOnEveryCommand:
    def test_eval_config_matches_flags(self, tmp_path, toy_corpus, capsys):
        _, base_ckpt, _ = train_small_base(tmp_path, toy_corpus)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(base_ckpt), "--data", toy_corpus["valid"],
                       "--chunk", "7") == 0
        by_flags = capsys.readouterr().out
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"checkpoint = {base_ckpt}\ndata = {toy_corpus['valid']}\nchunk = 7\n")
        assert run_cli("eval", "--config", str(cfg)) == 0
        assert capsys.readouterr().out == by_flags

    def test_missing_config_file_exits_one(self, tmp_path, toy_corpus, capsys):
        code = run_cli("eval", "--config", str(tmp_path / "nonexistent.cfg"),
                       "--checkpoint", str(tmp_path / "x.ckpt"), "--data", toy_corpus["valid"])
        assert code == 1
        assert "nonexistent.cfg" in capsys.readouterr().err

    def test_unknown_eval_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("max_epochs = 3\n")
        assert run_cli("eval", "--config", str(cfg)) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_key_set_twice_names_the_key_and_both_lines(self, tmp_path, toy_corpus, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"chunk = 7\n# comment\ndata = {toy_corpus['valid']}\nchunk = 9\n")
        assert run_cli("eval", "--config", str(cfg), "--checkpoint", "x.ckpt") == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:4: key 'chunk' is set again, first on line 1\n"

    def test_missing_required_input_exits_one(self, tmp_path, toy_corpus, capsys):
        assert run_cli("eval", "--data", toy_corpus["valid"]) == 1
        assert "error: eval needs --checkpoint" in capsys.readouterr().err


def _refuse_to_load(path):
    raise AssertionError(f"{path} was loaded")


class TestIntegerFlags:
    """`--chunk` and `--k` are parsed as `--threads` is: a bad flag is a usage
    error before any input is read, and a bad config value names its key."""

    @pytest.mark.parametrize("command,flag", [("eval", "--checkpoint"),
                                              ("ensemble-eval", "--checkpoints")])
    def test_chunk_below_one_fails_before_any_read(self, toy_corpus, capsys, monkeypatch,
                                                   command, flag):
        monkeypatch.setattr(checkpoint, "load_checkpoint", _refuse_to_load)
        with pytest.raises(SystemExit) as exc:
            run_cli(command, flag, toy_corpus["train"], "--data", toy_corpus["valid"],
                    "--chunk", "0")
        assert exc.value.code == 2
        assert "argument --chunk: expected a positive integer, got '0'" in capsys.readouterr().err

    def test_negative_k_fails_whatever_the_words(self, declared_inputs, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--checkpoint", declared_inputs["checkpoint"], "--words", "zzz",
                    "--k", "-1", "--min-freq", "0")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --k: expected a non-negative integer, got '-1'" in captured.err

    def test_chunk_of_zero_in_the_config_file_names_the_key(self, tmp_path, toy_corpus, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(checkpoint, "load_checkpoint", _refuse_to_load)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("chunk = 0\n")
        assert run_cli("eval", "--config", str(cfg), "--checkpoint", toy_corpus["train"],
                       "--data", toy_corpus["valid"]) == 1
        assert capsys.readouterr().err == ("error: config key 'chunk': expected a positive "
                                           "integer, got '0'\n")


# Every command's declared input and output flags, read from the parser, so
# that a path flag declared later is covered without editing this test.
def _declarations():
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    keys = ("flags", "required", "reads", "writes")
    return {name: {key: p.get_default(key) for key in keys} for name, p in commands.items()}


DECLARED = _declarations()
SMALL_RUN = {"max_epochs": "1", "batch_size": "4", "bptt_length": "6", "d_e": "4",
             "d_h": "4", "d_g": "4"}
DECLARED_CASES = [(command, None, None) for command in DECLARED] + [
    (command, role, key)
    for command, spec in DECLARED.items() for role in ("reads", "writes") for key in spec[role]
]


@pytest.fixture(scope="module")
def declared_inputs(drift_inputs, tmp_path_factory):
    """One valid file per kind of input: a gated checkpoint (an LSTM base with
    an input_only gate) serves every checkpoint flag."""
    base = checkpoint.load_checkpoint(drift_inputs["base"])
    gated = tmp_path_factory.mktemp("declared") / "gated.ckpt"
    checkpoint.save_checkpoint(gated, base.vocab, base.lm,
                               gate=gate.init_gate(len(base.vocab), d_g=4, seed=2))
    return {**drift_inputs, "checkpoint": str(gated)}


def _declared_argv(command, inputs, directory, replace):
    """`command` with every declared path valid but `replace`'s, each
    required flag set, and a training run kept small; a list input holds a
    valid path before the replaced one, since each of its paths is checked."""
    spec = DECLARED[command]
    argv = [command]
    for key, (kind, _, _) in spec["flags"].items():
        if key in spec["reads"]:
            valid = inputs["checkpoint" if "checkpoint" in key or key == "gate_from"
                           else "vocab" if key == "vocab" else "train"]
            chosen = replace.get(key, valid)
            values = [valid, chosen] if kind is list else [chosen]
        elif key in spec["writes"]:
            values = [replace.get(key, str(directory / f"{key}.out"))]
        elif key in spec["required"]:
            values = ["tok1"]
        elif key in SMALL_RUN:
            values = [SMALL_RUN[key]]
        else:
            continue
        argv += ["--" + key.replace("_", "-"), *values]
    return argv


class TestDeclaredChecks:
    @pytest.mark.parametrize("command,role,key", DECLARED_CASES,
                             ids=[f"{c}-{r}-{k}" if k else f"{c}-all-present"
                                  for c, r, k in DECLARED_CASES])
    def test_missing_input_or_output_directory_fails_before_any_work(
            self, declared_inputs, tmp_path, capsys, command, role, key):
        missing = tmp_path / "absent" / "x.txt"
        argv = _declared_argv(command, declared_inputs, tmp_path,
                              {key: str(missing)} if key else {})
        code = run_cli(*argv)
        captured = capsys.readouterr()
        written = [tmp_path / f"{k}.out" for k in DECLARED[command]["writes"]]
        if key is None:  # the control: with every path present the command runs
            assert code == 0, captured.err
            assert all(p.exists() for p in written)
            return
        expected = (f"cannot read input file: {missing}" if role == "reads"
                    else f"output directory does not exist: {missing.parent}")
        assert code == 1
        assert (captured.out, captured.err) == ("", f"error: {expected}\n")
        assert not any(p.exists() for p in written)


NON_TRAINING = ["build-vocab", "eval", "ensemble-eval", "analyze"]


class TestSeedIsARecipeFlag:
    def test_only_the_training_commands_take_seed(self):
        assert sorted(c for c, spec in DECLARED.items() if "seed" in spec["flags"]) == [
            "train", "train-iog", "variant-compare"]

    @pytest.mark.parametrize("argv", [[c, "--seed=1"] for c in NON_TRAINING]
                             + [["--seed=1", "train"]])
    def test_seed_flag_elsewhere_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed=1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", NON_TRAINING)
    def test_seed_config_key_is_unknown(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        assert run_cli(command, "--config", str(cfg)) == 1
        assert capsys.readouterr().err == "error: unknown config keys: seed\n"

    def test_negative_seed_names_the_field_before_any_input_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.txt")
        code = run_cli("train", "--train", missing, "--valid", missing, "--vocab", missing,
                       "--checkpoint-out", str(tmp_path / "m.ckpt"), "--seed", "-1")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: seed must be finite and non-negative" in err
        assert "cannot read input file" not in err
