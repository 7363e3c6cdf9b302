import json
import subprocess
import sys

import numpy as np
import pytest

from ioglm import checkpoint, cli


@pytest.fixture()
def toy_corpus(tmp_path):
    rng = np.random.default_rng(0)
    words = [f"tok{i}" for i in range(18)]
    paths = {}
    for split, lines in (("train", 60), ("valid", 12)):
        path = tmp_path / f"{split}.txt"
        text = "\n".join(
            " ".join(words[j] for j in rng.integers(0, 18, size=8)) for _ in range(lines)
        )
        path.write_text(text + "\n")
        paths[split] = str(path)
    return paths


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

    def test_bad_config_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("batch_size = x\n")
        code = run_cli("train", "--config", str(cfg))
        assert code == 1
        assert "error: config key 'batch_size'" in capsys.readouterr().err

    def test_non_integer_threads_is_a_usage_error(self, tmp_path, capsys):
        train = tmp_path / "c.txt"
        train.write_text("a b\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("--threads", "abc", "build-vocab", "--train", str(train),
                    "--output", str(tmp_path / "v.txt"))
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "error:" in err and "--threads" in err and "Traceback" not in err


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
