"""Seeded fuzz of the three readers: checkpoints, config files, and text
inputs (vocabularies and corpora). A bad input fails with the reader's own
error, never with another exception type, and the CLI reports it on one
``error:`` line without a traceback. Every case is seeded and the whole
module runs in a few seconds."""

import helpers
import numpy as np
import pytest

from ioglm import checkpoint, cli, corpus, gate, model


@pytest.fixture(scope="module")
def gated(tmp_path_factory):
    """The path of a small checkpoint, an LSTM base with an input_only gate,
    and of a text in its vocabulary that the CLI cases read as a corpus."""
    directory = tmp_path_factory.mktemp("fuzz")
    text = "the cat sat on the mat\nthe end\n"
    vocab = corpus.build_vocab(text)
    path = directory / "gated.ckpt"
    checkpoint.save_checkpoint(path, vocab, model.init_params(len(vocab), 2, 2, seed=6),
                               gate=gate.init_gate(len(vocab), d_g=4, seed=7))
    data = directory / "data.txt"
    data.write_text(text)
    return path, data


def _flips(blob, rng):
    """Every position once with a seeded XOR mask and once set to 0xFF, the
    second of which makes a float32 whose exponent ends in a 1 bit an
    infinity or a NaN when it lands on the entry's high byte."""
    for pos in range(len(blob)):
        for value in (blob[pos] ^ int(rng.integers(1, 256)), 0xFF):
            if value != blob[pos]:
                flipped = bytearray(blob)
                flipped[pos] = value
                yield bytes(flipped)


class TestCheckpointFuzz:
    def test_every_truncation_fails_with_checkpoint_error(self, tmp_path, gated):
        blob = gated[0].read_bytes()
        bad = tmp_path / "short.ckpt"
        for size in range(len(blob)):
            bad.write_bytes(blob[:size])
            with pytest.raises(checkpoint.CheckpointError):
                checkpoint.load_checkpoint(bad)

    def test_byte_flips_fail_with_checkpoint_error(self, tmp_path, gated):
        bad = tmp_path / "flipped.ckpt"
        for flipped in _flips(gated[0].read_bytes(), np.random.default_rng(0)):
            bad.write_bytes(flipped)
            with pytest.raises(checkpoint.CheckpointError):
                checkpoint.load_checkpoint(bad)

    def test_redigested_byte_flips_are_refused_or_load_finite(self, tmp_path, gated):
        """Behind a valid digest a flip reaches the header and payload
        checks: it raises CheckpointError or loads a model whose every
        parameter is finite."""
        bad = tmp_path / "flipped.ckpt"
        refused = loaded = 0
        for flipped in _flips(gated[0].read_bytes()[:-8], np.random.default_rng(1)):
            bad.write_bytes(helpers.redigested(flipped))
            try:
                ckpt = checkpoint.load_checkpoint(bad)
            except checkpoint.CheckpointError:
                refused += 1
                continue
            loaded += 1
            sets = [ckpt.lm] if ckpt.gate is None else [ckpt.lm, ckpt.gate]
            assert all(np.isfinite(a).all() for s in sets for a in s.named_arrays().values())
        assert refused and loaded


CONFIG_TOKENS = ["chunk", "data", "checkpoint", "seed", "force_identity_gate", "chunks", "=",
                 "==", "#", "0", "-1", "2.5", "1e9", "true", "maybe", "é", "\t", "\x00", "\\"]
VOCAB_TOKENS = ["the", "cat", "<unk>", "<eos>", "mat", "\x00", "é", "\t", "dog", " "]


def _random_bytes(rng):
    return rng.integers(0, 256, size=int(rng.integers(16, 160)), dtype=np.uint8).tobytes()


def _random_tokens(rng, tokens):
    lines = [" ".join(rng.choice(tokens, size=int(rng.integers(1, 6))))
             for _ in range(int(rng.integers(1, 8)))]
    return "\n".join(lines).encode("utf-8")


def _run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_clean_failure(code, err):
    assert code in (1, 2), err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1, err


class TestCliFuzz:
    @pytest.mark.parametrize("kind", ["bytes", "tokens"])
    def test_config_file_fails_on_one_error_line(self, tmp_path, gated, capsys, kind):
        rng = np.random.default_rng(2)
        path, data = gated
        cfg = tmp_path / "fuzz.cfg"
        for _ in range(40):
            cfg.write_bytes(_random_bytes(rng) if kind == "bytes"
                            else _random_tokens(rng, CONFIG_TOKENS))
            code, _, err = _run(capsys, "eval", "--config", cfg, "--checkpoint", path,
                                "--data", data)
            _assert_clean_failure(code, err)

    @pytest.mark.parametrize("kind", ["bytes", "tokens"])
    def test_vocabulary_file_fails_on_one_error_line(self, tmp_path, gated, capsys, kind):
        """No random file holds the checkpoint's vocabulary, so `train-iog`
        refuses each one before any training starts."""
        rng = np.random.default_rng(3)
        path, data = gated
        vocab = tmp_path / "fuzz.vocab"
        for _ in range(40):
            vocab.write_bytes(_random_bytes(rng) if kind == "bytes"
                              else _random_tokens(rng, VOCAB_TOKENS))
            code, _, err = _run(capsys, "train-iog", "--base-checkpoint", path, "--train", data,
                                "--valid", data, "--vocab", vocab,
                                "--checkpoint-out", tmp_path / "out.ckpt")
            _assert_clean_failure(code, err)
        assert not (tmp_path / "out.ckpt").exists()

    def test_random_byte_corpus_fails_on_one_error_line(self, tmp_path, gated, capsys):
        rng = np.random.default_rng(4)
        path, _ = gated
        text = tmp_path / "fuzz.txt"
        for _ in range(40):
            text.write_bytes(_random_bytes(rng))
            code, _, err = _run(capsys, "eval", "--checkpoint", path, "--data", text)
            _assert_clean_failure(code, err)
            code, _, err = _run(capsys, "build-vocab", "--train", text,
                                "--output", tmp_path / "vocab.txt")
            _assert_clean_failure(code, err)

    def test_random_token_corpus_is_read_or_fails_on_one_error_line(self, tmp_path, gated,
                                                                    capsys):
        """Any UTF-8 text is a corpus, its unknown words read as <unk>, so a
        random-token corpus may be scored; whatever it does not score fails
        on one error line."""
        rng = np.random.default_rng(5)
        path, _ = gated
        text = tmp_path / "fuzz.txt"
        scored = 0
        for _ in range(40):
            text.write_bytes(_random_tokens(rng, VOCAB_TOKENS + CONFIG_TOKENS))
            code, out, err = _run(capsys, "eval", "--checkpoint", path, "--data", text)
            if code == 0:
                scored += 1
                assert err == "" and out.count("\n") == 1
            else:
                _assert_clean_failure(code, err)
        assert scored
