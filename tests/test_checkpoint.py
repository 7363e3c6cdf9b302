import hashlib
import json
import os
import re
import struct
import types

import helpers
import numpy as np
import pytest

from ioglm import checkpoint, corpus, evaluate, gate, model


def small_vocab():
    return corpus.build_vocab("the cat sat on the mat the end")


def arrays_equal(a, b):
    named_a, named_b = a.named_arrays(), b.named_arrays()
    assert set(named_a) == set(named_b)
    for key in named_a:
        assert named_a[key].dtype == named_b[key].dtype, key
        assert np.array_equal(named_a[key], named_b[key]), key


class TestRoundTrip:
    @pytest.mark.parametrize("cell_kind", ["lstm", "elman"])
    @pytest.mark.parametrize("tie", [False, True])
    def test_base_only(self, tmp_path, cell_kind, tie):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 6, 6, layers=2, cell_kind=cell_kind,
                               tie_weights=tie, seed=0)
        path = tmp_path / "base.ckpt"
        checkpoint.save_checkpoint(path, vocab, lm, config={"note": "base"})
        loaded = checkpoint.load_checkpoint(path)
        assert loaded.vocab == vocab
        assert loaded.gate is None
        assert loaded.config == {"note": "base"}
        assert loaded.lm.cell_kind == cell_kind
        assert loaded.lm.tie_weights == tie
        arrays_equal(loaded.lm, lm)
        if tie:
            assert loaded.lm.out_weight is loaded.lm.embedding

    @pytest.mark.parametrize("variant,d_h", [
        ("input_only", None), ("with_hidden", 6), ("lstm_gate", None),
    ])
    def test_with_gate(self, tmp_path, variant, d_h):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 6, 6, seed=1)
        g = gate.init_gate(len(vocab), d_g=4, variant=variant, d_h=d_h, seed=2)
        path = tmp_path / "gated.ckpt"
        checkpoint.save_checkpoint(path, vocab, lm, gate=g, config={"d_g": 4})
        loaded = checkpoint.load_checkpoint(path)
        assert loaded.gate.variant == variant
        arrays_equal(loaded.gate, g)

    def test_resave_is_byte_identical(self, tmp_path):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 5, 5, seed=3)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint.save_checkpoint(a, vocab, lm, config={"seed": 3})
        loaded = checkpoint.load_checkpoint(a)
        checkpoint.save_checkpoint(b, loaded.vocab, loaded.lm, config=loaded.config)
        assert a.read_bytes() == b.read_bytes()

    def test_mixed_dtype_sets_load_as_writable_views_that_compute_alike(self, tmp_path):
        """A float32 base of an odd entry count ahead of a float64 gate leaves
        the gate's views unaligned in the loaded buffer; they still compute
        the same values and take in-place updates."""
        vocab = corpus.build_vocab("the cat sat on the mat the end now")
        lm = model.init_params(len(vocab), 3, 3, seed=4)
        assert lm.param_count() % 2 == 1
        g = gate.init_gate(len(vocab), d_g=3, seed=5, dtype=np.float64)
        path = tmp_path / "mixed.ckpt"
        checkpoint.save_checkpoint(path, vocab, lm, gate=g)
        loaded = checkpoint.load_checkpoint(path)
        arrays_equal(loaded.lm, lm)
        arrays_equal(loaded.gate, g)
        stream = np.arange(20) % len(vocab)
        assert (evaluate.perplexity(loaded.lm, stream, gate=loaded.gate).nll
                == evaluate.perplexity(lm, stream, gate=g).nll)
        for a in [*loaded.lm.named_arrays().values(), *loaded.gate.named_arrays().values()]:
            assert a.flags.writeable and a.flags.c_contiguous
        assert not any(a.flags.aligned for a in loaded.gate.named_arrays().values())
        loaded.gate.weight *= 2.0
        assert np.array_equal(loaded.gate.named_arrays()["weight"], 2.0 * g.weight)


def _expected_file(vocab, sets, config, model_dims, gate_dims):
    """The checkpoint bytes, built without `save_checkpoint`: magic, version
    and header length, the canonical JSON header, each array's little-endian
    bytes, then the BLAKE2b-8 digest of all of it."""
    manifest, payload = [], b""
    for prefix, params in sets:
        for name, a in params.named_arrays().items():
            dtype = {np.float32: "<f4", np.float64: "<f8"}[a.dtype.type]
            manifest.append({"name": prefix + name, "shape": list(a.shape), "dtype": dtype})
            payload += a.astype(dtype).tobytes()
    header = {"arrays": manifest, "config": config, "gate": gate_dims, "model": model_dims,
              "vocab": vocab.words}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    body = b"IOGLM" + struct.pack("<II", 1, len(header_bytes)) + header_bytes + payload
    return body + hashlib.blake2b(body, digest_size=8).digest()


class TestFileLayout:
    def test_float32_gated(self, tmp_path):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 6, 6, layers=2, seed=8)
        g = gate.init_gate(len(vocab), d_g=4, seed=9)
        path = tmp_path / "gated.ckpt"
        checkpoint.save_checkpoint(path, vocab, lm, gate=g, config={"d_g": 4, "lr": 0.001})
        model_dims = {"cell_kind": "lstm", "d_e": 6, "d_h": 6, "layers": 2,
                      "tie_weights": False, "vocab_size": len(vocab)}
        expected = _expected_file(vocab, [("lm.", lm), ("gate.", g)], {"d_g": 4, "lr": 0.001},
                                  model_dims, {"d_g": 4, "d_h": None, "variant": "input_only"})
        assert path.read_bytes() == expected

    def test_float64_base_only(self, tmp_path):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 5, 5, cell_kind="elman", tie_weights=True, seed=10,
                               dtype=np.float64)
        path = tmp_path / "base.ckpt"
        checkpoint.save_checkpoint(path, vocab, lm)
        model_dims = {"cell_kind": "elman", "d_e": 5, "d_h": 5, "layers": 1,
                      "tie_weights": True, "vocab_size": len(vocab)}
        expected = _expected_file(vocab, [("lm.", lm)], None, model_dims, None)
        assert path.read_bytes() == expected


class TestCorruption:
    def _saved(self, tmp_path):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 5, 5, seed=4)
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, vocab, lm, config=None)
        return path

    def test_any_flipped_byte_fails_the_checksum(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        # probe positions across header, payload, and the digest itself
        for pos in [6, 20, len(blob) // 2, len(blob) - 30, len(blob) - 1]:
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0xFF
            bad = tmp_path / f"bad{pos}.ckpt"
            bad.write_bytes(bytes(corrupted))
            with pytest.raises(checkpoint.CheckpointError):
                checkpoint.load_checkpoint(bad)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_checkpoint(bad)

    def test_wrong_magic(self, tmp_path):
        bad = tmp_path / "notckpt.bin"
        bad.write_bytes(b"GGUF" + b"\x00" * 64)
        with pytest.raises(checkpoint.CheckpointError, match="magic"):
            checkpoint.load_checkpoint(bad)

    def test_no_partial_file_left_on_failed_save(self, tmp_path, monkeypatch):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 5, 5, seed=5)
        target = tmp_path / "out.ckpt"

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(checkpoint.os, "replace", boom)
        with pytest.raises(OSError):
            checkpoint.save_checkpoint(target, vocab, lm)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("piece", ["digest", "write"])
    def test_no_partial_file_left_when_the_stream_fails(self, tmp_path, monkeypatch, piece):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 5, 5, seed=5)
        seen = []

        def fail_on_fourth(call):  # the first array, after magic, lengths and header
            seen.append(sorted(p.name for p in tmp_path.iterdir()))
            if len(seen) == 4:
                raise OSError(f"simulated {piece} failure")
            return call

        if piece == "digest":
            blake2b = hashlib.blake2b

            class Hasher:
                def __init__(self, **kw):
                    self.inner = blake2b(**kw)

                def update(self, data):
                    fail_on_fourth(self.inner.update)(data)

                def digest(self):
                    return self.inner.digest()

            monkeypatch.setattr(checkpoint, "hashlib", types.SimpleNamespace(blake2b=Hasher))
        else:
            fdopen = os.fdopen

            class File:
                def __init__(self, *args):
                    self.inner = fdopen(*args)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.inner.close()

                def write(self, data):
                    return fail_on_fourth(self.inner.write)(data)

            monkeypatch.setattr(checkpoint.os, "fdopen", File)
        with pytest.raises(OSError, match=f"simulated {piece} failure"):
            checkpoint.save_checkpoint(tmp_path / "out.ckpt", vocab, lm)
        assert len(seen) == 4 and len(seen[-1]) == 1 and seen[-1][0].endswith(".tmp")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("unfit", ["float16", "mixed"])
    def test_set_that_load_refuses_is_rejected_before_writing(self, tmp_path, unfit):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 4, 4, seed=6)
        g = gate.init_gate(len(vocab), d_g=3, seed=7)
        with pytest.raises(ValueError, match="one dtype, float32 or float64"):
            if unfit == "float16":
                lm = lm.replace_arrays({k: v.astype(np.float16)
                                        for k, v in lm.named_arrays().items()})
            else:
                g = g.replace_arrays({k: v.astype(np.float64) if k == "bias" else v
                                      for k, v in g.named_arrays().items()})
            checkpoint.save_checkpoint(tmp_path / "out.ckpt", vocab, lm, gate=g)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gate_vocab,variant,gate_d_h,pattern", [
        (12, "input_only", None, r"gate vocabulary 12 != base vocabulary 10"),
        (10, "with_hidden", 6, r"gate\.d_h=6, but the base has d_h=4"),
    ], ids=["vocab", "d_h"])
    def test_gate_unfit_for_the_base_is_rejected_before_writing(self, tmp_path, gate_vocab,
                                                                variant, gate_d_h, pattern):
        vocab = corpus.Vocabulary([f"w{i}" for i in range(8)] + ["<unk>", "<eos>"])
        lm = model.init_params(10, 4, 4, seed=6)
        g = gate.init_gate(gate_vocab, d_g=3, variant=variant, d_h=gate_d_h, seed=7)
        with pytest.raises(ValueError, match=pattern):
            checkpoint.save_checkpoint(tmp_path / "out.ckpt", vocab, lm, gate=g)
        assert list(tmp_path.iterdir()) == []

    def test_base_of_another_vocabulary_size_is_rejected_before_writing(self, tmp_path):
        lm = model.init_params(len(small_vocab()) + 2, 4, 4, seed=6)
        with pytest.raises(ValueError, match=r"lm\.vocab_size is 10, but vocab holds 8 words"):
            checkpoint.save_checkpoint(tmp_path / "out.ckpt", small_vocab(), lm)
        assert list(tmp_path.iterdir()) == []


class TestGateWidth:
    """A gate records the base width it was built for, but only a
    with_hidden gate must match the base's (`gate.check_base`)."""

    @pytest.mark.parametrize("variant", ["input_only", "lstm_gate"])
    def test_gate_without_hidden_input_saves_loads_and_resaves(self, tmp_path, variant):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 4, 4, seed=6)
        g = gate.init_gate(len(vocab), d_g=3, variant=variant, d_h=99, seed=7)
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        checkpoint.save_checkpoint(first, vocab, lm, gate=g)
        loaded = checkpoint.load_checkpoint(first)
        assert (loaded.lm.d_h, loaded.gate.d_h) == (4, 99)
        arrays_equal(loaded.gate, g)
        checkpoint.save_checkpoint(second, vocab, loaded.lm, gate=loaded.gate)
        assert second.read_bytes() == first.read_bytes()

    def test_with_hidden_gate_of_another_width_is_refused_by_save_and_load(self, tmp_path,
                                                                           monkeypatch):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 4, 4, seed=6)
        g = gate.init_gate(len(vocab), d_g=3, variant="with_hidden", d_h=5, seed=7)
        message = r"with_hidden gate has gate\.d_h=5, but the base has d_h=4"
        path = tmp_path / "wide.ckpt"
        with pytest.raises(ValueError, match=message):
            checkpoint.save_checkpoint(path, vocab, lm, gate=g)
        assert list(tmp_path.iterdir()) == []
        with monkeypatch.context() as patched:
            patched.setattr(gate, "check_base", lambda g, base: None)
            checkpoint.save_checkpoint(path, vocab, lm, gate=g)
        with pytest.raises(checkpoint.CheckpointError, match=f"{re.escape(str(path))}: {message}"):
            checkpoint.load_checkpoint(path)


class TestNonFinite:
    @pytest.fixture
    def gated(self, tmp_path):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 2, 2, seed=6)
        g = gate.init_gate(len(vocab), d_g=4, seed=7)
        path = tmp_path / "gated.ckpt"
        checkpoint.save_checkpoint(path, vocab, lm, gate=g)
        return path, vocab, lm, g

    @pytest.mark.parametrize("name,value", [
        ("lm.out_bias", np.nan), ("gate.weight", np.inf), ("lm.embedding", -np.inf),
    ])
    def test_load_names_the_file_and_the_array(self, tmp_path, gated, name, value):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(helpers.with_entry(gated[0].read_bytes(), name, value))
        message = rf"{re.escape(str(bad))}: array {re.escape(name)} holds a non-finite value"
        with pytest.raises(checkpoint.CheckpointError, match=message):
            checkpoint.load_checkpoint(bad)

    @pytest.mark.parametrize("name,value", [("lm.out_bias", np.nan), ("gate.weight", np.inf)])
    def test_save_refuses_before_writing(self, tmp_path, gated, name, value):
        path, vocab, lm, g = gated
        path.unlink()
        prefix, key = name.split(".")
        params = {"lm": lm, "gate": g}
        params[prefix].named_arrays()[key].flat[3] = value
        with pytest.raises(ValueError, match=rf"array {re.escape(name)} holds a non-finite value"):
            checkpoint.save_checkpoint(path, vocab, lm, gate=g)
        assert list(tmp_path.iterdir()) == []


DELETE = object()

# Each case: the path into the header, the new value (or DELETE, or a
# function of the old value), and a pattern the CheckpointError must match.
# The checkpoint is an LSTM base with V=8, D_e=D_h=2 and an input_only gate
# with d_g=4; its manifest is lm.embedding, lm.cell0.weight, lm.cell0.bias,
# lm.out_weight, lm.out_bias, gate.embedding, gate.weight, gate.bias.
case = pytest.param
HEADER_CASES = [
    case(("model",), DELETE, r"header field model is missing", id="model-missing"),
    case(("model", "layers"), 2, r"model\.layers=2.*imply \['lm\.cell1\.weight'",
         id="model-layers-2"),
    case(("arrays", 3, "dtype"), "|O", r"arrays\[3\]\.dtype is '\|O'", id="dtype-object"),
    case(("arrays", 0), {"name": "lm.embedding", "shape": [10, 2], "dtype": "<f8"},
         r"arrays\[0\] is \['lm\.embedding', \[10, 2\]\]", id="embedding-f8-10x2"),
    case(("arrays", 0), {"name": "lm.embedding", "shape": [4, 2], "dtype": "<f8"},
         r"arrays\[0\] is \['lm\.embedding', \[4, 2\]\]", id="embedding-f8-4x2-same-bytes"),
    case(("gate", "d_g"), 99, r"gate\.d_g=99", id="gate-d_g-99"),
    case(("gate", "variant"), "with_hidden", r"imply \['gate\.hidden_weight'",
         id="gate-variant-with_hidden"),
    case(("arrays",), "oops", r"header field arrays has type str", id="arrays-string"),
    case(("vocab",), lambda words: words[1:], r"lm\.vocab_size is 8, but vocab holds 7 words",
         id="vocab-one-short"),
    case(("vocab", 0), 7, r"vocab holds a non-string word", id="vocab-non-string"),
    case(("vocab", 0), "cat", r"vocab: duplicate word", id="vocab-duplicate"),
    case(("model",), lambda m: {("layres" if k == "layers" else k): v for k, v in m.items()},
         r"unknown header field model\.layres", id="model-key-misspelt"),
    case(("extra",), 1, r"unknown header field extra", id="unknown-top-key"),
    case(("model", "tie_weights"), 1, r"model\.tie_weights has type int", id="tie_weights-int"),
    case(("model", "d_h"), True, r"model\.d_h has type bool", id="d_h-bool"),
    case(("model", "cell_kind"), "gru", r"header field model: unknown cell kind",
         id="cell_kind-gru"),
    case(("model", "layers"), 10**9, r"model\.layers is 1000000000, but the manifest lists 8",
         id="layers-huge"),
    case(("config",), "text", r"header field config has type str", id="config-string"),
    case(("arrays", 1), ["lm.cell0.weight"], r"arrays\[1\] is not an object",
         id="entry-not-object"),
    case(("arrays", 1, "shape"), DELETE, r"header field arrays\[1\]\.shape is missing",
         id="entry-shape-missing"),
    case(("arrays", 0, "shape"), [8, 2.0], r"arrays\[0\]\.shape is \[8, 2\.0\], not integers",
         id="shape-float"),
    case(("arrays",), lambda a: [a[0], a[2], a[1]] + a[3:], r"arrays\[1\] is \['lm\.cell0\.bias'",
         id="manifest-order"),
    case(("arrays",), lambda a: a + a[-1:], r"arrays\[8\] is \['gate\.bias', \[8\]\].* imply None",
         id="manifest-extra"),
    case(("arrays", 2, "dtype"), "<f8", r"payload holds 608 bytes, the manifest needs 640",
         id="mixed-dtypes"),
    case(("arrays",), lambda a: [dict(e, dtype="<f8") for e in a], r"payload holds",
         id="payload-size"),
]


def _set(header, where, value):
    *parents, last = where
    obj = header
    for key in parents:
        obj = obj[key]
    if value is DELETE:
        del obj[last]
    else:
        obj[last] = value(obj[last]) if callable(value) else value


def _read_header(path):
    blob = path.read_bytes()
    (size,) = struct.unpack_from("<I", blob, len(checkpoint.MAGIC) + 4)
    start = len(checkpoint.MAGIC) + 8
    return json.loads(blob[start:start + size]), blob[start + size:-8]


def _rewritten(path, out, where, value, payload=None):
    """A copy of the checkpoint with one header edit, `payload` for the
    payload if given, and a recomputed digest."""
    header, stored = _read_header(path)
    if where is not None:
        _set(header, where, value)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out.write_bytes(helpers.redigested(
        checkpoint.MAGIC + struct.pack("<II", checkpoint.VERSION, len(header_bytes))
        + header_bytes + (stored if payload is None else payload)))
    return out


def _leaf_paths(obj, where=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaf_paths(value, where + (key,))
        else:
            yield where + (key,)


class TestCraftedHeader:
    @pytest.fixture
    def gated(self, tmp_path):
        vocab = small_vocab()
        lm = model.init_params(len(vocab), 2, 2, seed=6)
        g = gate.init_gate(len(vocab), d_g=4, d_h=2, seed=7)
        path = tmp_path / "gated.ckpt"
        checkpoint.save_checkpoint(path, vocab, lm, gate=g, config={"seed": 6})
        return path, lm, g

    def test_unchanged_header_rewrite_loads(self, tmp_path, gated):
        path, lm, g = gated
        loaded = checkpoint.load_checkpoint(_rewritten(path, tmp_path / "same.ckpt", None, None))
        arrays_equal(loaded.lm, lm)
        arrays_equal(loaded.gate, g)

    @pytest.mark.parametrize("where,value,pattern", HEADER_CASES)
    def test_mutation_names_the_field(self, tmp_path, gated, where, value, pattern):
        bad = _rewritten(gated[0], tmp_path / "bad.ckpt", where, value)
        with pytest.raises(checkpoint.CheckpointError, match=pattern):
            checkpoint.load_checkpoint(bad)

    @pytest.mark.parametrize("where,value,pattern", HEADER_CASES)
    def test_corrupted_file_fails_the_checksum_before_the_header(self, tmp_path, gated,
                                                                 monkeypatch, where, value,
                                                                 pattern):
        """With one payload byte flipped, every crafted header still fails on
        the digest first, having allocated no more bytes than the file holds."""
        bad = _rewritten(gated[0], tmp_path / "bad.ckpt", where, value)
        blob = bytearray(bad.read_bytes())
        blob[-9] ^= 0xFF
        bad.write_bytes(bytes(blob))
        allocated = []
        empty = np.empty

        def counted(*args, **kwargs):
            a = empty(*args, **kwargs)
            allocated.append(a.nbytes)
            return a

        monkeypatch.setattr(checkpoint.np, "empty", counted)
        with pytest.raises(checkpoint.CheckpointError, match="checksum mismatch"):
            checkpoint.load_checkpoint(bad)
        assert 0 < sum(allocated) <= len(blob)

    def test_seeded_mutations_fail_only_with_checkpoint_error(self, tmp_path, gated):
        """A header edit either still loads or raises CheckpointError, never
        another exception."""
        path = gated[0]
        header, _ = _read_header(path)
        leaves = [p for p in _leaf_paths(header) if p[0] != "config"]
        junk = [None, "x", -1, 0, 2.5, True, [], {}, 10**6, DELETE]
        rng = np.random.default_rng(0)
        for trial in range(60):
            where = leaves[rng.integers(len(leaves))]
            value = junk[rng.integers(len(junk))]
            bad = _rewritten(path, tmp_path / f"fuzz{trial}.ckpt", where, value)
            try:
                checkpoint.load_checkpoint(bad)
            except checkpoint.CheckpointError:
                pass

    def test_gate_without_hidden_input_loads_whatever_width_it_records(self, tmp_path, gated):
        path, lm, g = gated
        loaded = checkpoint.load_checkpoint(_rewritten(path, tmp_path / "wide.ckpt",
                                                       ("gate", "d_h"), 5))
        assert (loaded.lm.d_h, loaded.gate.d_h) == (2, 5)
        arrays_equal(loaded.gate, g)

    def test_set_of_two_dtypes_names_the_file_and_the_set(self, tmp_path, gated):
        """With the payload re-encoded to fit, a float64 lm.cell0.bias among
        float32 arrays passes the file's rules and fails the set's."""
        path, lm, g = gated
        arrays = [*lm.named_arrays().values(), *g.named_arrays().values()]
        arrays[2] = arrays[2].astype("<f8")
        bad = _rewritten(path, tmp_path / "mixed.ckpt", ("arrays", 2, "dtype"), "<f8",
                         payload=b"".join(a.tobytes() for a in arrays))
        with pytest.raises(checkpoint.CheckpointError,
                           match=rf"{re.escape(str(bad))}: parameter set lm: arrays must share "
                                 rf"one dtype, float32 or float64, got float32, float64"):
            checkpoint.load_checkpoint(bad)
