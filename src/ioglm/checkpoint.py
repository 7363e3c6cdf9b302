"""Versioned binary checkpoints.

Layout, in order: the magic string ``IOGLM``; a little-endian uint32 format
version; a little-endian uint32 header length; a canonical JSON header
(sorted keys, compact separators) describing the configuration echo, the
vocabulary, the model/gate structure, and an array manifest of explicit
names, shapes, and dtypes; the raw array payload in manifest order as
little-endian float32 or float64 (``<f4``/``<f8``, one dtype per parameter
set); and finally an 8-byte BLAKE2b digest of every preceding byte. A
flipped byte anywhere changes the digest and the load fails. A save
hashes and writes each piece once, streaming, to a temporary file in the
target directory that is renamed into place, so an interrupted save never
leaves a partial checkpoint behind. A load hashes the body after the
header into one byte buffer, checks the header only once the digest holds,
and views each array out of that buffer. A parameter set (`model.ParamSet`)
holds one float32 or float64 dtype, and save refuses a NaN or an infinity
as load does, so load accepts every file save writes.
A load accepts a manifest only when it equals, in names, order and shapes,
the parameter specs (`model.param_spec`, `gate.param_spec`) that the
header's model and gate dimensions and vocabulary size imply.

Round trips are bit-exact: load(save(x)) reproduces every array, and saving
again yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import corpus, gate as gate_mod, model

MAGIC = b"IOGLM"
VERSION = 1
_DIGEST_SIZE = 8


class CheckpointError(Exception):
    """Malformed, truncated, or corrupted checkpoint file."""


@dataclass
class Checkpoint:
    vocab: corpus.Vocabulary
    lm: model.LMParams
    gate: gate_mod.IOGParams | None
    config: dict | None


# Header fields and the types their values must have.
_HEADER_FIELDS = {"arrays": list, "config": (dict, type(None)), "gate": (dict, type(None)),
                  "model": dict, "vocab": list}
_MODEL_FIELDS = {"cell_kind": str, "d_e": int, "d_h": int, "layers": int,
                 "tie_weights": bool, "vocab_size": int}
_GATE_FIELDS = {"d_g": int, "d_h": (int, type(None)), "variant": str}
_ARRAY_FIELDS = {"dtype": str, "name": str, "shape": list}
_DTYPES = ("<f4", "<f8")


def _require_finite(arrays, error, where=""):
    # min and max both propagate NaN, and need no temporary as large as `a`
    for name, a in arrays.items():
        if not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise error(f"{where}array {name} holds a non-finite value")


def save_checkpoint(path, vocab: corpus.Vocabulary, lm: model.LMParams,
                    gate: gate_mod.IOGParams | None = None,
                    config: dict | None = None) -> None:
    if lm.vocab_size != len(vocab):
        raise ValueError(f"model vocabulary {lm.vocab_size} != vocabulary size {len(vocab)}")
    sets = {"lm.": lm}
    if gate is not None:
        gate_mod.check_base(gate, lm)  # what `load_checkpoint` would reject
        sets["gate."] = gate
    # Little-endian views; native float32/float64 arrays are not copied.
    arrays = {prefix + name: np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))
              for prefix, params in sets.items() for name, a in params.named_arrays().items()}
    header = {
        "arrays": [{"name": name, "shape": list(a.shape), "dtype": a.dtype.str}
                   for name, a in arrays.items()],
        "config": config,
        "model": lm.dims,
        "gate": None if gate is None else {k: gate.dims[k] for k in _GATE_FIELDS},
        "vocab": vocab.words,
    }
    _require_finite(arrays, ValueError)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=True).encode("utf-8")
    pieces = (MAGIC, struct.pack("<II", VERSION, len(header_bytes)), header_bytes,
              *arrays.values())

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
            for piece in pieces:
                digest.update(piece)
                f.write(piece)
            f.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_fields(path, where, obj, fields) -> None:
    """`obj`, the header or one of its objects, must have exactly the given
    fields, each value of its field's type (a bool is no int)."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{path}: {where} is not an object")
    prefix = "" if where == "header" else where + "."
    for key in sorted(obj.keys() - fields.keys()):
        raise CheckpointError(f"{path}: unknown header field {prefix}{key}")
    for key, kind in fields.items():
        if key not in obj:
            raise CheckpointError(f"{path}: header field {prefix}{key} is missing")
        value = obj[key]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise CheckpointError(
                f"{path}: header field {prefix}{key} has type {type(value).__name__}"
            )


def _check_header(path, version, header_bytes, payload_len):
    """Check the header against the specs its dimensions imply and the
    payload's `payload_len` bytes; returns the header, the vocabulary and,
    per parameter set, (array name prefix, header field, class, dims)."""
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(str(header_bytes, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    _check_fields(path, "header", header, _HEADER_FIELDS)
    if not all(isinstance(w, str) for w in header["vocab"]):
        raise CheckpointError(f"{path}: header field vocab holds a non-string word")
    try:
        vocab = corpus.Vocabulary(header["vocab"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: header field vocab: {exc}") from exc
    info, ginfo = header["model"], header["gate"]
    _check_fields(path, "model", info, _MODEL_FIELDS)
    if info["vocab_size"] != len(vocab):
        raise CheckpointError(f"{path}: header field model.vocab_size is {info['vocab_size']}, "
                              f"but vocab holds {len(vocab)} words")
    if info["layers"] > len(header["arrays"]):  # bounds the spec a crafted header can ask for
        raise CheckpointError(f"{path}: header field model.layers is {info['layers']}, but "
                              f"the manifest lists {len(header['arrays'])} arrays")
    sets = [("lm.", "model", model.LMParams, info)]
    if ginfo is not None:
        _check_fields(path, "gate", ginfo, _GATE_FIELDS)
        if ginfo["d_h"] not in (None, info["d_h"]):
            raise CheckpointError(f"{path}: header field gate.d_h is {ginfo['d_h']}, "
                                  f"but model.d_h is {info['d_h']}")
        sets.append(("gate.", "gate", gate_mod.IOGParams, {"vocab_size": len(vocab), **ginfo}))
    expected = []
    for prefix, field, cls, dims in sets:
        try:
            spec = cls.param_spec(**dims)
        except ValueError as exc:
            raise CheckpointError(f"{path}: header field {field}: {exc}") from exc
        expected += [[prefix + name, list(shape)] for name, shape in spec.items()]

    manifest = header["arrays"]
    for i, item in enumerate(manifest):
        _check_fields(path, f"arrays[{i}]", item, _ARRAY_FIELDS)
        if not all(type(n) is int for n in item["shape"]):
            raise CheckpointError(f"{path}: arrays[{i}].shape is {item['shape']}, not integers")
        if item["dtype"] not in _DTYPES:
            raise CheckpointError(f"{path}: arrays[{i}].dtype is {item['dtype']!r}, "
                                  f"expected one of {_DTYPES}")
    for i in range(max(len(manifest), len(expected))):
        got = [manifest[i]["name"], manifest[i]["shape"]] if i < len(manifest) else None
        want = expected[i] if i < len(expected) else None
        if got != want:
            implied = ", ".join(f"{field}.{k}={v!r}" for _, field, _, _ in sets
                                for k, v in sorted(header[field].items()))
            raise CheckpointError(f"{path}: arrays[{i}] is {got}, but {implied} and a "
                                  f"vocab of {len(vocab)} words imply {want}")
    first = {}
    for i, item in enumerate(manifest):
        j = first.setdefault(item["name"].split(".")[0], i)
        if item["dtype"] != manifest[j]["dtype"]:
            raise CheckpointError(f"{path}: arrays[{i}].dtype {item['dtype']!r} differs from "
                                  f"arrays[{j}].dtype {manifest[j]['dtype']!r} of the same "
                                  f"parameter set")
    needed = sum(math.prod(item["shape"]) * np.dtype(item["dtype"]).itemsize for item in manifest)
    if needed != payload_len:
        raise CheckpointError(f"{path}: payload holds {payload_len} bytes, "
                              f"the manifest needs {needed}")
    return header, vocab, sets


def load_checkpoint(path) -> Checkpoint:
    """Load and verify a checkpoint. The header's manifest must equal, in
    names, order and shapes, the specs that its model and gate dimensions
    and vocabulary size imply, and every parameter must be finite; anything
    else raises `CheckpointError`.

    The body after the header is read and hashed into one byte buffer, the
    header is checked only once the digest holds, and each array is a view
    of that buffer."""
    with open(path, "rb") as f:
        body_len = os.fstat(f.fileno()).st_size - _DIGEST_SIZE
        if body_len < len(MAGIC) + 8:
            raise CheckpointError(f"{path}: file too short to be a checkpoint")
        start = f.read(len(MAGIC) + 8)
        if start[:len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        version, header_len = struct.unpack_from("<II", start, len(MAGIC))
        header_bytes = f.read(min(header_len, body_len - len(start)))
        payload = np.empty(body_len - len(start) - len(header_bytes), np.uint8)
        digest = hashlib.blake2b(start, digest_size=_DIGEST_SIZE)
        digest.update(header_bytes)
        digest.update(payload[:f.readinto(payload)])
        if f.read(_DIGEST_SIZE + 1) != digest.digest():
            raise CheckpointError(f"{path}: checksum mismatch, file is corrupted")
    header, vocab, sets = _check_header(path, version, header_bytes, payload.size)
    arrays, offset = {}, 0
    for item in header["arrays"]:
        dtype = np.dtype(item["dtype"])
        end = offset + math.prod(item["shape"]) * dtype.itemsize
        arrays[item["name"]] = payload[offset:end].view(dtype).reshape(item["shape"])
        offset = end
    _require_finite(arrays, CheckpointError, f"{path}: ")
    params = [cls({n[len(prefix):]: a for n, a in arrays.items() if n.startswith(prefix)}, **dims)
              for prefix, _, cls, dims in sets]
    return Checkpoint(vocab=vocab, lm=params[0], gate=params[1] if len(params) > 1 else None,
                      config=header["config"])
