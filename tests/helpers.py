"""Shared test utilities: the test-only oracles (full-row softmax and
log-softmax, the central-difference gradient, reference cross-entropy and
block loss, single-token prediction, ensemble averaging and gating),
float64 gradient-check harnesses that compare the hand-written backward
passes against them, and byte-level edits of checkpoint files that keep
the digest valid."""

import hashlib
import json
import math
import struct

import numpy as np

from ioglm import checkpoint
from ioglm import gate as gate_mod
from ioglm import model


def redigested(body: bytes) -> bytes:
    """A checkpoint body, every byte before the digest, with its digest."""
    return body + hashlib.blake2b(body, digest_size=8).digest()


def with_entry(blob: bytes, name: str, value) -> bytes:
    """A checkpoint file's bytes with the first entry of array `name` set to
    `value` and the digest recomputed."""
    start = len(checkpoint.MAGIC) + 8
    (header_len,) = struct.unpack_from("<I", blob, start - 4)
    offset = start + header_len
    for item in json.loads(blob[start:offset])["arrays"]:
        dtype = np.dtype(item["dtype"])
        if item["name"] == name:
            entry = np.array(value, dtype).tobytes()
            return redigested(blob[:offset] + entry + blob[offset + len(entry):-8])
        offset += math.prod(item["shape"]) * dtype.itemsize
    raise KeyError(name)

# Central differences at 1e-5 in float64 leave ~1e-10 absolute noise, so a
# 1e-6 floor in the relative error keeps near-zero coordinates meaningful.
FD_EPSILON = 1e-5
REL_FLOOR = 1e-6

# Index arrays that `forward_step` and `compute_gate` reject, as they take
# only a non-empty (B, T) block: a scalar, a (B,) array, a 3-D array and a
# (B, 0) block.
NOT_BLOCKS = [3, np.array([3, 4]), np.array([[[3]]]), np.zeros((2, 0), dtype=int)]
NOT_BLOCK_IDS = ["scalar", "(B,)", "3-D", "(B, 0)"]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with explicit shape validation."""
    m = np.asarray(m)
    v = np.asarray(v)
    if m.ndim != 2:
        raise ValueError(f"matvec expects a 2-d matrix, got shape {m.shape}")
    if v.ndim != 1:
        raise ValueError(f"matvec expects a 1-d vector, got shape {v.shape}")
    if m.shape[1] != v.shape[0]:
        raise ValueError(
            f"matvec dimension mismatch: matrix {m.shape} vs vector {v.shape}"
        )
    return m @ v


def softmax(s) -> np.ndarray:
    """Oracle: full-row float64 softmax over the last axis, max-shifted."""
    s = np.asarray(s, dtype=np.float64)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(s) -> np.ndarray:
    """Oracle: full-row float64 log-softmax over the last axis,
    `shifted - log(z)`, of which the program computes only target entries."""
    s = np.asarray(s, dtype=np.float64)
    shifted = s - s.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(p: np.ndarray, target: int) -> float:
    """Negative log-probability of `target` under the distribution `p`."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"cross_entropy expects a 1-d distribution, got {p.shape}")
    t = int(target)
    if not 0 <= t < p.shape[0]:
        raise ValueError(f"target {t} out of range for distribution of length {p.shape[0]}")
    return float(-np.log(p[t]))


def cross_entropy_from_logits(s: np.ndarray, target: int) -> float:
    """Negative log-probability of `target` computed in log space from logits.

    Preferred over `cross_entropy` whenever logits are available, since it
    cannot hit log(0) no matter how peaked the distribution is.
    """
    s = np.asarray(s)
    if s.ndim != 1:
        raise ValueError(f"expected 1-d logits, got {s.shape}")
    t = int(target)
    if not 0 <= t < s.shape[0]:
        raise ValueError(f"target {t} out of range for logits of length {s.shape[0]}")
    return float(-log_softmax(s)[t])


def sequence_loss(logits, targets) -> float:
    """Reference mean cross-entropy of (T, B, V) logits against (B, T)
    targets: one full-row oracle `log_softmax` per timestep, summed in
    float64. Independent of the kernels' softmax pass that training uses,
    which must equal it bit for bit."""
    rows = np.arange(targets.shape[0])
    total = 0.0
    for t, step in enumerate(logits):
        total -= log_softmax(step)[rows, targets[:, t]].sum()
    return float(total / targets.size)


def finite_difference_gradient(loss_fn, params: np.ndarray, epsilon: float | None = None,
                               coords=None) -> np.ndarray:
    """Central-difference gradient oracle over a flat parameter vector.

    `loss_fn` must be a deterministic scalar function of the vector; this is
    checked by evaluating it twice at the initial point. When `coords` is
    given, only those coordinates are probed and the result has one entry
    per coordinate, in order; otherwise the full gradient is returned.

    Default epsilon is 1e-3 for float32 inputs and 1e-6 otherwise.
    """
    raw = np.asarray(params)
    if epsilon is None:
        epsilon = 1e-3 if raw.dtype == np.float32 else 1e-6
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    theta = raw.astype(np.float64).ravel().copy()

    first = float(loss_fn(theta.copy()))
    second = float(loss_fn(theta.copy()))
    if first != second:
        raise ValueError(
            f"loss_fn is not deterministic: two evaluations gave {first!r} and {second!r}"
        )

    indices = range(theta.size) if coords is None else list(coords)
    grad = np.empty(len(indices) if coords is not None else theta.size, dtype=np.float64)
    for k, i in enumerate(indices):
        orig = theta[i]
        theta[i] = orig + epsilon
        up = float(loss_fn(theta.copy()))
        theta[i] = orig - epsilon
        down = float(loss_fn(theta.copy()))
        theta[i] = orig
        grad[k] = (up - down) / (2.0 * epsilon)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Worst per-coordinate relative difference, with a floor so that pairs
    of near-zero values do not blow up the ratio."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def pack_arrays(named: dict) -> tuple[np.ndarray, list]:
    """Flatten an ordered name->array mapping into one float64 vector.

    Returns the vector and a layout spec consumed by `unpack_arrays`.
    """
    spec = []
    chunks = []
    offset = 0
    for name, arr in named.items():
        arr = np.asarray(arr)
        spec.append((name, arr.shape, arr.dtype, offset, arr.size))
        chunks.append(arr.astype(np.float64).ravel())
        offset += arr.size
    flat = np.concatenate(chunks) if chunks else np.zeros(0)
    return flat, spec


def unpack_arrays(flat: np.ndarray, spec: list) -> dict:
    """Inverse of `pack_arrays`: rebuild the name->array mapping."""
    flat = np.asarray(flat, dtype=np.float64)
    out = {}
    for name, shape, dtype, offset, size in spec:
        out[name] = flat[offset:offset + size].reshape(shape).astype(dtype)
    return out


def ensemble_distribution(member_probs) -> np.ndarray:
    """Arithmetic mean of member probability distributions (float64)."""
    member_probs = list(member_probs)
    if not member_probs:
        raise ValueError("ensemble of zero members")
    length = np.asarray(member_probs[0]).shape
    stacked = []
    for p in member_probs:
        p = np.asarray(p, dtype=np.float64)
        if p.shape != length:
            raise ValueError(f"member distribution shape {p.shape} != {length}")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"member distribution sums to {p.sum()!r}, not 1")
        stacked.append(p)
    return np.mean(stacked, axis=0)


def predict_distribution(params, state, input_index: int):
    """Next-word distribution for a single input token; never applies dropout.

    Returns (probabilities (V,), new HiddenState).
    """
    logits, new_state, _ = model.forward_step(params, state, [[int(input_index)]])
    return softmax(logits[0, 0]), new_state


def apply_gate(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Probability distribution from gated logits: softmax(g * s)."""
    g = np.asarray(g)
    s = np.asarray(s)
    if g.shape != s.shape:
        raise ValueError(f"gate shape {g.shape} does not match logits shape {s.shape}")
    return softmax(g * s)


def random_inputs(rng, vocab_size, batch, steps):
    inputs = rng.integers(0, vocab_size, size=(batch, steps))
    targets = rng.integers(0, vocab_size, size=(batch, steps))
    return inputs, targets


def run_lm_block(params, inputs, masks=None, state=None):
    if state is None:
        state = model.initial_state(params, inputs.shape[0])
    _, state, trace = model.forward_step(params, state, inputs, masks)
    return trace, state


def lm_gradient_error(params, inputs, targets, masks=None, max_coords=300, rng=None):
    """Max relative error between analytic and finite-difference gradients of
    the block's mean cross-entropy w.r.t. every base-model parameter. The
    loss `backward_sequence` returns must equal `sequence_loss` exactly."""
    assert params.dtype == np.float64, "gradient checks run the whole model in float64"
    named = params.named_arrays()
    flat, spec = pack_arrays(named)

    def loss(theta):
        rebuilt = params.replace_arrays(unpack_arrays(theta, spec))
        trace, _ = run_lm_block(rebuilt, inputs, masks)
        return sequence_loss(trace.logits, targets)

    trace, _ = run_lm_block(params, inputs, masks)
    loss_value, grads = model.backward_sequence(params, trace, targets)
    assert loss_value == sequence_loss(trace.logits, targets)
    analytic, _ = pack_arrays({k: grads[k] for k in named})

    coords = _sample_coords(flat.size, max_coords, rng)
    fd = finite_difference_gradient(loss, flat, epsilon=FD_EPSILON, coords=coords)
    return max_relative_error(analytic[coords], fd, floor=REL_FLOOR)


def run_gated_block(base, gate, inputs, mask=None):
    logits, _, trace = model.forward_step(base, model.initial_state(base, inputs.shape[0]), inputs)
    _, gate_trace = gate_mod.compute_gate(gate, inputs, base_hidden=trace.top, mask=mask)
    return gate_trace, logits


def gate_gradient_error(base, gate, inputs, targets, mask=None, max_coords=300, rng=None):
    """Max relative error between analytic and finite-difference gradients of
    the gated block loss w.r.t. the gate parameters only. The losses of
    `gate_backward` and `gated_sequence_loss` must equal `sequence_loss` on
    the gated logits exactly."""
    assert gate.dtype == np.float64
    named = gate.named_arrays()
    flat, spec = pack_arrays(named)

    def loss(theta):
        rebuilt = gate.replace_arrays(unpack_arrays(theta, spec))
        trace, base_logits = run_gated_block(base, rebuilt, inputs, mask)
        return sequence_loss(trace.g * base_logits, targets)

    trace, base_logits = run_gated_block(base, gate, inputs, mask)
    loss_value, grads = gate_mod.gate_backward(gate, trace, base_logits, targets)
    reference = sequence_loss(trace.g * base_logits, targets)
    assert loss_value == reference
    assert gate_mod.gated_sequence_loss(trace, base_logits, targets)[0] == reference
    analytic, _ = pack_arrays({k: grads[k] for k in named})

    coords = _sample_coords(flat.size, max_coords, rng)
    fd = finite_difference_gradient(loss, flat, epsilon=FD_EPSILON, coords=coords)
    return max_relative_error(analytic[coords], fd, floor=REL_FLOOR)


def _sample_coords(size, max_coords, rng):
    if size <= max_coords:
        return np.arange(size)
    if rng is None:
        rng = np.random.default_rng(0)
    return np.sort(rng.choice(size, size=max_coords, replace=False))


def params64(vocab_size, d_e, d_h, layers=1, cell_kind="lstm", tie_weights=False, seed=0):
    return model.init_params(
        vocab_size, d_e, d_h, layers=layers, cell_kind=cell_kind,
        tie_weights=tie_weights, seed=seed, dtype=np.float64,
    )


def gate64(vocab_size, d_g, variant="input_only", d_h=None, seed=0, bias_init=0.5):
    # A small non-saturating bias keeps gradient-check coordinates well away
    # from sigmoid saturation.
    return gate_mod.init_gate(
        vocab_size, d_g=d_g, variant=variant, d_h=d_h, seed=seed,
        dtype=np.float64, weight_scale=0.2, bias_init=bias_init,
    )
