"""Input-conditioned gating of the output logits.

The gate is a sigmoid vector over the vocabulary, computed from a dedicated
embedding of the *current input word* and multiplied elementwise into the
base model's logits before the softmax. The intuition: the current word
often narrows down what can follow (after a preposition, expect a noun), so
a cheap per-input-word rescaling of the output scores can sharpen any frozen
base model.

Three gate architectures are provided:

* ``input_only``  - gate from the input-word embedding alone (the default);
* ``with_hidden`` - gate from the base model's current hidden state
  concatenated with the gate embedding, in that order;
* ``lstm_gate``   - gate from the hidden state of a dedicated 1-layer LSTM
  driven by the gate embedding (stateful across timesteps).

The base model's parameters receive no gradient from any of these: the gate
trains against a frozen base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, model

VARIANTS = ("input_only", "with_hidden", "lstm_gate")


def param_spec(vocab_size, d_g, variant, d_h=None) -> dict:
    """Ordered ``name -> shape`` of one gate variant's trainable storages;
    `d_h`, the base model's hidden width, shapes only the with_hidden weight."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown gate variant {variant!r}, expected one of {VARIANTS}")
    if variant == "with_hidden" and d_h is None:
        raise ValueError("with_hidden gate needs the base hidden width d_h")
    if min(vocab_size, d_g) < 1:
        raise ValueError(f"dimensions must be positive: V={vocab_size}, D_g={d_g}")
    spec = {"embedding": (vocab_size, d_g)}
    if variant == "with_hidden":
        spec["hidden_weight"] = (vocab_size, d_h + d_g)
    else:
        spec["weight"] = (vocab_size, d_g)
    if variant == "lstm_gate":
        spec["cell_weight"] = (4 * d_g, 2 * d_g)
        spec["cell_bias"] = (4 * d_g,)
    spec["bias"] = (vocab_size,)
    return spec


class IOGParams(model.ParamSet):
    """Trainable gate parameters for one variant, with dimensions
    `vocab_size`, `d_g`, `variant` and `d_h`.

    The gate embedding is stored (V, D_g) and read by row lookup; it is
    always distinct storage from the base model's embedding. Each variant
    owns its bias. Parameters are immutable during evaluation; only the
    dedicated LSTM variant carries per-stream state, which lives outside
    this object (see `GateState`).
    """

    param_spec = staticmethod(param_spec)


def gate_param_count_for(vocab_size: int, d_g: int, variant: str, d_h: int | None = None) -> int:
    """Parameter count by shape arithmetic, without materializing arrays."""
    return sum(math.prod(shape) for shape in param_spec(vocab_size, d_g, variant, d_h).values())


def init_gate(vocab_size, d_g=300, variant="input_only", d_h=None, seed=0,
              dtype=np.float32, weight_scale=0.01, bias_init=4.0) -> IOGParams:
    """Gate initialization that starts near the identity.

    Weights are uniform in [-weight_scale, weight_scale], drawn in spec
    order, and the bias is a positive constant, so the initial gate is
    ~sigmoid(bias_init) everywhere and the gated model begins within a small
    temperature factor of the frozen baseline; training can only pull it
    away via gradient signal.
    """
    dims = dict(vocab_size=vocab_size, d_g=d_g, variant=variant, d_h=d_h)
    rng = np.random.default_rng(seed)
    arrays = {
        name: np.full(shape, bias_init, dtype=dtype) if name == "bias"
        else rng.uniform(-weight_scale, weight_scale, size=shape).astype(dtype)
        for name, shape in param_spec(**dims).items()
    }
    if variant == "lstm_gate":
        arrays["cell_bias"][d_g:2 * d_g] = 1.0
    return IOGParams(arrays, **dims)


@dataclass
class GateState:
    """Recurrent state of the lstm_gate variant; one instance per stream."""

    h: np.ndarray
    c: np.ndarray


def initial_gate_state(gate: IOGParams, batch_size: int = 1) -> GateState:
    zeros = np.zeros((batch_size, gate.d_g), dtype=gate.dtype)
    return GateState(zeros, zeros.copy())


@dataclass
class GateTraceEntry:
    """Per-timestep gate activations retained for the backward pass."""

    inputs: np.ndarray            # (B,)
    e: np.ndarray                 # (B, D_g) gate embedding, post-dropout
    g: np.ndarray                 # (B, V)
    mask: np.ndarray | None
    base_h: np.ndarray | None = None     # (B, D_h), with_hidden only
    cell_cache: tuple | None = None      # lstm_gate only
    state: GateState | None = None       # advanced state, lstm_gate only


def compute_gate(gate: IOGParams, inputs, base_hidden=None, state=None, mask=None):
    """Gate vector for the current input word(s).

    Returns (g (B, V), GateTraceEntry); scalar input gives B = 1. The
    with_hidden variant requires `base_hidden`, the base model's hidden
    state *after* consuming the current word; lstm_gate advances its own
    recurrent state, returned inside the trace entry (zero state if None).
    """
    inputs = np.atleast_1d(np.asarray(inputs))
    if inputs.dtype.kind not in "iu":
        raise ValueError(f"gate inputs must be integer vocab indices, got {inputs.dtype}")
    if ((inputs < 0) | (inputs >= gate.vocab_size)).any():
        raise ValueError(f"gate input index out of range [0, {gate.vocab_size})")
    e = gate.embedding[inputs]
    if mask is not None:
        e = e * mask
    entry = GateTraceEntry(inputs=inputs, e=e, g=None, mask=mask)
    if gate.variant == "input_only":
        pre = e @ gate.weight.T + gate.bias
    elif gate.variant == "with_hidden":
        if base_hidden is None:
            raise ValueError("with_hidden gate requires the base model's hidden state")
        base_hidden = np.asarray(base_hidden)
        if base_hidden.shape != (inputs.shape[0], gate.d_h):
            raise ValueError(
                f"base hidden shape {base_hidden.shape} does not match "
                f"(batch {inputs.shape[0]}, d_h {gate.d_h})"
            )
        entry.base_h = base_hidden
        pre = np.concatenate([base_hidden, e], axis=1) @ gate.hidden_weight.T + gate.bias
    else:
        if state is None:
            state = initial_gate_state(gate, inputs.shape[0])
        h, c, cache = model.lstm_cell_forward(
            gate.cell_weight, gate.cell_bias, e, state.h, state.c
        )
        entry.cell_cache = cache
        entry.state = GateState(h, c)
        pre = h @ gate.weight.T + gate.bias
    g = kernels.sigmoid(pre)
    entry.g = g
    return g, entry


def gated_sequence_loss(trace: list, base_logits: list, targets) -> float:
    """Mean cross-entropy of the gated model over a block (float64 sum)."""
    targets = np.asarray(targets)
    total = 0.0
    batch = targets.shape[0]
    for t, entry in enumerate(trace):
        lp = kernels.log_softmax(entry.g * base_logits[t])
        total -= lp[np.arange(batch), targets[:, t]].sum()
    return float(total / targets.size)


def gate_backward(gate: IOGParams, trace: list, base_logits: list, targets):
    """Exact gradients of the block's mean cross-entropy w.r.t. the gate
    parameters only. The returned mapping contains no base-model arrays by
    construction; the base stays frozen. For lstm_gate the recurrence is
    unrolled backward through the whole block (truncation at block edges).
    """
    targets = np.asarray(targets)
    if len(trace) == 0:
        raise ValueError("cannot backpropagate over an empty gate trace")
    if len(base_logits) != len(trace):
        raise ValueError(
            f"base logits length {len(base_logits)} does not match trace length {len(trace)}"
        )
    batch = trace[0].inputs.shape[0]
    steps = len(trace)
    if targets.shape != (batch, steps):
        raise ValueError(
            f"targets shape {targets.shape} does not match trace ({batch}, {steps})"
        )
    dtype = gate.dtype
    grads = {k: np.zeros_like(a) for k, a in gate.named_arrays().items()}
    scale = 1.0 / targets.size
    if gate.variant == "lstm_gate":
        dh_next = np.zeros((batch, gate.d_g), dtype=dtype)
        dc_next = np.zeros((batch, gate.d_g), dtype=dtype)

    for t in reversed(range(steps)):
        entry = trace[t]
        s = base_logits[t]
        p = kernels.softmax_stable(entry.g * s)
        p[np.arange(batch), targets[:, t]] -= 1.0
        dz = (p * scale).astype(dtype, copy=False)
        dpre = dz * s * entry.g * (1.0 - entry.g)
        grads["bias"] += dpre.sum(axis=0)

        if gate.variant == "input_only":
            grads["weight"] += dpre.T @ entry.e
            de = dpre @ gate.weight
        elif gate.variant == "with_hidden":
            concat = np.concatenate([entry.base_h, entry.e], axis=1)
            grads["hidden_weight"] += dpre.T @ concat
            # Gradient into the base hidden state is discarded: the base is
            # frozen and its state is not a function of gate parameters.
            de = (dpre @ gate.hidden_weight)[:, gate.d_h:]
        else:
            grads["weight"] += dpre.T @ entry.state.h
            dh = dpre @ gate.weight + dh_next
            dw, db, de, dh_next, dc_next = model.lstm_cell_backward(
                gate.cell_weight, entry.cell_cache, dh, dc_next
            )
            grads["cell_weight"] += dw
            grads["cell_bias"] += db

        if entry.mask is not None:
            de = de * entry.mask
        np.add.at(grads["embedding"], entry.inputs, de.astype(dtype, copy=False))
    return grads


def top_weighted_words(gate: IOGParams, input_word: str, vocab, k: int = 5,
                       min_freq: int = 100, frequencies=None) -> list:
    """The k vocabulary words the gate weights highest for one input word.

    Defined on the input-conditioned variant only (the others depend on
    running context). Candidate words occurring fewer than `min_freq` times
    (per the supplied per-index frequency table) are excluded to remove
    noise; ties are broken by vocabulary index. Returns (word, weight)
    pairs, heaviest first.
    """
    if gate.variant != "input_only":
        raise ValueError(
            f"gate-weight inspection is defined for the input_only variant, got {gate.variant!r}"
        )
    if input_word not in vocab:
        raise ValueError(f"word {input_word!r} is not in the vocabulary")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if min_freq > 0 and frequencies is None:
        raise ValueError("min_freq > 0 requires a frequency table")
    g, _ = compute_gate(gate, vocab.to_index(input_word))
    g = g[0].astype(np.float64)
    candidates = np.arange(gate.vocab_size)
    if min_freq > 0:
        frequencies = np.asarray(frequencies)
        if frequencies.shape[0] != gate.vocab_size:
            raise ValueError(
                f"frequency table length {frequencies.shape[0]} != vocabulary size {gate.vocab_size}"
            )
        candidates = candidates[frequencies >= min_freq]
    order = candidates[np.lexsort((candidates, -g[candidates]))]
    return [(vocab.to_word(int(i)), float(g[i])) for i in order[:k]]


def format_weighted_row(word: str, pairs: list) -> str:
    """One analysis line: ``word<TAB>w1:g1 w2:g2 ...`` with 4-decimal weights."""
    return word + "\t" + " ".join(f"{w}:{g:.4f}" for w, g in pairs)
