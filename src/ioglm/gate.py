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

from . import kernels, model, recipe

VARIANTS = recipe.CHOICES["gate_variant"]


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
    this object (see `initial_gate_state`).
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


def initial_gate_state(gate: IOGParams, batch_size: int = 1) -> model.HiddenState:
    """Zero state of the lstm_gate variant's one-layer cell, one per stream."""
    zeros = np.zeros((batch_size, gate.d_g), dtype=gate.dtype)
    return model.HiddenState([zeros], [zeros.copy()])


def check_base(gate: IOGParams, base: model.LMParams) -> None:
    """Reject a gate that cannot run on `base`: another vocabulary size, or
    a with_hidden gate built for another hidden width."""
    if gate.vocab_size != base.vocab_size:
        raise ValueError(
            f"gate vocabulary {gate.vocab_size} != base vocabulary {base.vocab_size}"
        )
    if gate.variant == "with_hidden" and gate.d_h != base.d_h:
        raise ValueError(
            f"with_hidden gate has gate.d_h={gate.d_h}, but the base has d_h={base.d_h}"
        )


@dataclass
class GateTrace:
    """Gate activations of one block retained for the backward pass,
    time-major."""

    inputs: np.ndarray                # (T, B)
    x: np.ndarray                     # (T, B, ·) input of the vocabulary projection
    g: np.ndarray                     # (T, B, V)
    mask: np.ndarray | None           # (B, D_g) dropout mask on the gate embedding
    cell: model.LayerTrace | None     # lstm_gate only
    state: model.HiddenState | None   # advanced state, lstm_gate only


def _cell(gate):
    return {"weight": gate.cell_weight, "bias": gate.cell_bias}


def compute_gate(gate: IOGParams, inputs, base_hidden=None, state=None, mask=None):
    """Gate vectors for a block of input words: (B, T) inputs, T >= 1, give
    (g (T, B, V), GateTrace); one timestep is a (B, 1) block.

    The with_hidden variant requires `base_hidden` (T, B, D_h), the base
    model's top hidden state *after* consuming each word. lstm_gate steps
    only its D_g cell from `state` (zero if None) and returns the advanced
    state inside the trace. The vocabulary projection is one product per
    block. The sigmoid runs over it one lane at a time, so its temporaries
    stay (T, V) in training and an evaluation chunk, which has one lane,
    takes one call.
    """
    block = model._as_block(gate.vocab_size, inputs, "gate input")
    steps, batch = block.shape
    e = gate.embedding[block]
    if mask is not None:
        e = e * mask
    cell = new_state = None
    if gate.variant == "with_hidden":
        expected = (steps, batch, gate.d_h)
        if np.shape(base_hidden) != expected:  # np.shape(None) is ()
            raise ValueError(f"with_hidden gate requires the base model's hidden state of "
                             f"shape {expected}, got {np.shape(base_hidden)}")
        x = np.concatenate([base_hidden, e], axis=-1)
        weight = gate.hidden_weight
    elif gate.variant == "lstm_gate":
        if state is None:
            state = initial_gate_state(gate, batch)
        cell = model.layer_sequence("lstm", _cell(gate), e, state.h[0], state.c[0])
        new_state = model.HiddenState([cell.h[-1]], [cell.c[-1]])
        x, weight = cell.h[1:], gate.weight
    else:
        x, weight = e, gate.weight
    g = x.reshape(steps * batch, -1) @ weight.T
    g += gate.bias
    g = g.reshape(steps, batch, -1)
    for lane in range(batch):
        g[:, lane] = kernels.sigmoid(g[:, lane])
    return g, GateTrace(block, x, g, mask, cell, new_state)


def _check_block(trace: GateTrace, base_logits, targets):
    if np.shape(base_logits) != trace.g.shape:
        raise ValueError(f"base logits shape {np.shape(base_logits)} does not match "
                         f"the gate's {trace.g.shape}")
    return model._check_targets(targets, trace, np.shape(base_logits)[-1])


def gated_sequence_loss(trace: GateTrace, base_logits, targets):
    """The gated model's mean cross-entropy over a block (float64 sum) and
    its gradient w.r.t. the gate's pre-activations: (loss, dpre), `dpre` of
    the gate's shape (T, B, V), as is `base_logits`. One float64 softmax
    pass per run of whole timesteps within 1 MiB (the whole block at desk
    shape, one timestep at ptb shape) gives the loss and the gated logits'
    gradient, which is scaled in place by logits * g * (1 - g) over the
    same runs; this is the first half of `gate_backward`. The gated logits
    g * logits are written into `dpre`, and the pass overwrites each run
    with its gradient."""
    targets = _check_block(trace, base_logits, targets)
    dpre = np.multiply(trace.g, base_logits, out=np.empty_like(trace.g))
    loss = model._cross_entropy(dpre, targets, dpre)
    for run in model._timestep_runs(dpre.shape):
        d, g = dpre[run], trace.g[run]
        d *= base_logits[run]
        d *= g
        d *= 1.0 - g
    return loss, dpre


def gate_backward(gate: IOGParams, trace: GateTrace, base_logits, targets):
    """The block's mean cross-entropy (float64 sum) and its exact gradients
    w.r.t. the gate parameters only: (loss, grads). The gradient mapping
    contains no base-model arrays by construction; the base stays frozen.
    `gated_sequence_loss` gives the loss and the pre-activation gradient;
    the weights and the embedding scatter take one product (or flat
    `add.at`) each. lstm_gate unrolls its cell backward through the whole
    block (truncation at block edges).
    """
    loss, dpre = gated_sequence_loss(trace, base_logits, targets)
    steps, batch = trace.inputs.shape
    dpre = dpre.reshape(steps * batch, -1)
    # Of the input gradient only the last D_g columns are kept: with_hidden's
    # first D_h columns would flow into the frozen base's hidden state,
    # which no gate parameter affects.
    name = "hidden_weight" if gate.variant == "with_hidden" else "weight"
    computed = {name: dpre.T @ trace.x.reshape(steps * batch, -1), "bias": dpre.sum(axis=0)}
    de = (dpre @ getattr(gate, name)[:, -gate.d_g:]).reshape(steps, batch, -1)
    del dpre  # (T·B, V): freed before the other gradients are allocated
    grads = {k: computed[k] if k in computed else np.zeros_like(a)
             for k, a in gate.named_arrays().items()}
    if gate.variant == "lstm_gate":
        grad = {"weight": grads["cell_weight"], "bias": grads["cell_bias"]}
        de = model.layer_backward("lstm", _cell(gate), grad, trace.cell, de)
    if trace.mask is not None:
        de = de * trace.mask
    model._scatter_add(grads["embedding"], trace.inputs, de)
    return loss, grads


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
    g, _ = compute_gate(gate, [[vocab.to_index(input_word)]])
    g = g[0, 0].astype(np.float64)
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
