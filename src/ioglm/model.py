"""Base recurrent language model with explicit forward and backward passes.

Supports Elman (tanh) and LSTM cells, stacked layers, optional weight tying
between the embedding table and the output projection, and inverted dropout
on the embedding output and each layer's output. Recurrent connections are
never dropped: the state passed to the next timestep keeps the pre-dropout
activations. The hidden state starts at zero, is carried across sentence
boundaries, and truncated backprop cuts gradient flow at block boundaries
only.

Every backward formula here is hand-derived and checked against the
central-difference oracle in the test suite; there is no autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

CELL_KINDS = ("elman", "lstm")


@dataclass
class HiddenState:
    """Per-layer recurrent state; arrays have shape (batch, D_h)."""

    h: list
    c: list | None = None

    @property
    def batch_size(self) -> int:
        return self.h[0].shape[0]


@dataclass
class DropoutMasks:
    """Inverted-dropout masks, one per dropout site, reused for every
    timestep of one truncated-backprop block."""

    emb: np.ndarray
    layers: list


class ParamSet:
    """Trainable arrays of one parameter set, held in a dict that matches
    the ordered ``name -> shape`` spec its dimensions imply (`param_spec`).

    The dimensions are attributes, and so is every array whose name is an
    identifier; they are bound once, at construction, over the same storage
    as `named_arrays`, so hot loops read plain attributes and in-place
    updates through either view agree.
    """

    param_spec = None  # the set's spec function, given by each subclass

    def __init__(self, arrays: dict, **dims):
        spec = self.param_spec(**dims)
        if arrays.keys() != spec.keys():
            raise ValueError(f"arrays {sorted(arrays)} do not match the spec {list(spec)}")
        for name, shape in spec.items():
            if arrays[name].shape != shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, the spec says {shape}")
        self.dims = dims
        self._arrays = {name: arrays[name] for name in spec}
        self.__dict__.update(dims)
        self.__dict__.update((k, v) for k, v in self._arrays.items() if k.isidentifier())
        self.dtype = self.embedding.dtype

    def named_arrays(self) -> dict:
        """Ordered mapping of trainable storages, in spec order."""
        return dict(self._arrays)

    def param_count(self) -> int:
        return sum(a.size for a in self._arrays.values())

    def copy(self):
        return self.replace_arrays({k: v.copy() for k, v in self._arrays.items()})

    def replace_arrays(self, named: dict):
        """A new set of the same dimensions over the given storages, which
        must match the spec in names and shapes."""
        return type(self)(named, **self.dims)


def param_spec(vocab_size, d_e, d_h, layers, cell_kind, tie_weights) -> dict:
    """Ordered ``name -> shape`` of the base model's trainable storages; a
    tied projection is the embedding and appears once."""
    if cell_kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {cell_kind!r}, expected one of {CELL_KINDS}")
    if min(vocab_size, d_e, d_h, layers) < 1:
        raise ValueError(
            f"dimensions must be positive: V={vocab_size}, D_e={d_e}, D_h={d_h}, layers={layers}"
        )
    if tie_weights and d_e != d_h:
        raise ValueError(f"weight tying requires D_e == D_h, got {d_e} != {d_h}")
    spec = {"embedding": (vocab_size, d_e)}
    for i in range(layers):
        d_in = d_e if i == 0 else d_h
        if cell_kind == "lstm":
            spec[f"cell{i}.weight"] = (4 * d_h, d_in + d_h)
            spec[f"cell{i}.bias"] = (4 * d_h,)
        else:
            spec[f"cell{i}.w_xh"] = (d_h, d_in)
            spec[f"cell{i}.w_hh"] = (d_h, d_h)
            spec[f"cell{i}.bias"] = (d_h,)
    if not tie_weights:
        spec["out_weight"] = (vocab_size, d_h)
    spec["out_bias"] = (vocab_size,)
    return spec


class LMParams(ParamSet):
    """Parameters of the base language model, with dimensions `vocab_size`,
    `d_e`, `d_h`, `layers`, `cell_kind` and `tie_weights`.

    The embedding table is stored as (V, D_e) and read by row lookup; the
    output projection is (V, D_h). With `tie_weights` the projection *is*
    the embedding array (same storage, requires D_e == D_h), so mutating one
    mutates the other and the tied storage is counted and trained once.
    `cells` holds one dict per layer of that layer's arrays by short name.
    """

    param_spec = staticmethod(param_spec)

    def __init__(self, arrays: dict, **dims):
        super().__init__(arrays, **dims)
        self.cells = [{} for _ in range(self.layers)]
        for name, arr in self._arrays.items():
            if name.startswith("cell"):
                layer, key = name[4:].split(".")
                self.cells[int(layer)][key] = arr
        if self.tie_weights:
            self.out_weight = self.embedding


def init_params(vocab_size, d_e, d_h, layers=1, cell_kind="lstm", tie_weights=False,
                seed=0, dtype=np.float32, init_scale=0.1) -> LMParams:
    """Uniform [-init_scale, init_scale] initialization from a seeded
    generator, drawn in spec order except that each LSTM bias is drawn
    before its weight; the LSTM forget-gate bias block is then set to 1.0."""
    dims = dict(vocab_size=vocab_size, d_e=d_e, d_h=d_h, layers=layers,
                cell_kind=cell_kind, tie_weights=bool(tie_weights))
    spec = param_spec(**dims)
    names = list(spec)
    for i, name in enumerate(names):
        if cell_kind == "lstm" and name.startswith("cell") and name.endswith(".bias"):
            names[i - 1], names[i] = name, names[i - 1]
    rng = np.random.default_rng(seed)
    arrays = {n: rng.uniform(-init_scale, init_scale, size=spec[n]).astype(dtype) for n in names}
    if cell_kind == "lstm":
        for i in range(layers):
            arrays[f"cell{i}.bias"][d_h:2 * d_h] = 1.0  # forget gate opens at init
    return LMParams(arrays, **dims)


def initial_state(params: LMParams, batch_size: int = 1) -> HiddenState:
    d_h = params.d_h
    zeros = lambda: np.zeros((batch_size, d_h), dtype=params.dtype)
    h = [zeros() for _ in range(params.layers)]
    c = [zeros() for _ in range(params.layers)] if params.cell_kind == "lstm" else None
    return HiddenState(h, c)


def dropout_mask(rate: float, shape, dtype, rng) -> np.ndarray | None:
    """One inverted-dropout mask; None when rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


def sample_dropout_masks(params: LMParams, rate: float, batch_size: int, rng) -> DropoutMasks | None:
    """Fresh inverted-dropout masks for one block; None when rate is 0."""
    emb = dropout_mask(rate, (batch_size, params.d_e), params.dtype, rng)
    if emb is None:
        return None
    layers = [dropout_mask(rate, (batch_size, params.d_h), params.dtype, rng)
              for _ in range(params.layers)]
    return DropoutMasks(emb, layers)



# ---------------------------------------------------------------------------
# Cell primitives (shared with the gate module's LSTM variant). A forward
# step gets a contiguous W_h^T and xw = x W_x + b, hoisted out of the time
# loop, and writes its activations into rows of the block's time-major
# arrays; a backward step gets W_h and writes the pre-activation gradient.

def lstm_cell_forward(w_h, xw, h_prev, c_prev, act, c, tc, h):
    """One LSTM step, gates in i, f, g, o order: one sigmoid over all four
    gates, then tanh over g."""
    d = c.shape[1]
    pre = xw + h_prev @ w_h
    act[...] = kernels.sigmoid(pre)
    np.tanh(pre[:, 2 * d:3 * d], out=act[:, 2 * d:3 * d])
    i, f, g, o = act[:, :d], act[:, d:2 * d], act[:, 2 * d:3 * d], act[:, 3 * d:]
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def lstm_cell_backward(w_h, act, c_prev, tc, dh, dc_in, dpre):
    """One LSTM step backward; returns the gradients w.r.t. h_prev and
    c_prev."""
    d = tc.shape[1]
    i, f, g, o = act[:, :d], act[:, d:2 * d], act[:, 2 * d:3 * d], act[:, 3 * d:]
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dpre[:, :d] = dc * g * i * (1.0 - i)
    dpre[:, d:2 * d] = dc * c_prev * f * (1.0 - f)
    dpre[:, 2 * d:3 * d] = dc * i * (1.0 - g * g)
    dpre[:, 3 * d:] = dh * tc * o * (1.0 - o)
    return dpre @ w_h, dc * f


def elman_cell_forward(w_h, xw, h_prev, h):
    np.tanh(xw + h_prev @ w_h, out=h)


def elman_cell_backward(w_h, h, dh, dpre):
    np.multiply(dh, 1.0 - h * h, out=dpre)
    return dpre @ w_h


# ---------------------------------------------------------------------------
# The block path

@dataclass
class LayerTrace:
    """One layer's activations over a block, time-major. Row 0 of `h` and
    `c` is the incoming state, row t + 1 the state after step t."""

    x: np.ndarray                  # (T, B, D_in) input, post-dropout
    h: np.ndarray                  # (T + 1, B, D_h)
    c: np.ndarray | None = None    # (T + 1, B, D_h), LSTM only
    act: np.ndarray | None = None  # (T, B, 4 D_h) gate activations, LSTM only
    tc: np.ndarray | None = None   # (T, B, D_h) tanh(c), LSTM only


@dataclass
class BlockTrace:
    """Activations of one block retained for the backward pass."""

    inputs: np.ndarray      # (T, B) vocab indices
    layers: list            # one LayerTrace per layer
    top: np.ndarray         # (T, B, D_h) post-dropout input to the output layer
    logits: np.ndarray      # (T, B, V)
    masks: DropoutMasks | None


def _check_indices(vocab_size, indices, what="input"):
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":
        raise ValueError(f"{what}s must be integer vocab indices, got dtype {indices.dtype}")
    bad = (indices < 0) | (indices >= vocab_size)
    if bad.any():
        raise ValueError(
            f"{what} index out of range [0, {vocab_size}): {sorted(set(indices[bad].tolist()))}"
        )
    return indices


def _as_block(vocab_size, inputs, what="input"):
    """The checked time-major (T, B) view of a non-empty (B, T) index block."""
    inputs = _check_indices(vocab_size, inputs, what)
    if inputs.ndim != 2 or inputs.size == 0:
        raise ValueError(f"{what}s must be a non-empty (B, T) block, got shape {inputs.shape}")
    return inputs.T


def _check_targets(targets, trace, vocab_size):
    """The (B, T) targets of a block trace, checked in shape and range."""
    targets = _check_indices(vocab_size, targets, "target")
    if targets.shape != trace.inputs.shape[::-1]:
        raise ValueError(f"targets shape {targets.shape} does not match trace "
                         f"{trace.inputs.shape[::-1]}")
    return targets


def _cross_entropy(step_logits, targets, dlogits) -> float:
    """Mean float64 cross-entropy over a block from its per-timestep (B, V)
    logits, with its gradient w.r.t. them written into `dlogits` (T, B, V),
    both from one softmax pass per timestep."""
    rows = np.arange(targets.shape[0])
    total = 0.0
    for t, logits in enumerate(step_logits):
        p, nll = kernels.softmax_stable(logits, targets[:, t])
        total += nll.sum()
        p[rows, targets[:, t]] -= 1.0
        p *= 1.0 / targets.size
        dlogits[t] = p
    return float(total / targets.size)


def _split_weight(cell_kind, cell, d_in):
    """(W_x, W_h) views of one layer's weights."""
    if cell_kind == "lstm":
        return cell["weight"][:, :d_in], cell["weight"][:, d_in:]
    return cell["w_xh"], cell["w_hh"]


def layer_sequence(cell_kind, cell, xs, h, c=None) -> LayerTrace:
    """One recurrent layer over a time-major block `xs` (T, B, D_in) from
    the incoming state (B, D_h).

    The input projection plus bias is hoisted out of the time loop; numpy
    runs it on the (T, B, D_in) stack as one (B, D_in) product per
    timestep, as a (B, 1) block does, so a block's rows round as chained
    (B, 1) blocks' do. Only `h @ W_h` and the cell primitive step, in the
    (x W_x + b) + h W_h order, both on contiguous transposed weight copies
    made once per call, which BLAS multiplies ~2x as fast as strided views.
    """
    w_x, w_h = (np.ascontiguousarray(w.T) for w in _split_weight(cell_kind, cell, xs.shape[-1]))
    xw = xs @ w_x + cell["bias"]
    steps, batch = xs.shape[:2]
    run = LayerTrace(xs, np.empty((steps + 1, batch, h.shape[1]), dtype=h.dtype))
    run.h[0] = h
    if cell_kind == "lstm":
        run.c = np.empty_like(run.h)
        run.c[0] = c
        run.act = np.empty((steps, batch, w_h.shape[1]), dtype=h.dtype)
        run.tc = np.empty_like(run.h[1:])
        for rows in zip(xw, run.h, run.c, run.act, run.c[1:], run.tc, run.h[1:]):
            lstm_cell_forward(w_h, *rows)
    else:
        for rows in zip(xw, run.h, run.h[1:]):
            elman_cell_forward(w_h, *rows)
    return run


def layer_backward(cell_kind, cell, grad, run: LayerTrace, dhs):
    """Backward through `layer_sequence`, given `dhs` (T, B, D_h), the
    gradient reaching each output from above. Only the recurrent term steps
    back in time; the weight gradients, added into `grad` (arrays keyed as
    in `cell`), and the input gradient are one product each. Returns
    (dx (T, B, D_in), the gradients w.r.t. the incoming h and c)."""
    steps, batch, d_in = run.x.shape
    w_x, w_h = _split_weight(cell_kind, cell, d_in)
    dh_next = np.zeros_like(run.h[0])
    dc_next = np.zeros_like(run.h[0]) if cell_kind == "lstm" else None
    dpre = np.empty((steps, batch, w_h.shape[0]), dtype=run.h.dtype)
    for t in reversed(range(steps)):
        dh = dhs[t] + dh_next
        if cell_kind == "lstm":
            dh_next, dc_next = lstm_cell_backward(w_h, run.act[t], run.c[t], run.tc[t], dh,
                                                  dc_next, dpre[t])
        else:
            dh_next = elman_cell_backward(w_h, run.h[t + 1], dh, dpre[t])
    rows = dpre.reshape(steps * batch, -1)
    grad_x, grad_h = _split_weight(cell_kind, grad, d_in)
    grad_x += rows.T @ run.x.reshape(steps * batch, d_in)
    grad_h += rows.T @ run.h[:-1].reshape(steps * batch, -1)
    grad["bias"] += rows.sum(axis=0)
    return (rows @ w_x).reshape(steps, batch, d_in), dh_next, dc_next


def _recurrence(params, inputs, state, masks):
    """The layers, one after another, over a (T, B) block. Returns (the
    LayerTraces, the post-dropout top (T, B, D_h), the new state)."""
    x = params.embedding[inputs]
    if masks is not None:
        x = x * masks.emb
    layers = []
    for layer, cell in enumerate(params.cells):
        c = state.c[layer] if state.c is not None else None
        run = layer_sequence(params.cell_kind, cell, x, state.h[layer], c)
        layers.append(run)
        x = run.h[1:] * masks.layers[layer] if masks is not None else run.h[1:]
    c = [run.c[-1] for run in layers] if params.cell_kind == "lstm" else None
    return layers, x, HiddenState([run.h[-1] for run in layers], c)


def forward_step(params: LMParams, state: HiddenState, inputs, masks=None):
    """The block forward: embedding lookup, recurrent cells, output logits.

    `inputs` (B, T), T >= 1, as `batchify` yields them, give (logits
    (T, B, V), new HiddenState, BlockTrace), with one output product per
    block; one timestep is a (B, 1) block. Pure: the incoming state is
    never mutated.
    """
    block = _as_block(params.vocab_size, inputs)
    if state.batch_size != block.shape[1]:
        raise ValueError(
            f"batch mismatch: state has batch {state.batch_size}, inputs {block.shape[1]}"
        )
    layers, top, new_state = _recurrence(params, block, state, masks)
    logits = top.reshape(-1, params.d_h) @ params.out_weight.T
    logits += params.out_bias
    logits = logits.reshape(*block.shape, -1)
    return logits, new_state, BlockTrace(block, layers, top, logits, masks)


def backward_sequence(params: LMParams, trace: BlockTrace, targets):
    """The block's mean cross-entropy (float64 sum) and its exact gradients
    w.r.t. every trainable storage. One float64 softmax pass per timestep
    gives the loss and the block's float32 `dlogits`; the output layer, the
    input-side weights and the embedding scatter take one product (or
    `add.at`) each.

    No gradient flows into the state that preceded the block; the would-be
    gradient w.r.t. that incoming state is returned third, in (loss, grads,
    state gradient), so callers can see what the truncation discarded. Tied
    weights accumulate both the lookup-side and projection-side
    contributions into the shared storage.
    """
    targets = _check_targets(targets, trace, params.vocab_size)
    steps, batch = trace.inputs.shape
    grads = {k: np.zeros_like(a) for k, a in params.named_arrays().items()}
    dlogits = np.empty_like(trace.logits)
    loss = _cross_entropy(trace.logits, targets, dlogits)
    dlogits = dlogits.reshape(steps * batch, -1)
    # Written in place, without a temporary: nothing has been added to the
    # zeroed projection gradient yet (a tied embedding's scatter comes last).
    out_w_grad = grads["embedding"] if params.tie_weights else grads["out_weight"]
    np.matmul(dlogits.T, trace.top.reshape(steps * batch, -1), out=out_w_grad)
    grads["out_bias"] += dlogits.sum(axis=0)
    dx = (dlogits @ params.out_weight).reshape(steps, batch, -1)
    dh0, dc0 = [None] * params.layers, [None] * params.layers
    for layer in reversed(range(params.layers)):
        if trace.masks is not None:
            dx = dx * trace.masks.layers[layer]
        cell = params.cells[layer]
        grad = {k: grads[f"cell{layer}.{k}"] for k in cell}
        dx, dh0[layer], dc0[layer] = layer_backward(params.cell_kind, cell, grad,
                                                    trace.layers[layer], dx)
    if trace.masks is not None:
        dx = dx * trace.masks.emb
    np.add.at(grads["embedding"], trace.inputs, dx)
    return loss, grads, HiddenState(dh0, dc0 if params.cell_kind == "lstm" else None)


def hidden_sequence(params: LMParams, inputs, state: HiddenState):
    """Top-layer hidden vectors for a run of timesteps of one stream: the
    recurrence of `forward_step` without dropout or logits. The stream is
    one lane, so the tops are bit-identical to those of chained (1, 1)
    `forward_step` blocks. Evaluation runs it once per chunk.

    Returns (tops (T, D_h), new HiddenState) for a (T,) index array, one
    stream's chunk, and a batch-1 state.
    """
    inputs = _check_indices(params.vocab_size, inputs)
    if inputs.ndim != 1 or state.batch_size != 1:
        raise ValueError(f"hidden_sequence expects a (T,) index array and a batch-1 state, "
                         f"got {inputs.shape} and batch {state.batch_size}")
    _, top, new_state = _recurrence(params, inputs[:, None], state, None)
    return top[:, 0], new_state
