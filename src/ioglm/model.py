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
    the ordered ``name -> shape`` spec its dimensions imply (`param_spec`),
    all of one dtype, native float32 or float64 (`dtype`).

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
        dtypes = {arrays[name].dtype for name in spec}
        if dtypes not in ({np.dtype(np.float32)}, {np.dtype(np.float64)}):
            raise ValueError(f"arrays must share one dtype, float32 or float64, got "
                             f"{', '.join(sorted(map(str, dtypes)))}")
        self.dims = dims
        self.dtype = dtypes.pop()
        self._arrays = {name: arrays[name] for name in spec}
        self.__dict__.update(dims)
        self.__dict__.update((k, v) for k, v in self._arrays.items() if k.isidentifier())

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
                seed=0, dtype=np.float32) -> LMParams:
    """Uniform [-0.1, 0.1] initialization from a seeded generator, drawn in
    spec order except that each LSTM bias is drawn before its weight; the
    LSTM forget-gate bias block is then set to 1.0."""
    dims = dict(vocab_size=vocab_size, d_e=d_e, d_h=d_h, layers=layers,
                cell_kind=cell_kind, tie_weights=bool(tie_weights))
    spec = param_spec(**dims)
    names = list(spec)
    for i, name in enumerate(names):
        if cell_kind == "lstm" and name.startswith("cell") and name.endswith(".bias"):
            names[i - 1], names[i] = name, names[i - 1]
    rng = np.random.default_rng(seed)
    arrays = {n: rng.uniform(-0.1, 0.1, size=spec[n]).astype(dtype) for n in names}
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
# Cell primitives (shared with the gate module's LSTM variant). Each runs a
# layer call's time loop over the block's time-major arrays, paying its call
# and gate views once per layer call. The forward gets a contiguous W_h^T and
# the hoisted xw = x W_x + b; step t adds h[t] W_h into xw[t] unchecked and
# writes row t + 1 of h (and c), whose row 0 is the incoming state. The
# backward gets W_h and `dhs`, the gradient reaching each output from above.

def _gate_views(a):
    """The i, f, g, o quarters of the last axis of an LSTM gate array."""
    d = a.shape[-1] // 4
    return a[..., :d], a[..., d:2 * d], a[..., 2 * d:3 * d], a[..., 3 * d:]


def lstm_cell_forward(w_h, xw, h, c, act, tc):
    """LSTM steps over a block, gates in i, f, g, o order: one sigmoid over
    all four gates, then tanh over g. `xw` and `act` are (T, B, 4 D_h),
    `tc` (T, B, D_h) gets tanh(c)."""
    for pre, pre_g, h_prev, c_prev, a, i, f, g, o, c_t, tc_t, h_t in zip(
            xw, _gate_views(xw)[2], h, c, act, *_gate_views(act), c[1:], tc, h[1:]):
        np.add(pre, h_prev @ w_h, out=pre)
        kernels._sigmoid(pre, a)
        np.tanh(pre_g, out=g)
        np.multiply(f, c_prev, out=c_t)
        c_t += i * g
        np.tanh(c_t, out=tc_t)
        np.multiply(o, tc_t, out=h_t)


def lstm_cell_backward(w_h, act, c, tc, dhs, dpre):
    """Backward through `lstm_cell_forward`'s steps, last step first."""
    dh_next = dc = np.zeros_like(tc[0])
    steps = zip(dhs, c, tc, dpre, *_gate_views(act), *_gate_views(dpre))
    for dh, c_prev, tc_t, dp, i, f, g, o, di, df, dg, do in reversed(list(steps)):
        dh = dh + dh_next
        dc = dc + dh * o * (1.0 - tc_t * tc_t)
        di[...] = dc * g * i * (1.0 - i)
        df[...] = dc * c_prev * f * (1.0 - f)
        dg[...] = dc * i * (1.0 - g * g)
        do[...] = dh * tc_t * o * (1.0 - o)
        dh_next, dc = dp @ w_h, dc * f


def elman_cell_forward(w_h, xw, h):
    """tanh steps over a block; `xw` is (T, B, D_h)."""
    for pre, h_prev, h_t in zip(xw, h, h[1:]):
        np.add(pre, h_prev @ w_h, out=pre)
        np.tanh(pre, out=h_t)


def elman_cell_backward(w_h, h, dhs, dpre):
    """Backward through `elman_cell_forward`'s steps, last step first."""
    dh_next = np.zeros_like(h[0])
    for dh, h_t, dp in reversed(list(zip(dhs, h[1:], dpre))):
        np.multiply(dh + dh_next, 1.0 - h_t * h_t, out=dp)
        dh_next = dp @ w_h


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


def _check_block(vocab_size, block, what="input", shape=None):
    """The checked (B, T) index block: integers, 2-D and non-empty, of
    `shape` when one is given, every index in [0, vocab_size)."""
    block = np.asarray(block)
    if block.dtype.kind not in "iu":
        raise ValueError(f"{what}s must be integer vocab indices, got dtype {block.dtype}")
    if block.ndim != 2 or block.size == 0 or shape not in (None, block.shape):
        of = "" if shape is None else f" of shape {shape}"
        raise ValueError(f"{what}s must be a non-empty (B, T) block{of}, got shape {block.shape}")
    bad = (block < 0) | (block >= vocab_size)
    if bad.any():
        raise ValueError(
            f"{what} index out of range [0, {vocab_size}): {sorted(set(block[bad].tolist()))}"
        )
    return block


def _check_lanes(vocab_size, lanes):
    """The door check of a stream's (B, L) lanes, L >= 2, each token once: a
    lane's first token as an input, every later one as a target."""
    _check_block(vocab_size, lanes[:, :1])
    _check_block(vocab_size, lanes[:, 1:], "target")


# A training softmax pass covers as many whole timesteps as fit in 1 MiB of
# float64, at least one: a desk or variants block (B=16, V=402, T=20) takes
# one pass, a ptb-shaped one (B=20, V=10 000) one pass per timestep.
_PASS_BYTES = 1 << 20


def _timestep_runs(shape):
    """Slices of consecutive whole timesteps of a (T, B, V) block, each
    run's float64 copy within `_PASS_BYTES` unless it is one timestep."""
    k = max(1, _PASS_BYTES // (8 * shape[1] * shape[2]))
    return [slice(t, t + k) for t in range(0, shape[0], k)]


def _cross_entropy(logits, targets, dlogits) -> float:
    """Mean float64 cross-entropy over a block from its (T, B, V) logits,
    with its gradient w.r.t. them written into `dlogits` (T, B, V), both
    from one softmax pass per run of timesteps (`_timestep_runs`); each run
    is read before it is written, so `dlogits` may be `logits` itself. The
    loss adds per-timestep sums in time order, so it does not depend on the
    run length."""
    total = 0.0
    for run in _timestep_runs(logits.shape):
        run_targets = targets.T[run]
        p, nll = kernels.softmax_stable(logits[run], run_targets)
        for step_sum in nll.sum(axis=-1):
            total += step_sum
        p.reshape(-1, p.shape[-1])[np.arange(run_targets.size), run_targets.ravel()] -= 1.0
        p *= 1.0 / targets.size
        dlogits[run] = p
    return float(total / targets.size)


def _scatter_add(table, indices, rows):
    """`np.add.at(table, indices, rows)` into a contiguous (V, D) `table`,
    by add.at's flat 1-D path, several times faster than its row path; each
    entry takes its repeats in the same order, so the sums are the same."""
    flat_table = table.view()
    flat_table.shape = -1  # raises where `reshape` would add into a copy
    flat = indices[..., None] * table.shape[1] + np.arange(table.shape[1])
    np.add.at(flat_table, flat.ravel(), rows.ravel())


def _split_weight(cell_kind, cell, d_in):
    """(W_x, W_h) views of one layer's weights."""
    if cell_kind == "lstm":
        return cell["weight"][:, :d_in], cell["weight"][:, d_in:]
    return cell["w_xh"], cell["w_hh"]


def layer_sequence(cell_kind, cell, xs, h, c=None) -> LayerTrace:
    """One recurrent layer over a time-major block `xs` (T, B, D_in) from
    the incoming state (B, D_h), which must be of the block's batch.

    The input projection plus bias is hoisted out of the time loop; numpy
    runs it on the (T, B, D_in) stack as one (B, D_in) product per
    timestep, as a (B, 1) block does, so a block's rows round as chained
    (B, 1) blocks' do. Only `h @ W_h` and the cell primitive step, in the
    (x W_x + b) + h W_h order, both on contiguous transposed weight copies
    made once per call, which BLAS multiplies ~2x as fast as strided views;
    the cell primitive runs the time loop, one call per layer call. Steps
    accumulate pre-activations in xw, all checked once after the loop.
    """
    steps, batch = xs.shape[:2]
    if h.shape[0] != batch:
        raise ValueError(f"batch mismatch: state has batch {h.shape[0]}, inputs {batch}")
    w_x, w_h = (np.ascontiguousarray(w.T) for w in _split_weight(cell_kind, cell, xs.shape[-1]))
    xw = xs @ w_x + cell["bias"]
    run = LayerTrace(xs, np.empty((steps + 1, batch, h.shape[1]), dtype=h.dtype))
    run.h[0] = h
    if cell_kind == "lstm":
        run.c = np.empty_like(run.h)
        run.c[0] = c
        run.act = np.empty((steps, batch, w_h.shape[1]), dtype=h.dtype)
        run.tc = np.empty_like(run.h[1:])
        lstm_cell_forward(w_h, xw, run.h, run.c, run.act, run.tc)
    else:
        elman_cell_forward(w_h, xw, run.h)
    if not np.isfinite(xw).all():
        raise kernels.NonFiniteError("recurrent pre-activation must be finite")
    return run


def layer_backward(cell_kind, cell, grad, run: LayerTrace, dhs):
    """Backward through `layer_sequence`, given `dhs` (T, B, D_h), the
    gradient reaching each output from above. Only the recurrent term steps
    back in time, in one cell-primitive call; the weight gradients, added
    into `grad` (arrays keyed as in `cell`), and the input gradient are one
    product each. Returns dx (T, B, D_in); no gradient flows into the
    incoming h and c."""
    steps, batch, d_in = run.x.shape
    w_x, w_h = _split_weight(cell_kind, cell, d_in)
    dpre = np.empty((steps, batch, w_h.shape[0]), dtype=run.h.dtype)
    if cell_kind == "lstm":
        lstm_cell_backward(w_h, run.act, run.c, run.tc, dhs, dpre)
    else:
        elman_cell_backward(w_h, run.h, dhs, dpre)
    rows = dpre.reshape(steps * batch, -1)
    grad_x, grad_h = _split_weight(cell_kind, grad, d_in)
    grad_x += rows.T @ run.x.reshape(steps * batch, d_in)
    grad_h += rows.T @ run.h[:-1].reshape(steps * batch, -1)
    grad["bias"] += rows.sum(axis=0)
    return (rows @ w_x).reshape(steps, batch, d_in)


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

    `inputs` (B, T), T >= 1, as `batchify` yields them, and a state of
    batch B give (logits (T, B, V), new HiddenState, BlockTrace), with one
    output product per block; one timestep is a (B, 1) block. Pure: the
    incoming state is never mutated.
    """
    block = _check_block(params.vocab_size, inputs).T
    layers, top, new_state = _recurrence(params, block, state, masks)
    logits = top.reshape(-1, params.d_h) @ params.out_weight.T
    logits += params.out_bias
    logits = logits.reshape(*block.shape, -1)
    return logits, new_state, BlockTrace(block, layers, top, logits, masks)


def backward_sequence(params: LMParams, trace: BlockTrace, targets):
    """The block's mean cross-entropy (float64 sum) and its exact gradients
    w.r.t. every trainable storage. One float64 softmax pass per run of
    whole timesteps within 1 MiB (`_PASS_BYTES`: the whole block at desk
    shape, one timestep at ptb shape) gives the loss and the block's float32
    `dlogits`; the output layer, the input-side weights and the embedding
    scatter take one product (or flat `add.at`, `_scatter_add`) each.

    Returns (loss, grads). No gradient flows into the state that preceded
    the block. Tied weights accumulate both the lookup-side and
    projection-side contributions into the shared storage.
    """
    targets = _check_block(params.vocab_size, targets, "target", trace.inputs.shape[::-1])
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
    for layer in reversed(range(params.layers)):
        if trace.masks is not None:
            dx = dx * trace.masks.layers[layer]
        cell = params.cells[layer]
        grad = {k: grads[f"cell{layer}.{k}"] for k in cell}
        dx = layer_backward(params.cell_kind, cell, grad, trace.layers[layer], dx)
    if trace.masks is not None:
        dx = dx * trace.masks.emb
    _scatter_add(grads["embedding"], trace.inputs, dx)
    return loss, grads


def hidden_sequence(params: LMParams, inputs, state: HiddenState):
    """Top-layer hidden vectors for a run of timesteps of one stream: the
    recurrence of `forward_step` without dropout or logits. The stream is
    one lane, so the tops are bit-identical to those of chained (1, 1)
    `forward_step` blocks. Evaluation runs it once per chunk.

    Returns (tops (T, D_h), new HiddenState) for a (T,) index array, one
    stream's chunk of T >= 1 tokens, and a batch-1 state.
    """
    inputs = np.asarray(inputs)
    if inputs.ndim != 1 or state.batch_size != 1:
        raise ValueError(f"hidden_sequence expects a (T,) index array and a batch-1 state, "
                         f"got {inputs.shape} and batch {state.batch_size}")
    block = _check_block(params.vocab_size, inputs[None]).T
    _, top, new_state = _recurrence(params, block, state, None)
    return top[:, 0], new_state
