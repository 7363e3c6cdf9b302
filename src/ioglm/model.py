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

    def copy(self) -> "HiddenState":
        return HiddenState(
            [a.copy() for a in self.h],
            None if self.c is None else [a.copy() for a in self.c],
        )


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
        self.layer_count = self.layers
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
    h = [zeros() for _ in range(params.layer_count)]
    c = [zeros() for _ in range(params.layer_count)] if params.cell_kind == "lstm" else None
    return HiddenState(h, c)


def sample_dropout_masks(params: LMParams, rate: float, batch_size: int, rng) -> DropoutMasks | None:
    """Fresh inverted-dropout masks for one block; None when rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    keep = 1.0 - rate

    def mask(dim):
        return (rng.random((batch_size, dim)) >= rate).astype(params.dtype) / keep

    return DropoutMasks(mask(params.d_e), [mask(params.d_h) for _ in range(params.layer_count)])


# ---------------------------------------------------------------------------
# Cell primitives (shared with the gate module's LSTM variant)

def _lstm_pointwise(pre, c_prev):
    """LSTM elementwise work on a pre-activation (B, 4 D_h) in i, f, g, o
    block order: one sigmoid over all four blocks, then tanh over g."""
    d = c_prev.shape[1]
    act = kernels.sigmoid(pre)
    act[:, 2 * d:3 * d] = np.tanh(pre[:, 2 * d:3 * d])
    i, f, g, o = act[:, :d], act[:, d:2 * d], act[:, 2 * d:3 * d], act[:, 3 * d:]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, g, o, tc)


def lstm_cell_forward(weight, bias, x, h_prev, c_prev):
    d_in = x.shape[1]
    pre = (x @ weight[:, :d_in].T + bias) + h_prev @ weight[:, d_in:].T
    h, c, (i, f, g, o, tc) = _lstm_pointwise(pre, c_prev)
    return h, c, (np.concatenate([x, h_prev], axis=1), i, f, g, o, c_prev, tc)


def lstm_cell_backward(weight, cache, dh, dc_in):
    z, i, f, g, o, c_prev, tc = cache
    d = i.shape[1]
    do = dh * tc
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dpre = np.concatenate(
        [
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g * g),
            do * o * (1.0 - o),
        ],
        axis=1,
    )
    dweight = dpre.T @ z
    dbias = dpre.sum(axis=0)
    dz = dpre @ weight
    d_in = z.shape[1] - d
    return dweight, dbias, dz[:, :d_in], dz[:, d_in:], dc * f


def elman_cell_forward(w_xh, w_hh, bias, x, h_prev):
    h = np.tanh((x @ w_xh.T + bias) + h_prev @ w_hh.T)
    return h, (x, h_prev, h)


def elman_cell_backward(w_xh, w_hh, cache, dh):
    x, h_prev, h = cache
    dpre = dh * (1.0 - h * h)
    return dpre.T @ x, dpre.T @ h_prev, dpre.sum(axis=0), dpre @ w_xh, dpre @ w_hh


# ---------------------------------------------------------------------------
# Stepwise forward / blockwise backward

@dataclass
class StepTrace:
    """Activations of one timestep retained for the backward pass."""

    inputs: np.ndarray      # (B,) vocab indices
    caches: list            # per-layer cell caches
    top: np.ndarray         # (B, D_h) post-dropout input to the output layer
    logits: np.ndarray      # (B, V)
    masks: DropoutMasks | None


def _check_inputs(params, inputs):
    inputs = np.atleast_1d(np.asarray(inputs))
    if inputs.dtype.kind not in "iu":
        raise ValueError(f"inputs must be integer vocab indices, got dtype {inputs.dtype}")
    if inputs.ndim != 1:
        raise ValueError(f"inputs must be a scalar or 1-d index array, got shape {inputs.shape}")
    if ((inputs < 0) | (inputs >= params.vocab_size)).any():
        raise ValueError(
            f"input index out of range [0, {params.vocab_size}): {inputs.tolist()}"
        )
    return inputs


def forward_step(params: LMParams, state: HiddenState, inputs, masks=None):
    """One timestep: embedding lookup, recurrent cells, output logits.

    Returns (logits (B, V), new HiddenState, StepTrace). Pure: the incoming
    state is never mutated, so identical calls give bit-identical outputs.
    """
    inputs = _check_inputs(params, inputs)
    if state.batch_size != inputs.shape[0]:
        raise ValueError(
            f"batch mismatch: state has batch {state.batch_size}, inputs {inputs.shape[0]}"
        )
    x = params.embedding[inputs]
    if masks is not None:
        x = x * masks.emb
    new_h, new_c, caches = [], [], []
    for layer, cell in enumerate(params.cells):
        if params.cell_kind == "lstm":
            h, c, cache = lstm_cell_forward(
                cell["weight"], cell["bias"], x, state.h[layer], state.c[layer]
            )
            new_c.append(c)
        else:
            h, cache = elman_cell_forward(
                cell["w_xh"], cell["w_hh"], cell["bias"], x, state.h[layer]
            )
        new_h.append(h)
        caches.append(cache)
        x = h * masks.layers[layer] if masks is not None else h
    logits = x @ params.out_weight.T + params.out_bias
    new_state = HiddenState(new_h, new_c if params.cell_kind == "lstm" else None)
    return logits, new_state, StepTrace(inputs, caches, x, logits, masks)


def sequence_loss(trace: list, targets) -> float:
    """Mean cross-entropy over a block, accumulated in float64."""
    targets = np.asarray(targets)
    if len(trace) == 0:
        raise ValueError("cannot compute a loss over an empty trace")
    batch = trace[0].inputs.shape[0]
    if targets.shape != (batch, len(trace)):
        raise ValueError(
            f"targets shape {targets.shape} does not match trace ({batch}, {len(trace)})"
        )
    total = 0.0
    for t, entry in enumerate(trace):
        lp = kernels.log_softmax(entry.logits)
        total -= lp[np.arange(batch), targets[:, t]].sum()
    return float(total / targets.size)


def backward_sequence(params: LMParams, trace: list, targets):
    """Exact gradients of the block's mean cross-entropy w.r.t. every
    trainable storage, walking the stored trace in reverse.

    No gradient flows into the state that preceded the block; the would-be
    gradient w.r.t. that incoming state is returned alongside so callers can
    see what the truncation discarded. Tied weights accumulate both the
    lookup-side and projection-side contributions into the shared storage.
    """
    targets = np.asarray(targets)
    if len(trace) == 0:
        raise ValueError("cannot backpropagate over an empty trace")
    batch = trace[0].inputs.shape[0]
    steps = len(trace)
    if targets.shape != (batch, steps):
        raise ValueError(
            f"targets shape {targets.shape} does not match trace ({batch}, {steps})"
        )
    dtype = params.dtype
    grads = {k: np.zeros_like(a) for k, a in params.named_arrays().items()}
    layers = params.layer_count
    is_lstm = params.cell_kind == "lstm"
    dh_next = [np.zeros((batch, params.d_h), dtype=dtype) for _ in range(layers)]
    dc_next = [np.zeros((batch, params.d_h), dtype=dtype) for _ in range(layers)] if is_lstm else None
    out_w = params.out_weight
    out_w_grad = grads["embedding"] if params.tie_weights else grads["out_weight"]
    scale = 1.0 / targets.size

    for t in reversed(range(steps)):
        entry = trace[t]
        p = kernels.softmax_stable(entry.logits)
        p[np.arange(batch), targets[:, t]] -= 1.0
        dlogits = (p * scale).astype(dtype, copy=False)

        out_w_grad += dlogits.T @ entry.top
        grads["out_bias"] += dlogits.sum(axis=0)
        dx = dlogits @ out_w

        for layer in reversed(range(layers)):
            mask = entry.masks.layers[layer] if entry.masks is not None else None
            dh = (dx * mask if mask is not None else dx) + dh_next[layer]
            if is_lstm:
                dw, db, dx, dh_prev, dc_prev = lstm_cell_backward(
                    params.cells[layer]["weight"], entry.caches[layer], dh, dc_next[layer]
                )
                grads[f"cell{layer}.weight"] += dw
                grads[f"cell{layer}.bias"] += db
                dc_next[layer] = dc_prev
            else:
                dwxh, dwhh, db, dx, dh_prev = elman_cell_backward(
                    params.cells[layer]["w_xh"],
                    params.cells[layer]["w_hh"],
                    entry.caches[layer],
                    dh,
                )
                grads[f"cell{layer}.w_xh"] += dwxh
                grads[f"cell{layer}.w_hh"] += dwhh
                grads[f"cell{layer}.bias"] += db
            dh_next[layer] = dh_prev

        de = dx * entry.masks.emb if entry.masks is not None else dx
        np.add.at(grads["embedding"], entry.inputs, de.astype(dtype, copy=False))

    state_grad = HiddenState(dh_next, dc_next)
    return grads, state_grad


def layer_sequence(cell_kind, cell, xs, h, c=None):
    """One recurrent layer over a chunk of a batch-1 stream: `xs` (T, D_in)
    in, (outputs (T, D_h), last h, last c or None) out.

    The input projection plus bias is hoisted out of the time loop. It is a
    stacked product, one row at a time, because a (T, D_in) matrix product
    may round its rows differently from the single-row products of
    `forward_step`; here every row rounds as the stepwise cell's does, in
    the same (x W_x + b) + h W_h order.
    """
    if cell_kind == "lstm":
        d_in = xs.shape[1]
        w_x, w_h = cell["weight"][:, :d_in], cell["weight"][:, d_in:]
    else:
        w_x, w_h = cell["w_xh"], cell["w_hh"]
    xb = np.matmul(xs[:, None, :], w_x.T)[:, 0] + cell["bias"]
    w_h = w_h.T
    out = np.empty((xs.shape[0], h.shape[1]), dtype=h.dtype)
    for t in range(xs.shape[0]):
        pre = xb[t:t + 1] + h @ w_h
        if cell_kind == "lstm":
            h, c, _ = _lstm_pointwise(pre, c)
        else:
            h = np.tanh(pre)
        out[t] = h[0]
    return out, h, c


def hidden_sequence(params: LMParams, inputs, state: HiddenState):
    """Top-layer hidden vectors for a run of timesteps, without computing
    logits. Evaluation-only fast path (no dropout, no trace): the layers run
    one after another over the run with `layer_sequence`, which hoists each
    layer's input projection out of the time loop (once per evaluation
    chunk). The tops are bit-identical to stepwise `forward_step` ones.

    Returns (tops (T, D_h), new HiddenState) for a (T,) index array and a
    batch-1 state.
    """
    inputs = _check_inputs(params, inputs)
    if state.batch_size != 1:
        raise ValueError("hidden_sequence expects a batch-1 state")
    xs = params.embedding[inputs]
    h = list(state.h)
    c = list(state.c) if state.c is not None else [None] * params.layer_count
    for layer, cell in enumerate(params.cells):
        xs, h[layer], c[layer] = layer_sequence(params.cell_kind, cell, xs, h[layer], c[layer])
    return xs, HiddenState(h, c if state.c is not None else None)
