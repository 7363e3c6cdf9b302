"""Dense numeric kernels shared by the model, gate, and training code.

Parameters live in float32 by default; softmax, log-softmax, and loss
reductions always accumulate in float64. Both softmax kernels take one
target index per row and share one shifted `exp`-sum pass: training takes
one `softmax_stable` per run of whole timesteps within 1 MiB of float64 (a
desk block in one pass, a ptb-shaped block per timestep) for both the loss
and its gradient, evaluation one target-only `log_softmax` per chunk. The
checked `sigmoid` serves the gate. The LSTM steps write the same formula
unchecked, through `_sigmoid`: both cells' pre-activations accumulate in
the hoisted input projection, checked once per layer call. Gradient checks
run in float64.

Every public function is pure: no internal state, safe to call concurrently.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """An input that must be finite contained NaN or infinity."""


def _softmax_pass(s, targets, name):
    """The float64 pass both softmax kernels share: finite check, max shift,
    `exp`, row sums z and the shifted logit at each target. The shift casts
    as it subtracts and `exp` overwrites it, so one array is allocated: at
    eval chunk sizes a fresh array's page faults cost more than its math."""
    s = np.asarray(s)
    if not np.all(np.isfinite(s)):
        raise NonFiniteError(f"{name} input must be finite")
    shifted = np.subtract(s, s.max(axis=-1, keepdims=True), dtype=np.float64)
    picked = np.take_along_axis(shifted, np.asarray(targets)[..., None], axis=-1)
    e = np.exp(shifted, out=shifted)
    return e, e.sum(axis=-1, keepdims=True), picked


def softmax_stable(s: np.ndarray, targets):
    """(p, nll): the softmax over the last axis and each row's float64
    negative log-likelihood of its target, `log(z) - shifted[target]`, which
    equals `-log_softmax(s, targets)` bit for bit and, never taking log(p),
    stays finite where p underflows."""
    e, z, picked = _softmax_pass(s, targets, "softmax")
    return np.divide(e, z, out=e), (np.log(z) - picked)[..., 0]


def log_softmax(s: np.ndarray, targets) -> np.ndarray:
    """Each row's float64 log-softmax at its target, `shifted[target] - log(z)`,
    and no other entry; never evaluates log(0)."""
    _, z, picked = _softmax_pass(s, targets, "log_softmax")
    return (picked - np.log(z))[..., 0]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, through the identity
    sigmoid(x) = (1 + tanh(x / 2)) / 2.

    tanh saturates instead of overflowing, so every finite input is safe
    and raises no floating-point error; the result is exactly 0 or 1 where
    tanh saturates. The absolute error is within 2^-23 in float32 (2^-52 in
    float64), but the left tail is quantised: float32 outputs below 0.25
    are multiples of 2^-25, so those below about 6e-8 keep no relative
    accuracy (sigmoid(-30) is 0.0).
    Output dtype and shape follow the input for float inputs (a 0-d input
    gives a numpy scalar); other inputs compute in float64.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("sigmoid input must be finite")
    return _sigmoid(arr, np.empty_like(arr))[()]


def _sigmoid(x, out):
    """`sigmoid` into `out`, unchecked, in the same order of operations."""
    np.tanh(np.multiply(x, 0.5, out=out), out=out)
    return np.add(np.multiply(out, 0.5, out=out), 0.5, out=out)
