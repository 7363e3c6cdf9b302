"""Dense numeric kernels shared by the model, gate, and training code.

Parameters live in float32 by default; softmax, log-softmax, and loss
reductions always accumulate in float64. Training takes one softmax pass per
timestep for both the loss and its gradient, evaluation one log-softmax per
chunk. Gradient checking runs whole models in float64, where the test
suite's central-difference oracle is trustworthy to well under its 1e-3
relative tolerance.

Every function here is pure: no internal state, safe to call concurrently.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """An input that must be finite contained NaN or infinity."""


def softmax_stable(s: np.ndarray, targets=None):
    """Softmax over the last axis, computed in float64 with max subtraction.

    Accepts vectors or stacks of vectors. Output entries are strictly
    positive and every row sums to 1 within accumulation error. Given one
    target index per row, returns (p, nll) from the same pass, where the
    float64 per-row negative log-likelihood `log(z) - shifted[target]`
    equals `-log_softmax(s)` at the targets bit for bit and, never taking
    log(p), stays finite where p underflows.
    """
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("softmax input must be finite")
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    if targets is None:
        return e / z
    picked = np.take_along_axis(shifted, np.asarray(targets)[..., None], axis=-1)
    return e / z, (np.log(z) - picked)[..., 0]


def log_softmax(s: np.ndarray) -> np.ndarray:
    """Log of softmax over the last axis, float64, never evaluates log(0)."""
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("log_softmax input must be finite")
    shifted = s - s.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
    return 0.5 * np.tanh(0.5 * arr) + 0.5
