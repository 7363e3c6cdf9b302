"""Dense numeric kernels shared by the model, gate, and training code.

Parameters live in float32 by default; softmax, log-softmax, and loss
reductions always accumulate in float64. Gradient checking runs whole models
in float64, where the test suite's central-difference oracle is trustworthy
to well under its 1e-3 relative tolerance.

Every function here is pure: no internal state, safe to call concurrently.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """An input that must be finite contained NaN or infinity."""


def softmax_stable(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in float64 with max subtraction.

    Accepts vectors or stacks of vectors. Output entries are strictly
    positive and every row sums to 1 within accumulation error.
    """
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("softmax input must be finite")
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(s: np.ndarray) -> np.ndarray:
    """Log of softmax over the last axis, float64, never evaluates log(0)."""
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("log_softmax input must be finite")
    shifted = s - s.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for |x| up to 1e3.

    Branch-free: with e = exp(-|x|), never the exponential of a positive
    argument, r = 1 / (1 + e) is the result where x >= 0 and e * r
    elsewhere, written into r in place to keep the peak memory low.
    Underflow of e to zero is the exact limit and is not reported. Output
    dtype and shape follow the input for float inputs (a 0-d input stays
    0-d); other inputs compute in float64.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("sigmoid input must be finite")
    flat = np.atleast_1d(arr)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(flat))
        r = 1.0 / (1.0 + e)
        np.multiply(e, r, out=r, where=flat < 0)
    return r.reshape(arr.shape)
