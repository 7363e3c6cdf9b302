"""Dense numeric kernels shared by the model, gate, and training code.

Parameters live in float32 by default; softmax, log-softmax, and loss
reductions always accumulate in float64. Gradient checking runs whole models
in float64, where the central-difference oracle below is trustworthy to well
under the 1e-3 relative tolerance used throughout the test suite.

Every function here is pure: no internal state, safe to call concurrently.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """An input that must be finite contained NaN or infinity."""


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
