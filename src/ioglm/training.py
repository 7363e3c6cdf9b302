"""Two-phase optimization.

Phase one trains the base language model with truncated backprop, gradient
clipping, and a configurable optimizer. Phase two freezes every base
parameter and trains the gate alone under its standard recipe: gate
embedding width 300, dropout 50% on the gate embedding, Adam, initial
learning rate 0.001 decayed by 1/sqrt(epoch), at most 5 epochs.

Both phases carry hidden state across blocks within an epoch, reset it at
epoch boundaries, select the best checkpoint by validation perplexity, and
are fully deterministic given (seed, config, data) on one platform.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import corpus, gate as gate_mod, kernels, model

OPTIMIZERS = ("sgd", "adam")
LR_SCHEDULES = ("inverse_sqrt_epoch", "constant", "step")
PHASES = ("base", "iog")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or the pre-clip gradient norm becomes
    non-finite; the message names the epoch, the block and the lr."""


@dataclass
class TrainConfig:
    phase: str = "base"
    batch_size: int = 20
    bptt_length: int = 35
    max_epochs: int = 10
    optimizer: str = "sgd"
    initial_lr: float = 1.0
    lr_schedule: str = "step"
    lr_step_factor: float = 0.5
    lr_step_start: int = 5
    dropout_rate: float = 0.0
    grad_clip_norm: float = 5.0
    seed: int = 0
    d_g: int = 300
    gate_variant: str = "input_only"

    def validate(self) -> "TrainConfig":
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}, expected one of {PHASES}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZERS}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(
                f"unknown lr schedule {self.lr_schedule!r}, expected one of {LR_SCHEDULES}"
            )
        if self.gate_variant not in gate_mod.VARIANTS:
            raise ValueError(f"unknown gate variant {self.gate_variant!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        if min(self.batch_size, self.bptt_length, self.max_epochs, self.d_g) < 1:
            raise ValueError("batch_size, bptt_length, max_epochs, and d_g must be positive")
        if self.initial_lr < 0:
            raise ValueError(f"initial_lr must be non-negative, got {self.initial_lr}")
        if self.grad_clip_norm < 0:
            raise ValueError(f"grad_clip_norm must be non-negative, got {self.grad_clip_norm}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def iog_config(**overrides) -> TrainConfig:
    """The gate-training recipe: Adam at 0.001 with 1/sqrt(epoch) decay,
    dropout 50% on the gate embedding, at most 5 epochs, gate width 300.
    Batch size and block length default to the base phase's values."""
    cfg = TrainConfig(
        phase="iog",
        max_epochs=5,
        optimizer="adam",
        initial_lr=0.001,
        lr_schedule="inverse_sqrt_epoch",
        dropout_rate=0.5,
        d_g=300,
    )
    return replace(cfg, **overrides).validate()


def lr_at_epoch(initial_lr: float, epoch: int) -> float:
    """Inverse-square-root decay: initial_lr / sqrt(epoch), epochs from 1."""
    if epoch < 1:
        raise ValueError(f"epoch numbering starts at 1, got {epoch}")
    return initial_lr / math.sqrt(epoch)


def scheduled_lr(config: TrainConfig, epoch: int) -> float:
    if epoch < 1:
        raise ValueError(f"epoch numbering starts at 1, got {epoch}")
    if config.lr_schedule == "inverse_sqrt_epoch":
        return lr_at_epoch(config.initial_lr, epoch)
    if config.lr_schedule == "constant":
        return config.initial_lr
    return config.initial_lr * config.lr_step_factor ** max(0, epoch - config.lr_step_start)


# ---------------------------------------------------------------------------
# Optimizers

@dataclass
class AdamState:
    """First/second-moment accumulators mirroring one parameter set, plus a
    single step counter shared by every array updated in one call."""

    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, named: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in named.items()},
            v={k: np.zeros_like(a) for k, a in named.items()},
        )


def adam_step(named: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, over every named array."""
    if set(named) != set(state.m):
        raise ValueError(
            f"parameter names {sorted(named)} do not match optimizer state {sorted(state.m)}"
        )
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for key, p in named.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key!r}")
        m = state.m[key]
        v = state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= (lr / bc1) * m / (np.sqrt(v / bc2) + state.eps)


def sgd_step(named: dict, grads: dict, lr: float) -> None:
    for key, p in named.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key!r}")
        p -= lr * g


def global_grad_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return math.sqrt(total)


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm.

    Returns the pre-clip norm; max_norm of 0 disables clipping.
    """
    norm = global_grad_norm(grads)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


# ---------------------------------------------------------------------------
# Training loops

def _epoch_record(epoch, lr, train_ppl, valid_ppl, wall):
    return {
        "epoch": epoch,
        "lr": lr,
        "train_ppl": train_ppl,
        "valid_ppl": valid_ppl,
        "wall_seconds": wall,
    }


def _safe_ppl(mean_nll: float) -> float:
    return float(math.exp(min(mean_nll, 700.0)))


def _update(config, named, grads, adam, lr, where):
    """Clip, then take one optimizer step, unless the pre-clip gradient
    norm is not finite: then raise before any parameter changes."""
    norm = clip_gradients(grads, config.grad_clip_norm)
    if not math.isfinite(norm):
        raise TrainingDiverged(f"gradient norm became {norm} at {where} (lr={lr})")
    if adam is not None:
        adam_step(named, grads, adam, lr)
    else:
        sgd_step(named, grads, lr)


def train_base(config: TrainConfig, train_stream, valid_stream, params: model.LMParams,
               verbose: bool = False, log=print):
    """Train the base model; returns (best params by validation perplexity,
    per-epoch metric records)."""
    config.validate()
    if config.phase != "base":
        raise ValueError(f"train_base expects phase 'base', got {config.phase!r}")
    from . import evaluate  # local import: evaluate depends on this module too

    batches = corpus.batchify(train_stream, config.batch_size, config.bptt_length)
    named = params.named_arrays()
    adam = AdamState.for_params(named) if config.optimizer == "adam" else None
    rng = np.random.default_rng(config.seed)
    metrics = []
    best_ppl = math.inf
    best_params = params.copy()

    for epoch in range(1, config.max_epochs + 1):
        start = time.perf_counter()
        lr = scheduled_lr(config, epoch)
        state = model.initial_state(params, config.batch_size)
        nll_sum = 0.0
        token_count = 0
        for block_index, (inputs, targets) in enumerate(batches):
            masks = model.sample_dropout_masks(
                params, config.dropout_rate, config.batch_size, rng
            )
            try:
                trace = []
                for t in range(inputs.shape[1]):
                    _, state, entry = model.forward_step(params, state, inputs[:, t], masks)
                    trace.append(entry)
                loss = model.sequence_loss(trace, targets)
            except kernels.NonFiniteError as exc:
                raise TrainingDiverged(
                    f"activations became non-finite at epoch {epoch}, block {block_index} "
                    f"(lr={lr}, optimizer={config.optimizer}): {exc}"
                ) from exc
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}, block {block_index} "
                    f"(lr={lr}, optimizer={config.optimizer})"
                )
            nll_sum += loss * targets.size
            token_count += targets.size
            grads, _ = model.backward_sequence(params, trace, targets)
            _update(config, named, grads, adam, lr, f"epoch {epoch}, block {block_index}")
        train_ppl = _safe_ppl(nll_sum / token_count)
        valid_ppl = evaluate.perplexity(params, valid_stream).perplexity
        if valid_ppl < best_ppl:
            best_ppl = valid_ppl
            best_params = params.copy()
        record = _epoch_record(epoch, lr, train_ppl, valid_ppl, time.perf_counter() - start)
        metrics.append(record)
        if verbose:
            log(
                f"[base] epoch {epoch}: lr={lr:.6g} train_ppl={train_ppl:.3f} "
                f"valid_ppl={valid_ppl:.3f}"
            )
    return best_params, metrics


def train_iog(config: TrainConfig, train_stream, valid_stream, base: model.LMParams,
              gate: gate_mod.IOGParams, verbose: bool = False, log=print):
    """Train the gate against a frozen base model.

    Only the gate's arrays are ever mutated; the base runs in evaluation
    mode (no dropout) and its storage is untouched, which the test suite
    pins down by checksumming. Dropout applies to the gate embedding only,
    during training only. Returns (best gate by validation perplexity,
    per-epoch metric records).
    """
    config.validate()
    if config.phase != "iog":
        raise ValueError(f"train_iog expects phase 'iog', got {config.phase!r}")
    if gate.vocab_size != base.vocab_size:
        raise ValueError(
            f"gate vocabulary {gate.vocab_size} != base vocabulary {base.vocab_size}"
        )
    from . import evaluate

    batches = corpus.batchify(train_stream, config.batch_size, config.bptt_length)
    named = gate.named_arrays()
    adam = AdamState.for_params(named) if config.optimizer == "adam" else None
    rng = np.random.default_rng(config.seed)
    keep = 1.0 - config.dropout_rate
    is_stateful = gate.variant == "lstm_gate"
    metrics = []
    best_ppl = math.inf
    best_gate = gate.copy()

    for epoch in range(1, config.max_epochs + 1):
        start = time.perf_counter()
        lr = scheduled_lr(config, epoch)
        state = model.initial_state(base, config.batch_size)
        gstate = gate_mod.initial_gate_state(gate, config.batch_size) if is_stateful else None
        nll_sum = 0.0
        token_count = 0
        for block_index, (inputs, targets) in enumerate(batches):
            if config.dropout_rate > 0.0:
                mask = (
                    rng.random((config.batch_size, gate.d_g)) >= config.dropout_rate
                ).astype(gate.dtype) / keep
            else:
                mask = None
            try:
                trace = []
                base_logits = []
                for t in range(inputs.shape[1]):
                    logits, state, _ = model.forward_step(base, state, inputs[:, t])
                    _, entry = gate_mod.compute_gate(
                        gate,
                        inputs[:, t],
                        base_hidden=state.h[-1] if gate.variant == "with_hidden" else None,
                        state=gstate,
                        mask=mask,
                    )
                    if is_stateful:
                        gstate = entry.state
                    trace.append(entry)
                    base_logits.append(logits)
                loss = gate_mod.gated_sequence_loss(trace, base_logits, targets)
            except kernels.NonFiniteError as exc:
                raise TrainingDiverged(
                    f"activations became non-finite at epoch {epoch}, block {block_index}: {exc}"
                ) from exc
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}, block {block_index}"
                )
            nll_sum += loss * targets.size
            token_count += targets.size
            grads = gate_mod.gate_backward(gate, trace, base_logits, targets)
            _update(config, named, grads, adam, lr, f"epoch {epoch}, block {block_index}")
        train_ppl = _safe_ppl(nll_sum / token_count)
        valid_ppl = evaluate.perplexity(base, valid_stream, gate=gate).perplexity
        if valid_ppl < best_ppl:
            best_ppl = valid_ppl
            best_gate = gate.copy()
        record = _epoch_record(epoch, lr, train_ppl, valid_ppl, time.perf_counter() - start)
        metrics.append(record)
        if verbose:
            log(
                f"[iog:{gate.variant}] epoch {epoch}: lr={lr:.6g} train_ppl={train_ppl:.3f} "
                f"valid_ppl={valid_ppl:.3f}"
            )
    return best_gate, metrics
