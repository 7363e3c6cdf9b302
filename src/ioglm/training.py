"""Two-phase optimization and the gate architecture comparison harness.

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
from dataclasses import dataclass, replace

import numpy as np

from . import corpus, evaluate, gate as gate_mod, kernels, model
from .recipe import CHOICES, TrainConfig, iog_config  # noqa: F401 - the recipe, re-exported

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or the pre-clip gradient norm becomes
    non-finite; the message names the epoch, the block and the lr."""


def scheduled_lr(config: TrainConfig, epoch: int) -> float:
    """The learning rate of `epoch`, counted from 1: initial_lr / sqrt(epoch)
    under inverse_sqrt_epoch, initial_lr under constant, and under step
    initial_lr times lr_step_factor per epoch past lr_step_start."""
    if epoch < 1:
        raise ValueError(f"epoch numbering starts at 1, got {epoch}")
    if config.lr_schedule == "inverse_sqrt_epoch":
        return config.initial_lr / math.sqrt(epoch)
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
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for key, p in named.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key!r}")
        m = state.m[key]
        v = state.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= (lr / bc1) * m / (np.sqrt(v / bc2) + ADAM_EPS)


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

def _non_finite(where, lr, config, exc) -> TrainingDiverged:
    return TrainingDiverged(f"activations became non-finite at {where} "
                            f"(lr={lr}, optimizer={config.optimizer}): {exc}")


def _train(config, train_stream, valid_stream, lm, gate, block_step, log):
    """The epoch loop of both phases: it trains `gate` against the frozen
    `lm`, or `lm` itself when `gate` is None. `block_step(inputs, targets,
    state, rng)` returns one block's (mean loss, gradients, state), where
    the state is a (base state, lstm_gate state) pair that starts
    every epoch at (zero, None). A non-finite activation, loss or pre-clip
    gradient norm raises `TrainingDiverged` naming the block, before any
    parameter changes, and a non-finite activation in validation raises it
    naming the epoch. Both streams are cut by `corpus.batchify`, validation
    into the one lane evaluation cuts, and range-checked by the door check
    (the block functions check each block again): a stream that is not 1-D
    or too short, or a token out of range anywhere in either, raises before
    the first block. An infinite validation perplexity is never the best, so
    when no epoch's is finite the initial parameters are returned.
    Returns (best copy by validation perplexity, per-epoch metric records)."""
    phase = "base" if gate is None else "iog"
    if config.phase != phase:
        raise ValueError(f"train_{phase} expects phase {phase!r}, got {config.phase!r}")
    model._check_lanes(lm.vocab_size, corpus.batchify(valid_stream, 1, 1).lanes)
    batches = corpus.batchify(train_stream, config.batch_size, config.bptt_length)
    model._check_lanes(lm.vocab_size, batches.lanes)
    trained = lm if gate is None else gate
    label = "base" if gate is None else f"iog:{gate.variant}"
    named = trained.named_arrays()
    adam = AdamState.for_params(named) if config.optimizer == "adam" else None
    rng = np.random.default_rng(config.seed)
    metrics = []
    best_ppl = math.inf
    best = trained.copy()

    for epoch in range(1, config.max_epochs + 1):
        start = time.perf_counter()
        lr = scheduled_lr(config, epoch)
        state = (model.initial_state(lm, config.batch_size), None)
        nll_sum = 0.0
        token_count = 0
        for block_index, (inputs, targets) in enumerate(batches):
            where = f"epoch {epoch}, block {block_index}"
            try:
                loss, grads, state = block_step(inputs, targets, state, rng)
            except kernels.NonFiniteError as exc:
                raise _non_finite(where, lr, config, exc) from exc
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became non-finite at {where} (lr={lr}, optimizer={config.optimizer})"
                )
            nll_sum += loss * targets.size
            token_count += targets.size
            norm = clip_gradients(grads, config.grad_clip_norm)
            if not math.isfinite(norm):
                raise TrainingDiverged(f"gradient norm became {norm} at {where} (lr={lr})")
            if adam is not None:
                adam_step(named, grads, adam, lr)
            else:
                sgd_step(named, grads, lr)
            del grads  # as large as the trained arrays; not kept into the next block
        train_ppl = evaluate._perplexity(nll_sum, token_count)
        try:
            valid_ppl = evaluate.perplexity(lm, valid_stream, gate=gate).perplexity
        except kernels.NonFiniteError as exc:
            raise _non_finite(f"epoch {epoch}, validation", lr, config, exc) from exc
        if valid_ppl < best_ppl:
            best_ppl = valid_ppl
            best = trained.copy()
        metrics.append({"epoch": epoch, "lr": lr, "train_ppl": train_ppl,
                        "valid_ppl": valid_ppl, "wall_seconds": time.perf_counter() - start})
        if log is not None:
            log(
                f"[{label}] epoch {epoch}: lr={lr:.6g} train_ppl={train_ppl:.3f} "
                f"valid_ppl={valid_ppl:.3f}"
            )
    return best, metrics


def train_base(config: TrainConfig, train_stream, valid_stream, params: model.LMParams,
               log=None):
    """Train the base model; returns (best params by validation perplexity,
    per-epoch metric records); `log`, if given, gets each epoch's line."""

    def block_step(inputs, targets, state, rng):
        masks = model.sample_dropout_masks(params, config.dropout_rate, config.batch_size, rng)
        _, base_state, trace = model.forward_step(params, state[0], inputs, masks)
        loss, grads = model.backward_sequence(params, trace, targets)
        return loss, grads, (base_state, None)

    return _train(config, train_stream, valid_stream, params, None, block_step, log)


def train_iog(config: TrainConfig, train_stream, valid_stream, base: model.LMParams,
              gate: gate_mod.IOGParams, log=None):
    """Train the gate against a frozen base model.

    Only the gate's arrays are ever mutated; the base runs in evaluation
    mode (no dropout) and its storage is untouched, which the test suite
    pins down by checksumming. Dropout applies to the gate embedding only,
    during training only; `log`, if given, gets each epoch's line. Returns
    (best gate by validation perplexity, per-epoch metric records). The
    config's `d_g` and `gate_variant` must describe the given gate.
    """
    gate_mod.check_base(gate, base)
    for field, value in (("d_g", gate.d_g), ("gate_variant", gate.variant)):
        if getattr(config, field) != value:
            raise ValueError(f"config.{field} is {getattr(config, field)!r}, "
                             f"but the gate has {value!r}")

    def block_step(inputs, targets, state, rng):
        mask = model.dropout_mask(config.dropout_rate, (config.batch_size, gate.d_g),
                                  gate.dtype, rng)
        logits, base_state, trace = model.forward_step(base, state[0], inputs)
        _, gtrace = gate_mod.compute_gate(gate, inputs, base_hidden=trace.top,
                                          state=state[1], mask=mask)
        loss, grads = gate_mod.gate_backward(gate, gtrace, logits, targets)
        return loss, grads, (base_state, gtrace.state)

    return _train(config, train_stream, valid_stream, base, gate, block_step, log)


def run_variant_comparison(base: model.LMParams, train_stream, valid_stream, test_stream,
                           variants, config, log=None):
    """Train each gate architecture with an identical config and seed against
    the same frozen base, each gate initialised from `config.seed`; report
    validation/test perplexity and the parameter-count delta relative to the
    input-conditioned gate. Every variant's recipe is built first, so a bad
    or empty list trains none. `log`, when given, receives each gate epoch's
    progress line."""
    configs = [replace(config, gate_variant=v) for v in variants]
    if not configs:
        raise ValueError("no gate variants to compare")
    reference = gate_mod.gate_param_count_for(base.vocab_size, config.d_g, "input_only",
                                              d_h=base.d_h)
    rows = []
    for cfg in configs:
        g = gate_mod.init_gate(
            base.vocab_size, d_g=cfg.d_g, variant=cfg.gate_variant, d_h=base.d_h, seed=cfg.seed
        )
        best, _ = train_iog(cfg, train_stream, valid_stream, base, g, log=log)
        rows.append(
            {
                "variant": cfg.gate_variant,
                "gate_params": best.param_count(),
                "delta_vs_input_only": best.param_count() - reference,
                "valid_ppl": evaluate.perplexity(base, valid_stream, gate=best).perplexity,
                "test_ppl": evaluate.perplexity(base, test_stream, gate=best).perplexity,
            }
        )
    return rows


def format_comparison_table(rows) -> str:
    """The harness's rows as a fixed-width table under one header line."""
    lines = [f"{'variant':<14}{'gate-params':>12}{'delta':>10}{'valid-ppl':>12}{'test-ppl':>12}"]
    lines += [f"{r['variant']:<14}{r['gate_params']:>12}{r['delta_vs_input_only']:>10}"
              f"{r['valid_ppl']:>12.3f}{r['test_ppl']:>12.3f}" for r in rows]
    return "\n".join(lines)
