"""Perplexity evaluation and ensembling with one shared gate.

Evaluation conventions: the first token of a stream is conditioned on and
never scored, so a stream of T tokens scores N = T - 1 predictions; the
hidden state runs continuously through the whole stream (no truncation at
evaluation time); negative log-likelihood is summed in float64; no dropout.

Scoring walks the (1, chunk) blocks of the one lane `corpus.batchify`
cuts, every token range-checked by the door check before the first chunk
(the block functions check each chunk again), and runs the block path that
training runs: only the recurrence (`model.hidden_sequence`, and the
lstm_gate cell inside `gate.compute_gate`) steps one timestep at a time. A
chunk is one lane, so its hoisted input projections are the single-row
products of (1, 1) blocks, on the same contiguous transposed weights, and
chunked hidden states are bit-identical to stepwise ones. The output layer
and the gate's vocabulary projection are one matrix product per chunk,
which changes nothing but rounding at the last bit, so chunked and
stepwise evaluation agree to far better than the 1e-4 relative tolerance
promised in the contract. Per member and chunk, `kernels.log_softmax`
forms only the targets' float64 log-probabilities, all that perplexity
needs, bit for bit the entries a full-row log-softmax would hold there. A
mean NLL too large for `exp` reports an infinite perplexity.

An ensemble averages the member models' probability distributions. With a
gate, a single shared gate vector per timestep multiplies every member's
logits before that member's softmax: the gate is one object, advanced once
per timestep, identical across members by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import gate as gate_mod
from . import corpus, kernels, model


@dataclass
class EvalReport:
    tokens: int
    nll: float
    perplexity: float
    members: list | None = None

    def to_dict(self) -> dict:
        out = {"tokens": self.tokens, "nll": self.nll, "perplexity": self.perplexity}
        if self.members is not None:
            out["members"] = self.members
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _perplexity(nll, tokens) -> float:
    """exp of the mean NLL, or inf where that overflows a float."""
    try:
        return math.exp(nll / tokens)
    except OverflowError:
        return math.inf


def _evaluate(members, stream, gate=None, identity_gate=False, chunk=128, gate_probe=None):
    if not members:
        raise ValueError("no models to evaluate")
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    vocab_size = members[0].vocab_size
    chunks = corpus.batchify(stream, 1, chunk)
    model._check_lanes(vocab_size, chunks.lanes)
    for m in members:
        if m.vocab_size != vocab_size:
            raise ValueError(
                f"ensemble members disagree on vocabulary size: {m.vocab_size} != {vocab_size}"
            )
    if gate is not None:
        gate_mod.check_base(gate, members[0])
    if identity_gate:
        gate = None  # an all-ones gate leaves every logit as it is

    n = chunks.tokens_per_epoch
    m_count = len(members)
    states = [model.initial_state(m, 1) for m in members]
    gstate = None  # the lstm_gate state: compute_gate starts it at zero
    member_nll = np.zeros(m_count, dtype=np.float64)
    ensemble_nll = 0.0
    log_m = math.log(m_count)

    for index, (block, targets) in enumerate(chunks):
        idx, tgt = block[0], targets[0]
        width = idx.shape[0]

        tops = []
        for k, member in enumerate(members):
            top, states[k] = model.hidden_sequence(member, idx, states[k])
            tops.append(top)

        if gate is None:
            g = None
        else:
            # with_hidden reads the first member's hidden state, so one gate
            # stream is shared by every member.
            g, entry = gate_mod.compute_gate(gate, block, base_hidden=tops[0][:, None],
                                             state=gstate)
            g, gstate = g[:, 0], entry.state

        target_lp = np.empty((m_count, width), dtype=np.float64)
        for k, member in enumerate(members):
            logits = tops[k] @ member.out_weight.T + member.out_bias
            if g is not None:
                if gate_probe is not None:
                    for t in range(width):
                        gate_probe(index * chunk + t, k, g[t])
                logits = g * logits
            target_lp[k] = kernels.log_softmax(logits, tgt)
        member_nll -= target_lp.sum(axis=1)
        # log of the mean member probability, stable in log space; for a
        # single member this reduces exactly to its own log-probability.
        mix = np.logaddexp.reduce(target_lp, axis=0) - log_m
        ensemble_nll -= float(mix.sum())

    member_reports = [
        {
            "index": k,
            "tokens": int(n),
            "nll": float(member_nll[k]),
            "perplexity": _perplexity(member_nll[k], n),
        }
        for k in range(m_count)
    ]
    return EvalReport(
        tokens=int(n),
        nll=float(ensemble_nll),
        perplexity=_perplexity(ensemble_nll, n),
        members=member_reports,
    )


def perplexity(params: model.LMParams, stream, gate=None, identity_gate=False,
               chunk=128) -> EvalReport:
    """Perplexity of one model (optionally gated) over a token stream."""
    report = _evaluate([params], stream, gate=gate, identity_gate=identity_gate, chunk=chunk)
    report.members = None
    return report


def ensemble_perplexity(members, stream, gate=None, identity_gate=False, chunk=128,
                        gate_probe=None) -> EvalReport:
    """Perplexity of an ensemble that averages member distributions.

    With a gate, the same gate vector multiplies every member's logits at
    each timestep before that member's softmax. `gate_probe(t, member, g_t)`
    is invoked for every (timestep, member) pair when supplied, unless
    `identity_gate` replaces the gate, so callers can verify the sharing.
    The report carries each member's standalone (gated) perplexity.
    """
    return _evaluate(
        members, stream, gate=gate, identity_gate=identity_gate, chunk=chunk,
        gate_probe=gate_probe,
    )
