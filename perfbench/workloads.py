"""The benchmark's workloads and the two-phase pipeline it times.

A workload fixes a corpus generator setting, the stream lengths, the base
model, the base-phase optimiser and the gate phases. `setup` turns a seed
into the inputs: generated text, a vocabulary, encoded streams cut to
fixed lengths (so every seed does the same amount of work), and the
initial parameters. `run_round` drives the public API as the CLI does:
`train_base` for two ensemble members, `train_iog` against the frozen first
member followed by `save_checkpoint` (as `train-iog` does), then three eval
stages that each start from `load_checkpoint` (as `eval` and
`ensemble-eval` do): plain, gated, and a 2-member ensemble sharing the gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from ioglm import (checkpoint, corpus, evaluate, gate as gate_mod, kernels, model, synthdata,
                   training)

ENSEMBLE_MEMBERS = 2

# Functions the piece clock (pieces.py) marks, by label: (module, function,
# index of the argument whose length joins the label, or None).
MARKS = {
    "clip": (training, "clip_gradients", None),     # once per training block
    "hidden": (model, "hidden_sequence", 1),        # once per eval chunk and member
    "step": (model, "forward_step", None),          # once per training timestep
    "lsm": (kernels, "log_softmax", None),          # per timestep of a training loss
    "ssm": (kernels, "softmax_stable", None),       # per timestep of a backward pass
    "gate": (gate_mod, "compute_gate", None),       # per timestep of a gate, per token
                                                    # of a stateful gate's eval
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict         # generate_class_bigram_corpus keyword arguments
    train_blocks: int    # full truncated-backprop blocks per lane per epoch
    valid_len: int       # tokens kept from the validation split
    test_len: int        # tokens kept from the held-out split
    base: dict           # init_params keyword arguments
    base_train: dict     # TrainConfig fields of the base phase
    gates: tuple         # ((variant, iog_config overrides), ...); the last one is evaluated
    learns_below: float | None  # share of V the base's validation ppl must beat; None
                                # where the tokens are random and there is nothing to learn
    gates_that_help: tuple = ()  # gate variants that must beat the base's validation ppl
    # MARKS labels that split the stages into pieces. Blocks and chunks of a
    # few milliseconds need no finer marks, which would only add wrapper
    # calls (about 0.7 us each) to the per-call overhead `desk` measures.
    marks: tuple = ("clip", "hidden")

    @property
    def batch_size(self) -> int:
        return self.base_train["batch_size"]

    @property
    def bptt_length(self) -> int:
        return self.base_train["bptt_length"]

    @property
    def train_len(self) -> int:
        return self.batch_size * (self.train_blocks * self.bptt_length + 1)


# Zipf 1.5 makes each word's successors peaked, so a trained base lands far
# below V and an input-conditioned gate still has word-specific detail to add.
DESK_CORPUS = {"n_classes": 8, "words_per_class": 50, "zipf_exponent": 1.5,
               "train_tokens": 13100, "valid_tokens": 2100, "test_tokens": 3100}

WORKLOADS = {
    "desk": Workload(
        name="desk",
        corpus=DESK_CORPUS,
        train_blocks=40,
        valid_len=2000,
        test_len=3000,
        base={"d_e": 32, "d_h": 32, "layers": 1, "cell_kind": "lstm"},
        base_train={"batch_size": 16, "bptt_length": 20, "max_epochs": 3,
                    "optimizer": "adam", "initial_lr": 0.03, "lr_schedule": "constant"},
        # Two epochs instead of the recipe's five, at ten times its
        # learning rate, so the gate learns within the steps a round has.
        gates=(("input_only", {"max_epochs": 2, "initial_lr": 0.01}),),
        learns_below=0.5,
        gates_that_help=("input_only",),
    ),
    "ptb": Workload(
        name="ptb",
        # Noise draws are uniform over the vocabulary, so at 0.999 the stream
        # is random tokens; two words per class keeps the generator's
        # per-word tables small at V=10 000.
        corpus={"n_classes": 4999, "words_per_class": 2, "noise": 0.999,
                "train_tokens": 2300, "valid_tokens": 300, "test_tokens": 2100},
        train_blocks=3,
        valid_len=210,
        test_len=2000,
        base={"d_e": 200, "d_h": 200, "layers": 1, "cell_kind": "lstm"},
        base_train={"batch_size": 20, "bptt_length": 35, "max_epochs": 1,
                    "optimizer": "sgd", "initial_lr": 1.0, "lr_schedule": "step"},
        gates=(("input_only", {"max_epochs": 1}),),
        learns_below=None,
        # A block here takes half a second or more; timestep marks split it.
        marks=("clip", "hidden", "step", "lsm", "ssm"),
    ),
    "variants": Workload(
        name="variants",
        corpus=DESK_CORPUS,
        train_blocks=20,
        valid_len=1000,
        test_len=3000,
        base={"d_e": 32, "d_h": 32, "layers": 2, "cell_kind": "elman", "tie_weights": True},
        # Plain SGD leaves this base near the corpus's unigram statistics
        # (about 0.87 V) in two epochs; rates that move it further diverge on
        # some seeds and spread the perplexity widely across seeds.
        base_train={"batch_size": 16, "bptt_length": 20, "max_epochs": 2,
                    "optimizer": "sgd", "initial_lr": 2.0, "lr_schedule": "step",
                    "lr_step_start": 1, "dropout_rate": 0.3},
        gates=(("with_hidden", {"max_epochs": 1, "initial_lr": 0.03}),
               ("lstm_gate", {"max_epochs": 1, "initial_lr": 0.03})),
        learns_below=0.93,
        # The stateful gate's blocks and eval chunks take tens of milliseconds;
        # timestep and per-token marks split them.
        marks=("clip", "hidden", "step", "lsm", "ssm", "gate"),
        # The stateful gate moves the perplexity by under 1% in one epoch.
        gates_that_help=("with_hidden",),
    ),
}


@dataclass
class Inputs:
    vocab: corpus.Vocabulary
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    base_inits: list
    gate_inits: list
    base_configs: list
    gate_configs: list


def _cut(stream: np.ndarray, length: int, split: str) -> np.ndarray:
    if stream.shape[0] < length:
        raise ValueError(f"{split} split has {stream.shape[0]} tokens, need {length}")
    return stream[:length]


def setup(w: Workload, seed: int) -> Inputs:
    """Generate, encode and initialise everything a round needs from `seed`."""
    data = synthdata.generate_class_bigram_corpus(seed=seed, **w.corpus)
    # The vocabulary is the generator's full word list, so V does not depend
    # on which words the sampled text happens to contain.
    vocab = corpus.build_vocab([" ".join(data.words)])
    train = _cut(corpus.encode(data.train_lines, vocab), w.train_len, "train")
    valid = _cut(corpus.encode(data.valid_lines, vocab), w.valid_len, "valid")
    test = _cut(corpus.encode(data.test_lines, vocab), w.test_len, "test")
    base_configs = [training.TrainConfig(seed=seed + k, **w.base_train).validate()
                    for k in range(ENSEMBLE_MEMBERS)]
    base_inits = [model.init_params(len(vocab), seed=seed + k, **w.base)
                  for k in range(ENSEMBLE_MEMBERS)]
    gate_configs = [training.iog_config(batch_size=w.batch_size, bptt_length=w.bptt_length,
                                        gate_variant=variant, seed=seed, **overrides)
                    for variant, overrides in w.gates]
    gate_inits = [gate_mod.init_gate(len(vocab), d_g=cfg.d_g, variant=cfg.gate_variant,
                                     d_h=base_inits[0].d_h, seed=cfg.seed)
                  for cfg in gate_configs]
    return Inputs(vocab, train, valid, test, base_inits, gate_inits, base_configs, gate_configs)


def digest(arrays: dict) -> str:
    """Checksum of named arrays: names, dtypes, shapes and raw bytes."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _checkpoint_arrays(lm, gate) -> dict:
    out = {f"lm.{k}": v for k, v in lm.named_arrays().items()}
    out.update({f"gate.{k}": v for k, v in gate.named_arrays().items()})
    return out


def _untraced(stage):
    return contextlib.nullcontext()


def _unmarked(stage, kind="", period=1):
    return contextlib.nullcontext()


def run_round(w: Workload, inputs: Inputs, workdir, stage=_untraced, segment=_unmarked) -> dict:
    """One pass of the pipeline. Returns wall times per stage, token counts,
    perplexities and the raw material of the output checks. `stage` opens
    a tracer span around each stage; `segment` marks each top-level call
    for a `pieces.PieceClock`."""
    clock = time.perf_counter
    wall = {}
    path = os.path.join(str(workdir), "gated.ckpt")

    with stage("base_phase"):
        start = clock()
        members, base_records = [], []
        for cfg, init in zip(inputs.base_configs, inputs.base_inits):
            with segment("base", "member"):
                best, records = training.train_base(cfg, inputs.train, inputs.valid,
                                                    init.copy())
            members.append(best)
            base_records.append(records)
        wall["base"] = clock() - start
    base = members[0]
    base_digest_before = digest(base.named_arrays())

    with stage("gate_phase"):
        start = clock()
        gates, gate_records = [], []
        for cfg, init in zip(inputs.gate_configs, inputs.gate_inits):
            with segment("gate", cfg.gate_variant):
                best, records = training.train_iog(cfg, inputs.train, inputs.valid, base,
                                                   init.copy())
            gates.append(best)
            gate_records.append(records)
        gate = gates[-1]
        with segment("gate", "save"):
            checkpoint.save_checkpoint(path, inputs.vocab, base, gate=gate,
                                       config=inputs.gate_configs[-1].to_dict())
        wall["gate"] = clock() - start
    base_digest_after = digest(base.named_arrays())
    checkpoint_bytes = os.path.getsize(path)

    with stage("eval_plain"), segment("eval_plain"):
        start = clock()
        ckpt = checkpoint.load_checkpoint(path)
        plain = evaluate.perplexity(ckpt.lm, inputs.test)
        wall["eval_plain"] = clock() - start
    round_trip = digest(_checkpoint_arrays(base, gate)) == digest(
        _checkpoint_arrays(ckpt.lm, ckpt.gate))

    with stage("eval_gated"), segment("eval_gated"):
        start = clock()
        ckpt = checkpoint.load_checkpoint(path)
        gated = evaluate.perplexity(ckpt.lm, inputs.test, gate=ckpt.gate)
        wall["eval_gated"] = clock() - start

    with stage("eval_ensemble"), segment("eval_ensemble", period=ENSEMBLE_MEMBERS):
        start = clock()
        ckpt = checkpoint.load_checkpoint(path)
        ensemble = evaluate.ensemble_perplexity([ckpt.lm] + members[1:], inputs.test,
                                                gate=ckpt.gate)
        wall["eval_ensemble"] = clock() - start
    os.unlink(path)

    return {
        "wall": wall,
        "tokens": {"base": _train_tokens(inputs.train, inputs.base_configs),
                   "gate": _train_tokens(inputs.train, inputs.gate_configs),
                   "eval": plain.tokens},
        "ppl": {
            "valid_base": min(r["valid_ppl"] for r in base_records[0]),
            "valid_gated": min(r["valid_ppl"] for r in gate_records[-1]),
            "member_valid": [min(r["valid_ppl"] for r in recs) for recs in base_records],
            "gate_valid": [min(r["valid_ppl"] for r in recs) for recs in gate_records],
            "test_plain": plain.perplexity,
            "test_gated": gated.perplexity,
            "test_ensemble": ensemble.perplexity,
            "test_ensemble_members": [m["perplexity"] for m in ensemble.members],
        },
        "ensemble_nll": ensemble.nll,
        "member_nll": [m["nll"] for m in ensemble.members],
        "base_digest": (base_digest_before, base_digest_after),
        "checkpoint_round_trip": round_trip,
        "checkpoint_bytes": checkpoint_bytes,
    }


def _train_tokens(stream, configs) -> int:
    """Tokens trained on by one call per config."""
    return sum(corpus.batchify(stream, c.batch_size, c.bptt_length).tokens_per_epoch
               * c.max_epochs for c in configs)


def inputs_digest(inputs: Inputs) -> str:
    """Checksum of everything `setup` produced."""
    arrays = {"train": inputs.train, "valid": inputs.valid, "test": inputs.test}
    for k, p in enumerate(inputs.base_inits):
        arrays.update({f"base{k}.{n}": a for n, a in p.named_arrays().items()})
    for k, g in enumerate(inputs.gate_inits):
        arrays.update({f"gate{k}.{n}": a for n, a in g.named_arrays().items()})
    return digest(arrays)


def round_checks(w: Workload, vocab_size: int, result: dict, reference: dict | None):
    """The output checks of one round, as (name, ok, detail) triples.
    `reference` is an earlier round of the same seed, or None."""
    ppl = result["ppl"]
    if w.learns_below is not None:
        limit = w.learns_below * vocab_size
        yield (f"base validation ppl below {w.learns_below} * V", ppl["valid_base"] < limit,
               [ppl["valid_base"], limit])
    for (variant, _), gated in zip(w.gates, ppl["gate_valid"]):
        if variant in w.gates_that_help:
            yield (f"{variant} gate lowers the base's validation ppl",
                   gated < ppl["valid_base"], [gated, ppl["valid_base"]])
    before, after = result["base_digest"]
    yield "base bit-identical across the gate phase", before == after, [before, after]
    yield "checkpoint reloads every array bit-exactly", result["checkpoint_round_trip"], None
    for name, value in result["ppl"].items():
        for v in value if isinstance(value, list) else [value]:
            yield f"perplexity {name} is finite", math.isfinite(v), v
    mean_member = sum(result["member_nll"]) / len(result["member_nll"])
    yield ("ensemble NLL <= mean member NLL", result["ensemble_nll"] <= mean_member,
           [result["ensemble_nll"], mean_member])
    if reference is not None:
        yield ("perplexities identical to the first round of this seed",
               result["ppl"] == reference["ppl"], [result["ppl"], reference["ppl"]])
