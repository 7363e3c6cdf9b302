"""Command-line interface.

Commands: build-vocab, train, train-iog, eval, ensemble-eval, analyze,
variant-compare. Settings resolve with the precedence flag > config file >
built-in default; config files are flat ``key = value`` text with ``#``
comments. ``--threads N`` caps the numeric-library thread pools, which is
why this module defers every heavy import until after argument parsing.

All commands are deterministic given identical inputs and seed, print
errors to stderr, and exit nonzero on failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _set_thread_limit(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def load_config_file(path) -> dict:
    """Flat ``key = value`` settings; blank lines and ``#`` comments ignored."""
    settings = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _convert(value: str, kind):
    if kind is bool:
        lowered = value.lower()
        if lowered not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {value!r}")
        return _BOOL_WORDS[lowered]
    return kind(value)


def resolve(args, config: dict, consumed: set, key: str, kind, default):
    """flag > config file > default; flags use None as the unset sentinel."""
    if key in config:
        consumed.add(key)  # a flag may override it, but the key is known
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return _convert(config[key], kind)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return default


def _finish_config(config: dict, consumed: set) -> None:
    unknown = set(config) - consumed
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _require_readable(*paths) -> None:
    for p in paths:
        if p is None:
            continue
        if not os.path.isfile(p):
            raise ValueError(f"cannot read input file: {p}")


def _require_writable_dir(*paths) -> None:
    # output locations are checked before any training starts
    for p in paths:
        if p is None:
            continue
        directory = os.path.dirname(os.path.abspath(p))
        if not os.path.isdir(directory):
            raise ValueError(f"output directory does not exist: {directory}")


# ---------------------------------------------------------------------------
# Command implementations

def _load_streams(vocab, paths):
    from . import corpus

    return {
        name: corpus.encode(corpus.load_text(path), vocab)
        for name, path in paths.items()
        if path is not None
    }


def _base_train_config(args, config, consumed):
    from . import training

    cfg = training.TrainConfig(
        phase="base",
        batch_size=resolve(args, config, consumed, "batch_size", int, 20),
        bptt_length=resolve(args, config, consumed, "bptt_length", int, 35),
        max_epochs=resolve(args, config, consumed, "max_epochs", int, 10),
        optimizer=resolve(args, config, consumed, "optimizer", str, "sgd"),
        initial_lr=resolve(args, config, consumed, "initial_lr", float, 1.0),
        lr_schedule=resolve(args, config, consumed, "lr_schedule", str, "step"),
        lr_step_factor=resolve(args, config, consumed, "lr_step_factor", float, 0.5),
        lr_step_start=resolve(args, config, consumed, "lr_step_start", int, 5),
        dropout_rate=resolve(args, config, consumed, "dropout_rate", float, 0.0),
        grad_clip_norm=resolve(args, config, consumed, "grad_clip_norm", float, 5.0),
        seed=resolve(args, config, consumed, "seed", int, 0),
    )
    return cfg.validate()


def _write_metrics(path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_build_vocab(args) -> int:
    from . import corpus

    config = load_config_file(args.config) if args.config else {}
    consumed: set = set()
    train = resolve(args, config, consumed, "train", str, None)
    output = resolve(args, config, consumed, "output", str, None)
    min_count = resolve(args, config, consumed, "min_count", int, 1)
    _finish_config(config, consumed)
    if train is None or output is None:
        raise ValueError("build-vocab needs --train and --output")
    _require_readable(train)
    text = corpus.load_text(train)
    vocab = corpus.build_vocab(text, min_count=min_count)
    vocab.save(output)
    tokens = corpus.encode(text, vocab)
    print(f"vocabulary size: {len(vocab)}")
    print(f"training tokens (with <eos>): {tokens.shape[0]}")
    return 0


def cmd_train(args) -> int:
    from . import checkpoint, corpus, model, training

    config = load_config_file(args.config) if args.config else {}
    consumed: set = set()
    paths = {
        name: resolve(args, config, consumed, name, str, None)
        for name in ("train", "valid", "vocab", "checkpoint_out", "metrics_out")
    }
    cell = resolve(args, config, consumed, "cell", str, "lstm")
    layers = resolve(args, config, consumed, "layers", int, 1)
    d_e = resolve(args, config, consumed, "d_e", int, 128)
    d_h = resolve(args, config, consumed, "d_h", int, 128)
    tie = resolve(args, config, consumed, "tie_weights", bool, False)
    cfg = _base_train_config(args, config, consumed)
    _finish_config(config, consumed)
    missing = [k for k in ("train", "valid", "vocab", "checkpoint_out") if paths[k] is None]
    if missing:
        raise ValueError(f"train needs --{', --'.join(m.replace('_', '-') for m in missing)}")
    _require_readable(paths["train"], paths["valid"], paths["vocab"])
    _require_writable_dir(paths["checkpoint_out"], paths["metrics_out"])

    vocab = corpus.Vocabulary.load(paths["vocab"])
    streams = _load_streams(vocab, {"train": paths["train"], "valid": paths["valid"]})
    params = model.init_params(
        len(vocab), d_e, d_h, layers=layers, cell_kind=cell, tie_weights=tie, seed=cfg.seed
    )
    best, metrics = training.train_base(
        cfg, streams["train"], streams["valid"], params, verbose=True,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    echo = {
        "command": "train",
        "cell": cell,
        "layers": layers,
        "d_e": d_e,
        "d_h": d_h,
        "tie_weights": tie,
        **cfg.to_dict(),
    }
    checkpoint.save_checkpoint(paths["checkpoint_out"], vocab, best, config=echo)
    if paths["metrics_out"]:
        _write_metrics(paths["metrics_out"], metrics)
    best_epoch = min(metrics, key=lambda r: r["valid_ppl"])
    print(
        f"best validation perplexity {best_epoch['valid_ppl']:.4f} "
        f"at epoch {best_epoch['epoch']} -> {paths['checkpoint_out']}"
    )
    return 0


def cmd_train_iog(args) -> int:
    from . import checkpoint, corpus, gate as gate_mod, training

    config = load_config_file(args.config) if args.config else {}
    consumed: set = set()
    paths = {
        name: resolve(args, config, consumed, name, str, None)
        for name in ("base_checkpoint", "train", "valid", "vocab", "checkpoint_out",
                     "metrics_out")
    }
    overrides = {}
    for key, kind, flag in (
        ("batch_size", int, "batch_size"),
        ("bptt_length", int, "bptt_length"),
        ("max_epochs", int, "max_epochs"),
        ("optimizer", str, "optimizer"),
        ("initial_lr", float, "initial_lr"),
        ("lr_schedule", str, "lr_schedule"),
        ("dropout_rate", float, "dropout_rate"),
        ("grad_clip_norm", float, "grad_clip_norm"),
        ("seed", int, "seed"),
        ("d_g", int, "d_g"),
        ("gate_variant", str, "gate_variant"),
    ):
        value = resolve(args, config, consumed, flag, kind, None)
        if value is not None:
            overrides[key] = value
    _finish_config(config, consumed)
    missing = [k for k in ("base_checkpoint", "train", "valid", "checkpoint_out")
               if paths[k] is None]
    if missing:
        raise ValueError(f"train-iog needs --{', --'.join(m.replace('_', '-') for m in missing)}")
    _require_readable(paths["base_checkpoint"], paths["train"], paths["valid"], paths["vocab"])
    _require_writable_dir(paths["checkpoint_out"], paths["metrics_out"])

    ckpt = checkpoint.load_checkpoint(paths["base_checkpoint"])
    vocab = ckpt.vocab
    if paths["vocab"] is not None:
        supplied = corpus.Vocabulary.load(paths["vocab"])
        if supplied != vocab:
            raise ValueError(
                f"vocabulary mismatch: checkpoint has {len(vocab)} words, "
                f"{paths['vocab']} has {len(supplied)}"
            )
    cfg = training.iog_config(**overrides)
    streams = _load_streams(vocab, {"train": paths["train"], "valid": paths["valid"]})
    gate = gate_mod.init_gate(
        len(vocab), d_g=cfg.d_g, variant=cfg.gate_variant, d_h=ckpt.lm.d_h, seed=cfg.seed
    )
    best, metrics = training.train_iog(
        cfg, streams["train"], streams["valid"], ckpt.lm, gate, verbose=True,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    echo = {"command": "train-iog", "base_checkpoint": paths["base_checkpoint"], **cfg.to_dict()}
    checkpoint.save_checkpoint(paths["checkpoint_out"], vocab, ckpt.lm, gate=best, config=echo)
    if paths["metrics_out"]:
        _write_metrics(paths["metrics_out"], metrics)
    best_epoch = min(metrics, key=lambda r: r["valid_ppl"])
    print(
        f"best validation perplexity {best_epoch['valid_ppl']:.4f} "
        f"at epoch {best_epoch['epoch']} -> {paths['checkpoint_out']}"
    )
    return 0


def cmd_eval(args) -> int:
    from . import checkpoint, corpus, evaluate

    _require_readable(args.checkpoint, args.data)
    ckpt = checkpoint.load_checkpoint(args.checkpoint)
    stream = corpus.encode(corpus.load_text(args.data), ckpt.vocab)
    report = evaluate.perplexity(
        ckpt.lm, stream, gate=ckpt.gate, identity_gate=args.force_identity_gate,
        chunk=args.chunk,
    )
    print(report.to_json())
    return 0


def cmd_ensemble_eval(args) -> int:
    from . import checkpoint, corpus, evaluate

    _require_readable(*args.checkpoints)
    _require_readable(args.data, args.gate_from)
    ckpts = [checkpoint.load_checkpoint(p) for p in args.checkpoints]
    vocab = ckpts[0].vocab
    for path, ckpt in zip(args.checkpoints[1:], ckpts[1:]):
        if ckpt.vocab != vocab:
            raise ValueError(f"vocabulary mismatch between {args.checkpoints[0]} and {path}")
    gate = None
    if args.gate_from is not None:
        gate_ckpt = checkpoint.load_checkpoint(args.gate_from)
        if gate_ckpt.gate is None:
            raise ValueError(f"{args.gate_from} contains no gate parameters")
        if gate_ckpt.vocab != vocab:
            raise ValueError(f"gate checkpoint {args.gate_from} has a different vocabulary")
        gate = gate_ckpt.gate
    stream = corpus.encode(corpus.load_text(args.data), vocab)
    report = evaluate.ensemble_perplexity(
        [c.lm for c in ckpts], stream, gate=gate,
        identity_gate=args.force_identity_gate, chunk=args.chunk,
    )
    for member, path in zip(report.members, args.checkpoints):
        member["path"] = path
    print(report.to_json())
    return 0


def cmd_analyze(args) -> int:
    from . import checkpoint, corpus, gate as gate_mod

    _require_readable(args.checkpoint)
    ckpt = checkpoint.load_checkpoint(args.checkpoint)
    if ckpt.gate is None:
        raise ValueError(f"{args.checkpoint} contains no gate parameters")
    if ckpt.gate.variant != "input_only":
        raise ValueError(
            "gate-weight inspection needs an input_only gate; "
            f"this checkpoint holds {ckpt.gate.variant!r}"
        )
    frequencies = None
    if args.min_freq > 0:
        if args.freq_corpus is None:
            raise ValueError("--min-freq > 0 requires --freq-corpus for the counts")
        _require_readable(args.freq_corpus)
        stream = corpus.encode(corpus.load_text(args.freq_corpus), ckpt.vocab)
        frequencies = corpus.count_frequencies(stream, len(ckpt.vocab))
    for word in args.words:
        if word not in ckpt.vocab:
            print(f"{word}\t<oov>")
            continue
        pairs = gate_mod.top_weighted_words(
            ckpt.gate, word, ckpt.vocab, k=args.k, min_freq=args.min_freq,
            frequencies=frequencies,
        )
        print(gate_mod.format_weighted_row(word, pairs))
    return 0


def cmd_variant_compare(args) -> int:
    from . import checkpoint, corpus, evaluate, training

    config = load_config_file(args.config) if args.config else {}
    consumed: set = set()
    paths = {
        name: resolve(args, config, consumed, name, str, None)
        for name in ("base_checkpoint", "train", "valid", "test")
    }
    overrides = {}
    for key, kind in (
        ("batch_size", int), ("bptt_length", int), ("max_epochs", int),
        ("initial_lr", float), ("dropout_rate", float), ("seed", int), ("d_g", int),
    ):
        value = resolve(args, config, consumed, key, kind, None)
        if value is not None:
            overrides[key] = value
    _finish_config(config, consumed)
    missing = [k for k in paths if paths[k] is None]
    if missing:
        raise ValueError(
            f"variant-compare needs --{', --'.join(m.replace('_', '-') for m in missing)}"
        )
    _require_readable(*paths.values())
    ckpt = checkpoint.load_checkpoint(paths["base_checkpoint"])
    streams = _load_streams(
        ckpt.vocab, {"train": paths["train"], "valid": paths["valid"], "test": paths["test"]}
    )
    cfg = training.iog_config(**overrides)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    rows = evaluate.run_variant_comparison(
        ckpt.lm, streams["train"], streams["valid"], streams["test"], variants, cfg,
        gate_seed=cfg.seed, verbose=True,
    )
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print(evaluate.format_comparison_table(rows))
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_common(p):
    # SUPPRESS keeps an unset subcommand flag from clobbering the value the
    # root parser already put in the namespace, so the global flags work in
    # either position.
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="flat key = value settings file")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="random seed")
    p.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                   help="thread-pool cap for numeric libraries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioglm",
        description="Word-level RNN language modeling with an input-conditioned output gate.",
    )
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--threads", type=int, help="thread-pool cap for numeric libraries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build and write a vocabulary file")
    _add_common(p)
    p.add_argument("--train", help="training corpus")
    p.add_argument("--output", help="vocabulary file to write")
    p.add_argument("--min-count", dest="min_count", type=int)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train the base language model")
    _add_common(p)
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--vocab")
    p.add_argument("--checkpoint-out", dest="checkpoint_out")
    p.add_argument("--metrics-out", dest="metrics_out")
    p.add_argument("--cell", choices=("lstm", "elman"))
    p.add_argument("--layers", type=int)
    p.add_argument("--d-e", dest="d_e", type=int)
    p.add_argument("--d-h", dest="d_h", type=int)
    p.add_argument("--tie-weights", dest="tie_weights", action=argparse.BooleanOptionalAction)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--bptt-length", dest="bptt_length", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--optimizer", choices=("sgd", "adam"))
    p.add_argument("--initial-lr", dest="initial_lr", type=float)
    p.add_argument("--lr-schedule", dest="lr_schedule",
                   choices=("inverse_sqrt_epoch", "constant", "step"))
    p.add_argument("--lr-step-factor", dest="lr_step_factor", type=float)
    p.add_argument("--lr-step-start", dest="lr_step_start", type=int)
    p.add_argument("--dropout-rate", dest="dropout_rate", type=float)
    p.add_argument("--grad-clip-norm", dest="grad_clip_norm", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-iog", help="train the gate against a frozen base checkpoint")
    _add_common(p)
    p.add_argument("--base-checkpoint", dest="base_checkpoint")
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--vocab", help="optional vocabulary file, must match the checkpoint")
    p.add_argument("--checkpoint-out", dest="checkpoint_out")
    p.add_argument("--metrics-out", dest="metrics_out")
    p.add_argument("--d-g", dest="d_g", type=int)
    p.add_argument("--gate-variant", dest="gate_variant",
                   choices=("input_only", "with_hidden", "lstm_gate"))
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--bptt-length", dest="bptt_length", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--optimizer", choices=("sgd", "adam"))
    p.add_argument("--initial-lr", dest="initial_lr", type=float)
    p.add_argument("--lr-schedule", dest="lr_schedule",
                   choices=("inverse_sqrt_epoch", "constant", "step"))
    p.add_argument("--dropout-rate", dest="dropout_rate", type=float)
    p.add_argument("--grad-clip-norm", dest="grad_clip_norm", type=float)
    p.set_defaults(func=cmd_train_iog)

    p = sub.add_parser("eval", help="perplexity of a checkpoint over a corpus")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--chunk", type=int, default=128)
    p.add_argument("--force-identity-gate", dest="force_identity_gate", action="store_true",
                   help="replace the gate with all-ones (sanity baseline)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ensemble-eval", help="perplexity of an averaged ensemble")
    _add_common(p)
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--gate-from", dest="gate_from",
                   help="checkpoint providing the single shared gate")
    p.add_argument("--data", required=True)
    p.add_argument("--chunk", type=int, default=128)
    p.add_argument("--force-identity-gate", dest="force_identity_gate", action="store_true")
    p.set_defaults(func=cmd_ensemble_eval)

    p = sub.add_parser("analyze", help="top gate-weighted words per input word")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--words", nargs="+", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--min-freq", dest="min_freq", type=int, default=100)
    p.add_argument("--freq-corpus", dest="freq_corpus",
                   help="corpus supplying the candidate-word frequency filter")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("variant-compare", help="train and compare the gate architectures")
    _add_common(p)
    p.add_argument("--base-checkpoint", dest="base_checkpoint")
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--test")
    p.add_argument("--variants", default="input_only,with_hidden,lstm_gate")
    p.add_argument("--d-g", dest="d_g", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--bptt-length", dest="bptt_length", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--initial-lr", dest="initial_lr", type=float)
    p.add_argument("--dropout-rate", dest="dropout_rate", type=float)
    p.add_argument("--json", action="store_true", help="emit the table as JSON")
    p.set_defaults(func=cmd_variant_compare)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Thread limits must land in the environment before numpy loads. A
    # value that is not an integer is left to the parser, which reports it.
    for i, arg in enumerate(argv):
        value = argv[i + 1] if arg == "--threads" and i + 1 < len(argv) else None
        if arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
        if value is not None and value.strip().isdigit():
            _set_thread_limit(int(value))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
