"""Command-line interface.

Commands: build-vocab, train, train-iog, eval, ensemble-eval, analyze,
variant-compare. Every command resolves its settings with the precedence
flag > config file > built-in default; config files are flat ``key = value``
text with ``#`` comments, keyed by the command's flag names with
underscores. The training flags, ``--seed`` among them, are one per
``training.TrainConfig`` field, with the choices of ``training.CHOICES``;
an unset one keeps the phase's default from ``TrainConfig`` or
``training.iog_config``. Each command's parser entry declares its
required flags, the flags naming input files or outputs, and a training
command's recipe; ``resolve`` checks them all before the command runs.
``--threads N`` caps the numeric-library thread pools, so ``main`` applies
it before building the parser, which imports ``training`` and with it numpy.

All commands are deterministic given identical inputs and seed, print
errors to stderr, and exit nonzero on failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys


def _thread_count(text) -> int:
    """The `--threads` value: a positive integer, or a usage error."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _cap_threads(argv) -> None:
    """Put the `--threads` cap into the numeric libraries' environment, as
    it must land before numpy loads. It comes from a parse of that flag
    alone, which takes the spellings the full parser takes, abbreviations
    too; a value that is not a positive integer is left to the full parser."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--threads", type=_thread_count)
    with contextlib.suppress(argparse.ArgumentError):
        if n := parser.parse_known_args(argv)[0].threads:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS"):
                os.environ[var] = str(n)


def load_config_file(path) -> dict:
    """Flat ``key = value`` settings, each key set once; blank lines and
    ``#`` comments ignored."""
    from . import corpus

    settings, first = {}, {}
    for lineno, raw in enumerate(corpus.load_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if first.setdefault(key, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: key {key!r} is set again, "
                             f"first on line {first[key]}")
        settings[key] = value
    return settings


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _convert(value: str, kind, choices):
    if kind is bool:
        lowered = value.lower()
        if lowered not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {value!r}")
        return _BOOL_WORDS[lowered]
    converted = value.split() if kind is list else kind(value)
    if choices and converted not in choices:
        raise ValueError(f"expected one of {choices}, got {value!r}")
    return converted


def _paths(args, keys) -> list:
    """The paths the set flags among `keys` hold, each word of a list flag."""
    values = [getattr(args, key) for key in keys]
    return [p for v in values if v is not None for p in (v if isinstance(v, list) else [v])]


def resolve(args) -> None:
    """Fill every flag left unset (None) from the ``--config`` file, else with
    the flag's default: flag > config file > default. Then check what the
    command declares, before any work, in this order: a training command's
    config (`args.train_config`, its recipe with every field a flag or the
    file set), its required flags, its input files, its output directories."""
    config = load_config_file(args.config) if args.config else {}
    unknown = set(config) - set(args.flags)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, (kind, default, choices) in args.flags.items():
        if getattr(args, key) is not None:
            continue
        value = default
        if key in config:
            try:
                value = _convert(config[key], kind, choices)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        setattr(args, key, value)
    if args.recipe is not None:
        recipe = args.recipe()
        set_values = {f.name: getattr(args, f.name) for f in dataclasses.fields(recipe)
                      if getattr(args, f.name, None) is not None}
        args.train_config = dataclasses.replace(recipe, **set_values)
    missing = [key for key in args.required if getattr(args, key) is None]
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise ValueError(f"{args.command} needs {flags}")
    for path in _paths(args, args.reads):
        if not os.path.isfile(path):
            raise ValueError(f"cannot read input file: {path}")
    for path in _paths(args, args.writes):
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise ValueError(f"output directory does not exist: {directory}")


# ---------------------------------------------------------------------------
# Command implementations

def _load_streams(vocab, args, *names):
    from . import corpus

    return {name: corpus.encode(corpus.load_text(getattr(args, name)), vocab) for name in names}


def _log(msg) -> None:
    print(msg, file=sys.stderr)


def _report_training(args, metrics) -> None:
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as f:
            for record in metrics:
                f.write(json.dumps(record, sort_keys=True) + "\n")
    best_epoch = min(metrics, key=lambda r: r["valid_ppl"])
    print(
        f"best validation perplexity {best_epoch['valid_ppl']:.4f} "
        f"at epoch {best_epoch['epoch']} -> {args.checkpoint_out}"
    )


def cmd_build_vocab(args) -> int:
    from . import corpus

    text = corpus.load_text(args.train)
    vocab = corpus.build_vocab(text, min_count=args.min_count)
    vocab.save(args.output)
    tokens = corpus.encode(text, vocab)
    print(f"vocabulary size: {len(vocab)}")
    print(f"training tokens (with <eos>): {tokens.shape[0]}")
    return 0


def cmd_train(args) -> int:
    from . import checkpoint, corpus, model, training

    cfg = args.train_config
    vocab = corpus.Vocabulary.load(args.vocab)
    streams = _load_streams(vocab, args, "train", "valid")
    params = model.init_params(
        len(vocab), args.d_e, args.d_h, layers=args.layers, cell_kind=args.cell,
        tie_weights=args.tie_weights, seed=cfg.seed,
    )
    best, metrics = training.train_base(
        cfg, streams["train"], streams["valid"], params, log=_log,
    )
    shape = {k: getattr(args, k) for k in ("cell", "layers", "d_e", "d_h", "tie_weights")}
    echo = {"command": "train", **shape, **cfg.to_dict()}
    checkpoint.save_checkpoint(args.checkpoint_out, vocab, best, config=echo)
    _report_training(args, metrics)
    return 0


def cmd_train_iog(args) -> int:
    from . import checkpoint, corpus, gate as gate_mod, training

    cfg = args.train_config
    ckpt = checkpoint.load_checkpoint(args.base_checkpoint)
    vocab = ckpt.vocab
    if args.vocab is not None:
        supplied = corpus.Vocabulary.load(args.vocab)
        if supplied != vocab:
            raise ValueError(
                f"vocabulary mismatch: checkpoint has {len(vocab)} words, "
                f"{args.vocab} has {len(supplied)}"
            )
    streams = _load_streams(vocab, args, "train", "valid")
    gate = gate_mod.init_gate(
        len(vocab), d_g=cfg.d_g, variant=cfg.gate_variant, d_h=ckpt.lm.d_h, seed=cfg.seed
    )
    best, metrics = training.train_iog(
        cfg, streams["train"], streams["valid"], ckpt.lm, gate, log=_log,
    )
    echo = {"command": "train-iog", "base_checkpoint": args.base_checkpoint, **cfg.to_dict()}
    checkpoint.save_checkpoint(args.checkpoint_out, vocab, ckpt.lm, gate=best, config=echo)
    _report_training(args, metrics)
    return 0


def cmd_eval(args) -> int:
    from . import checkpoint, corpus, evaluate

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
    from . import checkpoint, training

    ckpt = checkpoint.load_checkpoint(args.base_checkpoint)
    streams = _load_streams(ckpt.vocab, args, "train", "valid", "test")
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    rows = training.run_variant_comparison(
        ckpt.lm, streams["train"], streams["valid"], streams["test"], variants,
        args.train_config, log=_log,
    )
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print(training.format_comparison_table(rows))
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_common(p, default):
    """The global flags, taken before or after the subcommand. A subcommand
    declares them with the default SUPPRESS, which keeps an unset one from
    clobbering the value the root parser already put in the namespace."""
    p.add_argument("--config", default=default, help="flat key = value settings file")
    p.add_argument("--threads", type=_thread_count, default=default,
                   help="thread-pool cap for numeric libraries")


def _command(sub, name, func, help, recipe=None):
    """A subcommand running `func`; a training command trains from the
    config that `recipe` (a TrainConfig factory) returns."""
    p = sub.add_parser(name, help=help)
    # `flags` maps each config key of the command to (type, default, choices);
    # `required`, `reads` and `writes` list the flags `resolve` checks
    p.set_defaults(func=func, recipe=recipe, flags={}, required=[], reads=[], writes=[])
    _add_common(p, argparse.SUPPRESS)
    return p


def _flag(p, dest, kind=str, default=None, choices=None, required=False, reads=False,
          writes=False, **kw):
    """Add ``--dest`` with None as its unset value; `resolve` fills it later
    from the config file or `default`. `kind` is str, int, float, bool (a
    switch) or list (one or more words). `resolve` then fails a `required`
    flag left unset, a path of a `reads` flag that is not a file and a
    `writes` flag's path whose directory does not exist."""
    if kind is bool:
        kw.setdefault("action", "store_true")
    elif kind is list:
        kw["nargs"] = "+"
    else:
        kw["type"] = kind
    if choices:
        kw["choices"] = choices
    p.add_argument("--" + dest.replace("_", "-"), dest=dest, default=None, **kw)
    p.get_default("flags")[dest] = (kind, default, choices)
    for declared, key in ((required, "required"), (reads, "reads"), (writes, "writes")):
        if declared:
            p.get_default(key).append(dest)


def _train_flags(p, *excluded):
    """One flag per TrainConfig field but `phase` and `excluded`, typed by
    the field's default, with the field's allowed values as its choices."""
    from . import training

    for f in dataclasses.fields(training.TrainConfig):
        if f.name not in ("phase", *excluded):
            _flag(p, f.name, type(f.default), choices=training.CHOICES.get(f.name))


def build_parser() -> argparse.ArgumentParser:
    from . import gate, training

    parser = argparse.ArgumentParser(
        prog="ioglm",
        description="Word-level RNN language modeling with an input-conditioned output gate.",
    )
    _add_common(parser, None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "build-vocab", cmd_build_vocab, "build and write a vocabulary file")
    _flag(p, "train", required=True, reads=True, help="training corpus")
    _flag(p, "output", required=True, writes=True, help="vocabulary file to write")
    _flag(p, "min_count", int, 1)

    p = _command(sub, "train", cmd_train, "train the base language model",
                 recipe=training.TrainConfig)
    for name in ("train", "valid", "vocab"):
        _flag(p, name, required=True, reads=True)
    _flag(p, "checkpoint_out", required=True, writes=True)
    _flag(p, "metrics_out", writes=True)
    _flag(p, "cell", str, "lstm", choices=("lstm", "elman"))
    _flag(p, "layers", int, 1)
    _flag(p, "d_e", int, 128)
    _flag(p, "d_h", int, 128)
    _flag(p, "tie_weights", bool, False, action=argparse.BooleanOptionalAction)
    _train_flags(p, "d_g", "gate_variant")

    p = _command(sub, "train-iog", cmd_train_iog,
                 "train the gate against a frozen base checkpoint", recipe=training.iog_config)
    for name in ("base_checkpoint", "train", "valid"):
        _flag(p, name, required=True, reads=True)
    _flag(p, "vocab", reads=True, help="optional vocabulary file, must match the checkpoint")
    _flag(p, "checkpoint_out", required=True, writes=True)
    _flag(p, "metrics_out", writes=True)
    _train_flags(p)

    p = _command(sub, "eval", cmd_eval, "perplexity of a checkpoint over a corpus")
    _flag(p, "checkpoint", required=True, reads=True)
    _flag(p, "data", required=True, reads=True)
    _flag(p, "chunk", int, 128)
    _flag(p, "force_identity_gate", bool, False,
          help="replace the gate with all-ones (sanity baseline)")

    p = _command(sub, "ensemble-eval", cmd_ensemble_eval, "perplexity of an averaged ensemble")
    _flag(p, "checkpoints", list, required=True, reads=True)
    _flag(p, "data", required=True, reads=True)
    _flag(p, "gate_from", reads=True, help="checkpoint providing the single shared gate")
    _flag(p, "chunk", int, 128)
    _flag(p, "force_identity_gate", bool, False)

    p = _command(sub, "analyze", cmd_analyze, "top gate-weighted words per input word")
    _flag(p, "checkpoint", required=True, reads=True)
    _flag(p, "words", list, required=True)
    _flag(p, "k", int, 5)
    _flag(p, "min_freq", int, 100)
    _flag(p, "freq_corpus", reads=True,
          help="corpus supplying the candidate-word frequency filter")

    p = _command(sub, "variant-compare", cmd_variant_compare,
                 "train and compare the gate architectures", recipe=training.iog_config)
    for name in ("base_checkpoint", "train", "valid", "test"):
        _flag(p, name, required=True, reads=True)
    _flag(p, "variants", str, ",".join(gate.VARIANTS))
    _flag(p, "json", bool, False, help="emit the table as JSON")
    _train_flags(p, "gate_variant")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _cap_threads(argv)
    args = build_parser().parse_args(argv)
    try:
        resolve(args)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
