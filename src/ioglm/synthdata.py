"""Synthetic corpus with planted word-class bigram structure.

The vocabulary is partitioned into hidden classes. Every word is assigned a
successor class: with probability 1 - noise the next word is drawn from
that class (following a word-specific Zipf preference over the class
members), otherwise uniformly from the whole vocabulary. Sentences restart
the chain from a uniformly random word, and line lengths vary within a
range, so end-of-sentence prediction stays genuinely uncertain.

This gives a desk-scale stand-in for the phenomenon the gate targets: the
current word alone carries strong information about the next word, more
than an undersized recurrent model manages to exploit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class SyntheticCorpus:
    words: list                  # word strings, index = word id
    word_class: np.ndarray       # class of each word
    successor_class: np.ndarray  # planted successor class of each word
    train_lines: list
    valid_lines: list
    test_lines: list

    def class_members(self, cls: int) -> list:
        return [self.words[i] for i in np.flatnonzero(self.word_class == cls)]


def generate_class_bigram_corpus(seed: int, n_classes: int = 8, words_per_class: int = 50,
                                 train_tokens: int = 30000, valid_tokens: int = 3000,
                                 test_tokens: int = 3000, noise: float = 0.15,
                                 zipf_exponent: float = 1.0, min_line: int = 15,
                                 max_line: int = 25) -> SyntheticCorpus:
    """The corpus that `seed` and the other arguments fix, bit for bit. An
    argument outside its range raises `ValueError` naming it."""
    for name, value, low in (("n_classes", n_classes, 1), ("words_per_class", words_per_class, 1),
                             ("train_tokens", train_tokens, 0), ("valid_tokens", valid_tokens, 0),
                             ("test_tokens", test_tokens, 0), ("min_line", min_line, 1)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if max_line < min_line:
        raise ValueError(f"max_line must be >= min_line={min_line}, got {max_line}")
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise must be in [0, 1), got {noise}")
    if not math.isfinite(zipf_exponent):
        raise ValueError(f"zipf_exponent must be finite, got {zipf_exponent}")
    rng = np.random.default_rng(seed)
    n_words = n_classes * words_per_class
    words = [f"w{i:03d}" for i in range(n_words)]
    word_class = np.arange(n_words) // words_per_class
    successor_class = rng.integers(0, n_classes, size=n_words)

    # Word-specific preference over the successor class members: a Zipf
    # profile applied through a per-word permutation, so the fine-grained
    # next-word distribution depends on the exact input word, not only on
    # its class. One `permuted` call draws the rows that a `permutation`
    # call per word would.
    ranks = np.arange(1, words_per_class + 1, dtype=np.float64) ** (-zipf_exponent)
    ranks /= ranks.sum()
    perms = rng.permuted(np.tile(np.arange(words_per_class), (n_words, 1)), axis=1)
    preference = np.empty((n_words, words_per_class), dtype=np.float64)
    np.put_along_axis(preference, perms, ranks, axis=1)

    # `rng.choice(words_per_class, p=preference[w])` rebuilds this normalised
    # cumulative table on every call and right-bisects it at `rng.random()`;
    # building it once draws the same members from the same stream.
    cdf = preference.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    first = (successor_class * words_per_class).tolist()

    def make_lines(target_tokens: int) -> list:
        lines = []
        emitted = 0
        while emitted < target_tokens:
            length = int(rng.integers(min_line, max_line + 1))
            w = int(rng.integers(0, n_words))
            line = [words[w]]
            for _ in range(length - 1):
                if rng.random() < noise:
                    w = int(rng.integers(0, n_words))
                else:
                    w = first[w] + bisect.bisect_right(cdf[w], rng.random())
                line.append(words[w])
            lines.append(" ".join(line))
            emitted += length
        return lines

    return SyntheticCorpus(
        words=words,
        word_class=word_class,
        successor_class=successor_class,
        train_lines=make_lines(train_tokens),
        valid_lines=make_lines(valid_tokens),
        test_lines=make_lines(test_tokens),
    )


def write_corpus(corpus: SyntheticCorpus, directory, prefix: str = "synth") -> dict:
    """Write train/valid/test splits as one-sentence-per-line text files.

    Returns a mapping of split name to file path.
    """
    import os

    paths = {}
    for split in ("train", "valid", "test"):
        path = os.path.join(str(directory), f"{prefix}.{split}.txt")
        with open(path, "w", encoding="utf-8") as f:
            for line in getattr(corpus, f"{split}_lines"):
                f.write(line + "\n")
        paths[split] = path
    return paths
