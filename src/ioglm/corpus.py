"""Corpus loading, vocabulary construction, and contiguous-lane batching.

Follows the pre-processed-corpus convention: UTF-8 plain text, tokens
separated by ASCII spaces, one sentence per line, rare words already mapped
to ``<unk>`` in the data, and ``<eos>`` appended to every line at encode
time. Perplexity computed downstream therefore includes end-of-sentence
prediction, and the hidden state is carried across sentence boundaries.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

UNK = "<unk>"
EOS = "<eos>"
RESERVED = (UNK, EOS)


class Vocabulary:
    """Bidirectional word<->index map with dense indices in [0, V).

    ``<unk>`` and ``<eos>`` are always present. Immutable after
    construction, so instances can be shared freely across threads.
    """

    def __init__(self, words):
        words = list(words)
        index = {}
        for i, w in enumerate(words):
            if w in index:
                raise ValueError(f"duplicate word in vocabulary: {w!r}")
            index[w] = i
        for reserved in RESERVED:
            if reserved not in index:
                raise ValueError(f"vocabulary is missing reserved token {reserved!r}")
        self._words = words
        self._index = index
        self.unk_index = index[UNK]
        self.eos_index = index[EOS]

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._words == other._words

    @property
    def words(self) -> list[str]:
        return list(self._words)

    def to_index(self, word: str) -> int:
        """Index of `word`, falling back to the <unk> index."""
        return self._index.get(word, self.unk_index)

    def to_word(self, index: int) -> str:
        return self._words[index]

    def save(self, path) -> None:
        """One word per line; the line number is the index."""
        with open(path, "w", encoding="utf-8") as f:
            for w in self._words:
                f.write(w + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls(load_text(path).splitlines())


def _iter_lines(text_or_lines):
    if isinstance(text_or_lines, str):
        return text_or_lines.splitlines()
    return list(text_or_lines)


def build_vocab(text_or_lines, min_count: int = 1) -> Vocabulary:
    """Build a vocabulary from whitespace-tokenized text.

    Non-reserved words with frequency >= min_count are assigned indices in
    descending frequency order, ties broken lexicographically, so two builds
    from identical text always agree. The reserved tokens are appended at
    the end unless they already occur in the corpus.
    """
    counts = Counter()
    for line in _iter_lines(text_or_lines):
        counts.update(line.split())
    if not counts:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    # Reserved tokens appearing in the corpus (pre-processed data carries
    # <unk> literally) keep their frequency-ordered slot; missing ones are
    # appended at the end.
    kept = [
        w
        for w, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if c >= min_count or w in RESERVED
    ]
    for reserved in RESERVED:
        if reserved not in counts:
            kept.append(reserved)
    return Vocabulary(kept)


def encode(text_or_lines, vocab: Vocabulary) -> np.ndarray:
    """Encode text into a token stream of vocabulary indices (int32).

    Unknown words map to the <unk> index. Every input line is terminated by
    the <eos> index (an empty line encodes to just <eos>).
    """
    ids: list[int] = []
    for line in _iter_lines(text_or_lines):
        ids.extend(vocab.to_index(w) for w in line.split())
        ids.append(vocab.eos_index)
    return np.asarray(ids, dtype=np.int32)


def decode(stream, vocab: Vocabulary) -> list[str]:
    return [vocab.to_word(int(i)) for i in np.asarray(stream)]


def load_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def count_frequencies(stream, size: int) -> np.ndarray:
    """Occurrence count per vocabulary index over an encoded stream."""
    stream = np.asarray(stream)
    return np.bincount(stream, minlength=size)


class BatchIterator:
    """Reshapes a token stream into `batch_size` contiguous lanes and yields
    (input, target) index blocks of up to `bptt_length` timesteps.

    Each lane is a contiguous slice of the stream, targets are the inputs
    shifted by one position within the lane, and the final block of an epoch
    may be shorter than `bptt_length`; `lanes` holds the (batch_size,
    lane_length) array the blocks are cut from. Iterating again restarts
    from the beginning; a single consumer at a time.
    """

    def __init__(self, stream, batch_size: int, bptt_length: int):
        stream = np.asarray(stream)
        if batch_size < 1 or bptt_length < 1:
            raise ValueError("batch_size and bptt_length must be positive")
        if stream.shape[0] < 2 * batch_size:
            raise ValueError(
                f"stream of length {stream.shape[0]} is too short for "
                f"batch_size {batch_size} (need at least {2 * batch_size} tokens)"
            )
        lane_len = stream.shape[0] // batch_size
        self.batch_size = batch_size
        self.bptt_length = bptt_length
        self.lane_length = lane_len
        self.lanes = stream[: batch_size * lane_len].reshape(batch_size, lane_len)

    @property
    def tokens_per_epoch(self) -> int:
        return self.batch_size * (self.lane_length - 1)

    def __len__(self) -> int:
        steps = self.lane_length - 1
        return (steps + self.bptt_length - 1) // self.bptt_length

    def __iter__(self):
        last = self.lane_length - 1
        for start in range(0, last, self.bptt_length):
            width = min(self.bptt_length, last - start)
            inputs = self.lanes[:, start:start + width]
            targets = self.lanes[:, start + 1:start + 1 + width]
            yield inputs, targets


def batchify(stream, batch_size: int, bptt_length: int) -> BatchIterator:
    return BatchIterator(stream, batch_size, bptt_length)
