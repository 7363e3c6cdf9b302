import bisect
import hashlib

import numpy as np
import pytest

from ioglm import synthdata

DESK = {"n_classes": 8, "words_per_class": 50, "zipf_exponent": 1.5,
        "train_tokens": 13100, "valid_tokens": 2100, "test_tokens": 3100}
CONFIGS = {
    "desk": DESK,
    "ptb": {"n_classes": 4999, "words_per_class": 2, "noise": 0.999,
            "train_tokens": 2300, "valid_tokens": 300, "test_tokens": 2100},
    "defaults": {},
    "no-noise-zipf-0.5": {"noise": 0.0, "zipf_exponent": 0.5},
    "3x7-noise-0.5": {"n_classes": 3, "words_per_class": 7, "noise": 0.5},
    "4x20-acceptance": {"n_classes": 4, "words_per_class": 20, "train_tokens": 2400,
                        "valid_tokens": 400, "test_tokens": 200},
    "40k-acceptance": {**DESK, "train_tokens": 40000, "valid_tokens": 3000,
                       "test_tokens": 3000, "noise": 0.15},
    "1x1": {"n_classes": 1, "words_per_class": 1},
}

# BLAKE2b-64 of the train, valid and test lines (joined by newlines) and of
# `successor_class` as little-endian int64, from the per-word generator
# that drew each successor with `Generator.choice` (numpy 2.4.6).
GOLDEN = {
    ("desk", 1): "1c0e430de7458d58 11cf3c69acd087aa 799c7dcc59b4e143 4abafedd0a0cd727",
    ("ptb", 1): "d8b9043ba3b365bb 973e1275e2e9ddde b06f760bbc73d01b 9827a9208eb6d32a",
    ("defaults", 1): "634bc3936dab7ec4 084e9f94332868d7 6c9a0a5f3c0bf5da 4abafedd0a0cd727",
    ("no-noise-zipf-0.5", 1):
        "c7b1f013bc42b231 82cab1e67513c247 57e37d4089cab886 4abafedd0a0cd727",
    ("3x7-noise-0.5", 1): "11bd8afae3fd6adb 870f601bca309fc1 0ddbc782212a90d9 cef2887a2c3948c3",
    ("4x20-acceptance", 1):
        "deee93ef00561b86 28ffea4c972b30a6 159636c658ef3824 f47e88c0c021a3a2",
    ("40k-acceptance", 1):
        "4acfa395bbf7c630 9b5c81826563730e 110855e21606187f 4abafedd0a0cd727",
    ("1x1", 1): "23e7e4d83f30bd52 3ec787137ec8cbbe 11c991d24e000870 ca08ea5bca49cc18",
    ("desk", 42): "957d51f9c428f146 8f4ea28167b59556 c21468d740f981b1 c80c31d5a17a63ef",
    ("ptb", 42): "3dd36c3c72f6bbf8 8fb71d35157ecf3a dfd5cea1374fb208 8e018aafdc51223e",
    ("defaults", 42): "8d49f4f80bfc94a3 10d9bf7a8d616191 54a5ca56d7262364 c80c31d5a17a63ef",
    ("no-noise-zipf-0.5", 42):
        "bc3c07ba1d99a018 2abb40d265709361 1811fe0e73804afd c80c31d5a17a63ef",
    ("3x7-noise-0.5", 42): "68b62793e0dcf2c5 81e7c1a68b34942f c0e3be1b28f45b5f 514976f0ed954dbb",
    ("4x20-acceptance", 42):
        "c9dc2a99851b1258 ceb8592863ef0266 26fd7728d7145575 06d07a4d57e61a53",
    ("40k-acceptance", 42):
        "bdab474557488424 47262ba9c36210b6 3f2f9addcd0adcc6 c80c31d5a17a63ef",
    ("1x1", 42): "324c613e1672dd0e a336d01f6e3a023f a7c86cce9bbf1111 ca08ea5bca49cc18",
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


@pytest.mark.parametrize("name,seed", list(GOLDEN), ids=[f"{n}-{s}" for n, s in GOLDEN])
def test_seed_and_arguments_fix_the_corpus(name, seed):
    c = synthdata.generate_class_bigram_corpus(seed=seed, **CONFIGS[name])
    got = [_digest("\n".join(lines).encode()) for lines in
           (c.train_lines, c.valid_lines, c.test_lines)]
    got.append(_digest(c.successor_class.astype("<i8").tobytes()))
    assert " ".join(got) == GOLDEN[name, seed]


@pytest.mark.parametrize("k", [1, 2, 7, 50])
def test_numpy_draws_the_generator_relies_on(k):
    """The generator replaces two numpy calls by equivalents that draw the
    same numbers from the same stream; a numpy that breaks either fails here."""
    rows = 37
    zipf = np.arange(1, k + 1, dtype=np.float64) ** -1.5
    p = zipf / zipf.sum()
    one, other = np.random.default_rng(5), np.random.default_rng(5)

    # `choice(k, p=row)` right-bisects the normalised cumsum at `random()`.
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for _ in range(200):
        assert one.choice(k, p=p) == bisect.bisect_right(cdf, other.random())

    # `permuted(tile, axis=1)` draws the rows a `permutation` per row would,
    # and leaves the generator in the same state.
    loop = np.stack([one.permutation(k) for _ in range(rows)])
    np.testing.assert_array_equal(other.permuted(np.tile(np.arange(k), (rows, 1)), axis=1), loop)
    assert one.bit_generator.state == other.bit_generator.state


@pytest.mark.parametrize("kwargs,pattern", [
    ({"n_classes": 0}, r"n_classes must be >= 1, got 0"),
    ({"words_per_class": -2}, r"words_per_class must be >= 1, got -2"),
    ({"train_tokens": -1}, r"train_tokens must be >= 0, got -1"),
    ({"valid_tokens": -1}, r"valid_tokens must be >= 0, got -1"),
    ({"test_tokens": -5}, r"test_tokens must be >= 0, got -5"),
    ({"min_line": 0, "max_line": 0}, r"min_line must be >= 1, got 0"),
    ({"min_line": -3}, r"min_line must be >= 1, got -3"),
    ({"max_line": 0}, r"max_line must be >= min_line=15, got 0"),
    ({"min_line": 5, "max_line": 4}, r"max_line must be >= min_line=5, got 4"),
    ({"noise": 1.0}, r"noise must be in \[0, 1\), got 1.0"),
    ({"noise": -0.1}, r"noise must be in \[0, 1\), got -0.1"),
    ({"zipf_exponent": float("nan")}, r"zipf_exponent must be finite, got nan"),
    ({"zipf_exponent": float("inf")}, r"zipf_exponent must be finite, got inf"),
], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None)
def test_bad_argument_fails_early_and_names_the_field(kwargs, pattern):
    with pytest.raises(ValueError, match=pattern):
        synthdata.generate_class_bigram_corpus(seed=1, **kwargs)


def test_zero_tokens_and_equal_line_bounds():
    c = synthdata.generate_class_bigram_corpus(seed=3, n_classes=2, words_per_class=3,
                                               train_tokens=40, valid_tokens=0, test_tokens=0,
                                               min_line=4, max_line=4)
    assert c.valid_lines == [] and c.test_lines == []
    assert [len(line.split()) for line in c.train_lines] == [4] * 10
