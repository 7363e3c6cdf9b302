import os
import re

import numpy as np
import pytest

from ioglm import corpus


def make_vocab(words):
    return corpus.Vocabulary(list(words) + ["<unk>", "<eos>"])


class TestBuildVocab:
    def test_frequency_then_reserved(self):
        vocab = corpus.build_vocab("a a b")
        assert len(vocab) == 4
        assert vocab.to_index("a") < vocab.to_index("b")
        assert vocab.words == ["a", "b", "<unk>", "<eos>"]

    def test_min_count_threshold(self):
        vocab = corpus.build_vocab("a a b", min_count=2)
        assert "b" not in vocab
        encoded = corpus.encode("a z", vocab)
        assert encoded.tolist() == [vocab.to_index("a"), vocab.unk_index, vocab.eos_index]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            corpus.build_vocab("")

    def test_tie_break_is_lexicographic(self):
        vocab = corpus.build_vocab("dog cat cat dog bee")
        assert vocab.words[:3] == ["cat", "dog", "bee"]

    def test_literal_unk_keeps_frequency_slot(self):
        vocab = corpus.build_vocab("<unk> <unk> <unk> a a b")
        assert vocab.words == ["<unk>", "a", "b", "<eos>"]

    def test_determinism(self):
        text = "the cat sat on the mat with the hat"
        assert corpus.build_vocab(text).words == corpus.build_vocab(text).words

    @pytest.mark.skipif(
        "IOGLM_PTB_DIR" not in os.environ,
        reason="set IOGLM_PTB_DIR to the pre-processed PTB directory to enable",
    )
    def test_ptb_vocabulary_size(self):
        path = os.path.join(os.environ["IOGLM_PTB_DIR"], "ptb.train.txt")
        vocab = corpus.build_vocab(corpus.load_text(path))
        assert len(vocab) == 10000


class TestEncodeDecode:
    def test_direct_mapping_with_eos(self):
        vocab = make_vocab(["a", "b"])
        assert corpus.encode("a b", vocab).tolist() == [0, 1, 3]

    def test_unknown_word_maps_to_unk(self):
        vocab = make_vocab(["a", "b"])
        assert corpus.encode("a z", vocab).tolist() == [0, 2, 3]

    def test_empty_line_is_just_eos(self):
        vocab = make_vocab(["a", "b"])
        assert corpus.encode([""], vocab).tolist() == [3]

    def test_every_line_ends_with_eos(self):
        vocab = make_vocab(["a", "b"])
        assert corpus.encode("a b\nb a", vocab).tolist() == [0, 1, 3, 1, 0, 3]

    def test_round_trip_in_vocabulary(self):
        rng = np.random.default_rng(0)
        words = [f"tok{i}" for i in range(20)]
        vocab = make_vocab(words)
        for _ in range(20):
            sample = [words[i] for i in rng.integers(0, 20, size=15)]
            stream = corpus.encode(" ".join(sample), vocab)
            assert corpus.decode(stream, vocab) == sample + ["<eos>"]


class TestVocabularyIO:
    def test_save_load_round_trip(self, tmp_path):
        vocab = corpus.build_vocab("x y y z z z")
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert corpus.Vocabulary.load(path) == vocab

    def test_reserved_required(self):
        with pytest.raises(ValueError):
            corpus.Vocabulary(["a", "b", "<eos>"])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            corpus.Vocabulary(["a", "a", "<unk>", "<eos>"])


class TestBatchify:
    def test_hand_reshaping(self):
        it = corpus.batchify(np.arange(10), batch_size=2, bptt_length=2)
        blocks = list(it)
        assert len(blocks) == 2
        assert blocks[0][0].tolist() == [[0, 1], [5, 6]]
        assert blocks[0][1].tolist() == [[1, 2], [6, 7]]
        assert blocks[1][0].tolist() == [[2, 3], [7, 8]]
        assert blocks[1][1].tolist() == [[3, 4], [8, 9]]

    def test_degenerate_single_lane(self):
        stream = np.arange(7)
        blocks = list(corpus.batchify(stream, batch_size=1, bptt_length=6))
        assert len(blocks) == 1
        assert blocks[0][0].tolist() == [stream[:-1].tolist()]
        assert blocks[0][1].tolist() == [stream[1:].tolist()]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            corpus.batchify(np.arange(4), batch_size=4, bptt_length=2)

    @pytest.mark.parametrize("shape", [(6, 1), (4, 3), ()])
    def test_stream_that_is_not_1d_rejected_naming_its_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            corpus.batchify(np.zeros(shape, dtype=np.int32), batch_size=2, bptt_length=2)

    def test_short_final_block(self):
        blocks = list(corpus.batchify(np.arange(12), batch_size=2, bptt_length=4))
        widths = [b[0].shape[1] for b in blocks]
        assert widths == [4, 1]

    def test_token_conservation_and_lane_disjointness(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(10, 200))
            b = int(rng.integers(1, 5))
            if n < 2 * b:
                continue
            bptt = int(rng.integers(1, 20))
            stream = rng.integers(0, 1000, size=n)
            it = corpus.batchify(stream, b, bptt)
            seen_inputs = [[] for _ in range(b)]
            total = 0
            for inputs, targets in it:
                assert inputs.shape == targets.shape
                total += inputs.size
                for lane in range(b):
                    seen_inputs[lane].extend(inputs[lane].tolist())
                    # target is the input shifted by one within the lane
                    assert targets[lane, :-1].tolist() == inputs[lane, 1:].tolist()
            lane_len = n // b
            assert total == b * (lane_len - 1)
            assert total == it.tokens_per_epoch
            assert total <= n
            # every lane is a contiguous slice of the stream; no overlap
            for lane in range(b):
                expected = stream[lane * lane_len:(lane + 1) * lane_len - 1]
                assert seen_inputs[lane] == expected.tolist()

    def test_reiterable_for_multiple_epochs(self):
        it = corpus.batchify(np.arange(20), batch_size=2, bptt_length=3)
        first = [(i.copy(), t.copy()) for i, t in it]
        second = list(it)
        assert len(first) == len(second) == len(it)
        for (i1, t1), (i2, t2) in zip(first, second):
            assert np.array_equal(i1, i2) and np.array_equal(t1, t2)


class TestFrequencies:
    def test_counts(self):
        vocab = make_vocab(["a", "b"])
        stream = corpus.encode("a a b\nb a", vocab)
        freq = corpus.count_frequencies(stream, len(vocab))
        assert freq.tolist() == [3, 2, 0, 2]


class TestLoadText:
    def test_non_utf8_corpus_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("caf\u00e9 au lait\n".encode("latin-1"))
        with pytest.raises(ValueError, match="latin1.txt.*UTF-8"):
            corpus.load_text(path)
