import hashlib

import numpy as np
import pytest

import helpers
from ioglm import corpus, gate, kernels, model


class TestInitGate:
    def test_starts_near_identity(self):
        g = gate.init_gate(40, d_g=16, seed=0)
        vec, _ = gate.compute_gate(g, [[3]])
        assert np.all(np.abs(vec - 0.982) < 0.01)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            gate.init_gate(10, variant="bigger_gate")

    def test_with_hidden_needs_width(self):
        with pytest.raises(ValueError):
            gate.init_gate(10, variant="with_hidden")

    def test_param_count_formula_matches_arrays(self):
        for variant, d_h in (("input_only", None), ("with_hidden", 24), ("lstm_gate", None)):
            g = gate.init_gate(37, d_g=12, variant=variant, d_h=d_h, seed=1)
            assert g.param_count() == gate.gate_param_count_for(37, 12, variant, d_h=d_h)
        for cell_kind, gates in (("lstm", 4), ("elman", 1)):
            for tie, layers in ((False, 1), (False, 2), (True, 1), (True, 2)):
                d_e, d_h = (12, 12) if tie else (9, 12)
                p = model.init_params(37, d_e, d_h, layers=layers, cell_kind=cell_kind,
                                      tie_weights=tie, seed=1)
                cells = sum(gates * d_h * (d_in + d_h + 1) for d_in in [d_e] + [d_h] * (layers - 1))
                assert p.param_count() == 37 * d_e + cells + (0 if tie else 37 * d_h) + 37

    def test_published_scale_parameter_count(self):
        # 10k vocabulary at gate width 300 adds ~6M parameters
        count = gate.gate_param_count_for(10000, 300, "input_only")
        assert abs(count - 6_010_000) < 20_000

    def test_variant_deltas_by_shape_arithmetic(self):
        v, d_g, d_h = 402, 48, 32
        base = gate.gate_param_count_for(v, d_g, "input_only")
        assert gate.gate_param_count_for(v, d_g, "with_hidden", d_h=d_h) - base == v * d_h
        assert gate.gate_param_count_for(v, d_g, "lstm_gate") - base == 8 * d_g * d_g + 4 * d_g


class TestComputeGate:
    def test_zero_weights_give_half(self):
        g = gate.init_gate(12, d_g=5, seed=0, weight_scale=0.0, bias_init=0.0)
        vec, _ = gate.compute_gate(g, [[4]])
        assert np.array_equal(vec[0], np.full((1, 12), 0.5, dtype=np.float32))

    def test_bias_four_saturates_toward_one(self):
        g = gate.init_gate(12, d_g=5, seed=0, weight_scale=0.0, bias_init=4.0)
        vec, _ = gate.compute_gate(g, [[0]])
        assert np.max(np.abs(vec - 0.9820138)) < 1e-6

    def test_hand_computation(self):
        g = gate.init_gate(3, d_g=2, seed=0, dtype=np.float64)
        g.embedding[...] = [[0.5, -1.0], [0.25, 0.75], [2.0, 0.0]]
        g.weight[...] = [[1.0, 0.5], [-0.5, 0.25], [0.0, 2.0]]
        g.bias[...] = [0.1, -0.2, 0.3]
        vec, _ = gate.compute_gate(g, [[1]])
        e = np.array([0.25, 0.75])
        expected = 1.0 / (1.0 + np.exp(-(g.weight @ e + g.bias)))
        assert np.max(np.abs(vec[0, 0] - expected)) < 1e-6

    def test_with_hidden_requires_hidden(self):
        g = gate.init_gate(10, d_g=4, variant="with_hidden", d_h=6)
        with pytest.raises(ValueError, match="hidden"):
            gate.compute_gate(g, [[1]])

    @pytest.mark.parametrize("inputs", helpers.NOT_BLOCKS, ids=helpers.NOT_BLOCK_IDS)
    def test_only_a_non_empty_block_is_accepted(self, inputs):
        g = gate.init_gate(12, d_g=5)
        with pytest.raises(ValueError, match=r"non-empty \(B, T\) block, got shape"):
            gate.compute_gate(g, inputs)

    def test_with_hidden_rejects_a_one_timestep_hidden_state(self):
        g = gate.init_gate(10, d_g=4, variant="with_hidden", d_h=6)
        with pytest.raises(ValueError, match=r"of shape \(1, 2, 6\), got \(2, 6\)"):
            gate.compute_gate(g, [[1], [2]], base_hidden=np.zeros((2, 6)))

    def test_entries_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        for variant, d_h in (("input_only", None), ("with_hidden", 8), ("lstm_gate", None)):
            g = helpers.gate64(20, 6, variant=variant, d_h=d_h, seed=3)
            hidden = rng.standard_normal((1, 1, 8)) if variant == "with_hidden" else None
            vec, _ = gate.compute_gate(g, [[int(rng.integers(20))]], base_hidden=hidden)
            assert np.all(vec > 0.0) and np.all(vec < 1.0)

    def test_input_only_is_history_free_lstm_gate_is_not(self):
        io = gate.init_gate(15, d_g=6, seed=4)
        a, _ = gate.compute_gate(io, [[7]])
        b, _ = gate.compute_gate(io, [[7]])
        assert np.array_equal(a, b)

        lg = gate.init_gate(15, d_g=6, variant="lstm_gate", seed=4, weight_scale=0.5)
        state = gate.initial_gate_state(lg, 1)
        first, entry = gate.compute_gate(lg, [[7]], state=state)
        second, _ = gate.compute_gate(lg, [[7]], state=entry.state)
        assert not np.array_equal(first, second)


    @pytest.mark.parametrize("k", [1, 5])
    def test_nan_lstm_gate_input_at_a_later_step_raises_and_leaves_the_state(self, k):
        # word 9, whose gate embedding row is NaN, first comes in at step k
        g = gate.init_gate(10, d_g=6, variant="lstm_gate", seed=6, weight_scale=0.5)
        g.embedding[9] = np.nan
        rng = np.random.default_rng(7)
        inputs = rng.integers(0, 9, size=(3, 6))
        inputs[0, k] = 9
        h, c = (rng.uniform(-0.5, 0.5, (3, 6)).astype(np.float32) for _ in range(2))
        state = model.HiddenState([h], [c])
        incoming = [a.copy() for a in state.h + state.c]
        with pytest.raises(kernels.NonFiniteError, match="recurrent pre-activation"):
            gate.compute_gate(g, inputs, state=state)
        for a, b in zip(state.h + state.c, incoming):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ["input_only", "with_hidden", "lstm_gate"])
    def test_block_equals_chained_single_steps(self, variant):
        rng = np.random.default_rng(40)
        g = gate.init_gate(17, d_g=5, variant=variant, d_h=4, seed=41, weight_scale=0.5,
                           bias_init=0.0)
        inputs = rng.integers(0, 17, size=(3, 6))
        hidden = rng.standard_normal((6, 3, 4)).astype(np.float32)
        mask = (rng.random((3, 5)) >= 0.5).astype(np.float32) * 2.0
        block, trace = gate.compute_gate(g, inputs, base_hidden=hidden, mask=mask)
        assert block.shape == (6, 3, 17)
        state = None
        for t in range(6):
            step, entry = gate.compute_gate(g, inputs[:, t:t + 1], base_hidden=hidden[t:t + 1],
                                            state=state, mask=mask)
            state = entry.state
            np.testing.assert_allclose(block[t], step[0], rtol=1e-6, atol=1e-7)
        if variant == "lstm_gate":
            for a, b in zip(trace.state.h + trace.state.c, state.h + state.c):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch,steps", [(1, 128), (16, 20)])
    def test_production_width_lstm_gate_block_equals_chained_steps(self, batch, steps):
        # D_g=300, the benchmark's lstm_gate: an eval chunk and a training block
        rng = np.random.default_rng(42)
        g = gate.init_gate(50, d_g=300, variant="lstm_gate", seed=43, weight_scale=0.1)
        inputs = rng.integers(0, 50, size=(batch, steps))
        _, trace = gate.compute_gate(g, inputs)
        state = None
        for t in range(steps):
            _, entry = gate.compute_gate(g, inputs[:, t:t + 1], state=state)
            state = entry.state
            assert np.array_equal(trace.cell.h[t + 1], entry.cell.h[1]), t
        for a, b in zip(trace.state.h + trace.state.c, state.h + state.c):
            assert np.array_equal(a, b)


class TestApplyGate:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-8, 8, size=25)
        out = helpers.apply_gate(np.ones(25), s)
        assert np.max(np.abs(out - helpers.softmax(s))) < 1e-12

    def test_uniform_gate_is_temperature_only(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = rng.uniform(-5, 5, size=12)
            c = float(rng.uniform(0.05, 2.0))
            out = helpers.apply_gate(np.full(12, c), s)
            assert np.max(np.abs(out - helpers.softmax(c * s))) < 1e-12
            assert np.argmax(out) == np.argmax(s)

    def test_direct_oracle(self):
        out = helpers.apply_gate(np.array([0.9, 0.5, 0.1]), np.array([1.0, 2.0, 3.0]))
        e = np.exp(np.array([0.9, 1.0, 0.3], dtype=np.float64))
        assert np.max(np.abs(out - e / e.sum())) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            helpers.apply_gate(np.ones(3), np.ones(4))


class TestGateBackward:
    @pytest.mark.parametrize("variant,d_h", [
        ("input_only", None), ("with_hidden", 6), ("lstm_gate", None),
    ])
    def test_matches_fd_oracle(self, variant, d_h):
        rng = np.random.default_rng(7)
        base = helpers.params64(10, 6, 6, cell_kind="lstm", seed=8)
        g = helpers.gate64(10, 6, variant=variant, d_h=base.d_h if d_h else None, seed=9)
        inputs, targets = helpers.random_inputs(rng, 10, 2, 3)
        err = helpers.gate_gradient_error(base, g, inputs, targets, rng=rng)
        assert err < 1e-3

    def test_matches_fd_with_dropout_mask(self):
        rng = np.random.default_rng(10)
        base = helpers.params64(9, 5, 5, cell_kind="elman", seed=11)
        g = helpers.gate64(9, 4, seed=12)
        mask = (rng.random((2, 4)) >= 0.5).astype(np.float64) * 2.0
        inputs, targets = helpers.random_inputs(rng, 9, 2, 3)
        err = helpers.gate_gradient_error(base, g, inputs, targets, mask=mask, rng=rng)
        assert err < 1e-3

    def test_saturated_gate_has_vanishing_weight_gradients(self):
        rng = np.random.default_rng(13)
        base = helpers.params64(8, 5, 5, seed=14)
        for bias in (30.0, -30.0):
            g = helpers.gate64(8, 4, seed=15, bias_init=bias)
            inputs, targets = helpers.random_inputs(rng, 8, 1, 2)
            trace, logits = helpers.run_gated_block(base, g, inputs)
            _, grads = gate.gate_backward(g, trace, logits, targets)
            assert np.max(np.abs(grads["weight"])) < 1e-9

    def test_gate_gradients_ignore_base_given_fixed_logits(self):
        rng = np.random.default_rng(16)
        base = helpers.params64(9, 5, 5, seed=17)
        g = helpers.gate64(9, 4, seed=18)
        inputs, targets = helpers.random_inputs(rng, 9, 2, 2)
        trace, logits = helpers.run_gated_block(base, g, inputs)
        _, grads_a = gate.gate_backward(g, trace, logits, targets)
        base.embedding += 0.5  # perturb the base; the fixed logits still rule
        _, grads_b = gate.gate_backward(g, trace, logits, targets)
        for key in grads_a:
            assert np.array_equal(grads_a[key], grads_b[key])

    def test_no_base_arrays_in_gradient(self):
        base = helpers.params64(9, 5, 5, seed=19)
        g = helpers.gate64(9, 4, seed=20)
        inputs = np.array([[1, 2]])
        trace, logits = helpers.run_gated_block(base, g, inputs)
        _, grads = gate.gate_backward(g, trace, logits, inputs)
        assert set(grads) == set(g.named_arrays())

    def test_alignment_errors(self):
        base = helpers.params64(9, 5, 5, seed=21)
        g = helpers.gate64(9, 4, seed=22)
        inputs = np.array([[1, 2]])
        trace, logits = helpers.run_gated_block(base, g, inputs)
        with pytest.raises(ValueError):
            gate.gate_backward(g, trace, logits[:1], inputs)
        with pytest.raises(ValueError):
            gate.gate_backward(g, trace, logits, np.array([[1, 2, 3]]))
        with pytest.raises(ValueError):  # an empty block never becomes a trace
            gate.compute_gate(g, np.zeros((1, 0), dtype=int))
        # (T, 1, V) logits would broadcast over two lanes, and (T, B, 1)
        # logits would read as a vocabulary of one
        inputs = np.array([[1, 2], [3, 4]])
        trace, logits = helpers.run_gated_block(base, g, inputs)
        for wrong, shape in ((logits[:, :1], r"\(2, 1, 9\)"), (logits[..., :1], r"\(2, 2, 1\)")):
            message = rf"base logits shape {shape} does not match the gate's \(2, 2, 9\)"
            with pytest.raises(ValueError, match=message):
                gate.gate_backward(g, trace, wrong, inputs)
            with pytest.raises(ValueError, match=message):
                gate.gated_sequence_loss(trace, wrong, inputs)

    @pytest.mark.parametrize("variant", gate.VARIANTS)
    def test_run_length_leaves_loss_and_gradients_bit_identical(self, variant, monkeypatch):
        # one timestep per pass (ptb shape), runs of 3, 3 and 1, and the
        # whole block in one pass (desk shape), with gate-embedding dropout
        rng = np.random.default_rng(23)
        batch, steps, vocab = 3, 7, 17
        base = model.init_params(vocab, 6, 6, seed=24)
        g = gate.init_gate(vocab, d_g=5, variant=variant, d_h=base.d_h, seed=25)
        mask = model.dropout_mask(0.5, (batch, 5), g.dtype, rng)
        inputs, targets = helpers.random_inputs(rng, vocab, batch, steps)
        trace, logits = helpers.run_gated_block(base, g, inputs, mask)
        results = []
        for per_pass, runs in ((1, 7), (3, 3), (steps, 1)):
            monkeypatch.setattr(model, "_PASS_BYTES", per_pass * 8 * batch * vocab)
            assert len(model._timestep_runs(logits.shape)) == runs
            dlogits = np.empty_like(logits)
            loss = model._cross_entropy(trace.g * logits, targets, dlogits)
            results.append((loss, dlogits, gate.gated_sequence_loss(trace, logits, targets)[0],
                            *gate.gate_backward(g, trace, logits, targets)))
        (loss0, dlogits0, seq_loss0, block_loss0, grads0), *others = results
        for loss, dlogits, seq_loss, block_loss, grads in others:
            assert (loss, seq_loss, block_loss) == (loss0, seq_loss0, block_loss0)
            assert dlogits.tobytes() == dlogits0.tobytes()
            assert grads.keys() == grads0.keys()
            assert all(grads[k].tobytes() == grads0[k].tobytes() for k in grads)


class TestFrozenBase:
    def test_full_gate_training_leaves_base_bit_identical(self):
        from ioglm import training

        rng = np.random.default_rng(23)
        stream = rng.integers(0, 20, size=600)
        valid = rng.integers(0, 20, size=120)
        base = model.init_params(20, 8, 8, seed=24)
        before = {
            k: hashlib.sha256(v.tobytes()).hexdigest()
            for k, v in base.named_arrays().items()
        }
        g = gate.init_gate(20, d_g=8, seed=25)
        cfg = training.iog_config(batch_size=4, bptt_length=5, d_g=8, seed=26)
        training.train_iog(cfg, stream, valid, base, g)
        after = {
            k: hashlib.sha256(v.tobytes()).hexdigest()
            for k, v in base.named_arrays().items()
        }
        assert before == after


class TestTopWeightedWords:
    def _vocab(self, n):
        return corpus.Vocabulary([f"w{i}" for i in range(n)] + ["<unk>", "<eos>"])

    def test_full_permutation_when_unfiltered(self):
        vocab = self._vocab(6)
        g = gate.init_gate(8, d_g=4, seed=26)
        rows = gate.top_weighted_words(g, "w0", vocab, k=8, min_freq=0)
        assert len(rows) == 8
        assert sorted(w for w, _ in rows) == sorted(vocab.words)
        weights = [x for _, x in rows]
        assert weights == sorted(weights, reverse=True)

    def test_planted_top_word(self):
        vocab = self._vocab(3)
        g = gate.init_gate(5, d_g=2, seed=27, weight_scale=0.0, bias_init=-5.0)
        g.bias[2] = 5.0
        rows = gate.top_weighted_words(g, "w1", vocab, k=1, min_freq=0)
        assert rows[0][0] == "w2"

    def test_frequency_filter(self):
        vocab = self._vocab(3)
        g = gate.init_gate(5, d_g=2, seed=28, weight_scale=0.0, bias_init=-5.0)
        g.bias[2] = 5.0
        freq = np.array([100, 100, 3, 100, 100])
        rows = gate.top_weighted_words(g, "w0", vocab, k=1, min_freq=10, frequencies=freq)
        assert rows[0][0] != "w2"

    def test_tie_break_by_vocab_index(self):
        vocab = self._vocab(4)
        g = gate.init_gate(6, d_g=2, seed=29, weight_scale=0.0, bias_init=0.0)
        rows = gate.top_weighted_words(g, "w0", vocab, k=6, min_freq=0)
        assert [w for w, _ in rows] == vocab.words  # all 0.5, index order

    def test_errors(self):
        vocab = self._vocab(3)
        io = gate.init_gate(5, d_g=2, seed=30)
        with pytest.raises(ValueError, match="vocabulary"):
            gate.top_weighted_words(io, "nope", vocab, min_freq=0)
        lg = gate.init_gate(5, d_g=2, variant="lstm_gate", seed=31)
        with pytest.raises(ValueError, match="input_only"):
            gate.top_weighted_words(lg, "w0", vocab, min_freq=0)
        with pytest.raises(ValueError, match="frequency"):
            gate.top_weighted_words(io, "w0", vocab, min_freq=5)

    def test_row_formatting(self):
        line = gate.format_weighted_row("of", [("security", 0.98765), ("steel", 0.9)])
        assert line == "of\tsecurity:0.9877 steel:0.9000"
