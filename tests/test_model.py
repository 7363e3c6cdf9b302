import hashlib

import numpy as np
import pytest

import helpers
from ioglm import gate, kernels, model


class TestInitParams:
    def test_same_seed_is_bit_identical(self):
        a = model.init_params(30, 16, 16, layers=2, seed=7)
        b = model.init_params(30, 16, 16, layers=2, seed=7)
        for key, arr in a.named_arrays().items():
            assert np.array_equal(arr, b.named_arrays()[key])

    def test_tying_requires_matching_dims(self):
        with pytest.raises(ValueError, match="tying"):
            model.init_params(10, 8, 16, tie_weights=True)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            model.init_params(0, 8, 8)
        with pytest.raises(ValueError):
            model.init_params(10, 8, 8, cell_kind="gru")

    def test_forget_gate_bias_is_one(self):
        p = model.init_params(10, 8, 8, layers=2, cell_kind="lstm")
        for cell in p.cells:
            assert np.all(cell["bias"][8:16] == 1.0)

    def test_medium_configuration_parameter_count(self):
        # 2-layer LSTM, 650 units, 10k vocabulary: ~20M parameters
        p = model.init_params(10000, 650, 650, layers=2, cell_kind="lstm", seed=0)
        assert abs(p.param_count() - 20_000_000) / 20_000_000 < 0.05

    @pytest.mark.parametrize("make", [
        lambda: model.init_params(10, 4, 4, dtype=np.float16),
        lambda: gate.init_gate(10, d_g=3, dtype=np.float16),
        lambda: model.init_params(10, 4, 4).replace_arrays(
            {k: v.astype(np.float64) if k == "out_bias" else v
             for k, v in model.init_params(10, 4, 4).named_arrays().items()}),
        lambda: model.init_params(10, 4, 4).replace_arrays(
            {k: v.astype(v.dtype.newbyteorder())
             for k, v in model.init_params(10, 4, 4).named_arrays().items()}),
    ], ids=["lm-float16", "gate-float16", "mixed", "byte-swapped"])
    def test_a_set_holds_one_native_float_dtype(self, make):
        with pytest.raises(ValueError, match="one dtype, float32 or float64"):
            make()

    def test_tied_parameter_count_drops_projection(self):
        untied = model.init_params(50, 12, 12, layers=1)
        tied = model.init_params(50, 12, 12, layers=1, tie_weights=True)
        assert untied.param_count() - tied.param_count() == 50 * 12


# First 16 hex digits of the sha256 of every initial array, in named_arrays
# order. They pin the RNG draw order (each LSTM bias is drawn before its
# weight; the gate bias is a constant, not drawn), so the same seed keeps
# giving bit-identical initial arrays.
INIT_DIGESTS = [
    (dict(cell_kind="lstm", tie_weights=False, layers=1), {
        "embedding": "4dcc05a7a2a21d84",
        "cell0.weight": "d559fd485d2d8ada",
        "cell0.bias": "bc296437ead2562b",
        "out_weight": "062e8d2474602953",
        "out_bias": "4e845982f456c88e",
    }),
    (dict(cell_kind="lstm", tie_weights=False, layers=2), {
        "embedding": "4dcc05a7a2a21d84",
        "cell0.weight": "d559fd485d2d8ada",
        "cell0.bias": "bc296437ead2562b",
        "cell1.weight": "99917ad0024c9384",
        "cell1.bias": "c1d2e37257cfa4dd",
        "out_weight": "96fcff400f01be26",
        "out_bias": "d073faf4d664342d",
    }),
    (dict(cell_kind="lstm", tie_weights=True, layers=1), {
        "embedding": "eea2993b62de52e6",
        "cell0.weight": "ed2801b0ff7b2b50",
        "cell0.bias": "5ba0e5be48289930",
        "out_bias": "66050cd9e8232313",
    }),
    (dict(cell_kind="lstm", tie_weights=True, layers=2), {
        "embedding": "eea2993b62de52e6",
        "cell0.weight": "ed2801b0ff7b2b50",
        "cell0.bias": "5ba0e5be48289930",
        "cell1.weight": "ba1cb2726376410c",
        "cell1.bias": "a3858809d9b93341",
        "out_bias": "8b16806e6ce93e84",
    }),
    (dict(cell_kind="elman", tie_weights=False, layers=1), {
        "embedding": "4dcc05a7a2a21d84",
        "cell0.w_xh": "9136095d82984f23",
        "cell0.w_hh": "6c6090ca20e7766d",
        "cell0.bias": "52172243f3934aa0",
        "out_weight": "097f8818ecc1e3e7",
        "out_bias": "19f5e4853f0c7449",
    }),
    (dict(cell_kind="elman", tie_weights=False, layers=2), {
        "embedding": "4dcc05a7a2a21d84",
        "cell0.w_xh": "9136095d82984f23",
        "cell0.w_hh": "6c6090ca20e7766d",
        "cell0.bias": "52172243f3934aa0",
        "cell1.w_xh": "e96d971f7b2ecf6d",
        "cell1.w_hh": "c15c3ddf4b2d045d",
        "cell1.bias": "bb91540f68259b8b",
        "out_weight": "eecbdd8685467a79",
        "out_bias": "345d9fc418f3eae3",
    }),
    (dict(cell_kind="elman", tie_weights=True, layers=1), {
        "embedding": "eea2993b62de52e6",
        "cell0.w_xh": "50f68dbf9329db7d",
        "cell0.w_hh": "d7cb29a3ecd982b7",
        "cell0.bias": "a5ae796c5d217bac",
        "out_bias": "86f5e60aeee8e94a",
    }),
    (dict(cell_kind="elman", tie_weights=True, layers=2), {
        "embedding": "eea2993b62de52e6",
        "cell0.w_xh": "50f68dbf9329db7d",
        "cell0.w_hh": "d7cb29a3ecd982b7",
        "cell0.bias": "a5ae796c5d217bac",
        "cell1.w_xh": "892d74d30d910203",
        "cell1.w_hh": "ac27596bee3d6228",
        "cell1.bias": "5a01dc70ae2b331f",
        "out_bias": "bab908a7901ddfa6",
    }),
    (dict(variant="input_only"), {
        "embedding": "6b7ec921b25bfb79",
        "weight": "7826aafad1f2744c",
        "bias": "36486579f3cc6012",
    }),
    (dict(variant="with_hidden"), {
        "embedding": "6b7ec921b25bfb79",
        "hidden_weight": "1d590fe4e73f61f4",
        "bias": "36486579f3cc6012",
    }),
    (dict(variant="lstm_gate"), {
        "embedding": "6b7ec921b25bfb79",
        "weight": "7826aafad1f2744c",
        "cell_weight": "479813e7d5a0394d",
        "cell_bias": "2f6c98113e5bef12",
        "bias": "36486579f3cc6012",
    }),
]


@pytest.mark.parametrize("kwargs,expected", INIT_DIGESTS)
def test_initial_arrays_are_pinned(kwargs, expected):
    if "variant" in kwargs:
        params = gate.init_gate(7, d_g=3, d_h=4, seed=5, **kwargs)
    else:
        d_e = 4 if kwargs["tie_weights"] else 3
        params = model.init_params(7, d_e, 4, seed=5, **kwargs)
    digests = {k: hashlib.sha256(a.tobytes()).hexdigest()[:16]
               for k, a in params.named_arrays().items()}
    assert list(digests.items()) == list(expected.items())


class TestWeightTying:
    def test_shared_storage(self):
        p = model.init_params(20, 8, 8, tie_weights=True, seed=1)
        assert p.out_weight is p.embedding

    def test_aliased_update_changes_both_roles(self):
        p = model.init_params(20, 8, 8, tie_weights=True, seed=1)
        st = model.initial_state(p)
        before_logits, _, _ = model.forward_step(p, st, [[3]])
        before_emb = p.embedding[3].copy()
        p.embedding += 0.25
        after_logits, _, _ = model.forward_step(p, st, [[3]])
        assert not np.array_equal(p.embedding[3], before_emb)
        assert not np.array_equal(after_logits, before_logits)

    def test_copy_preserves_tying(self):
        p = model.init_params(20, 8, 8, tie_weights=True, seed=1).copy()
        assert p.out_weight is p.embedding


class TestForwardStep:
    def test_zero_params_give_bias_logits(self):
        p = model.init_params(9, 4, 4, cell_kind="elman", seed=0)
        for arr in p.named_arrays().values():
            arr[...] = 0.0
        p.out_bias[...] = np.arange(9, dtype=np.float32)
        logits, _, _ = model.forward_step(p, model.initial_state(p), [[2]])
        assert np.array_equal(logits[0, 0], p.out_bias)

    def test_elman_single_step_matches_hand_computation(self):
        p = model.init_params(4, 2, 2, cell_kind="elman", seed=0, dtype=np.float64)
        cell = p.cells[0]
        cell["w_xh"][...] = [[0.5, -0.25], [1.0, 0.75]]
        cell["w_hh"][...] = [[0.1, 0.2], [0.3, 0.4]]
        cell["bias"][...] = [0.05, -0.1]
        e = p.embedding[1]
        expected_h = np.tanh(cell["w_xh"] @ e + cell["bias"])  # h_prev = 0
        _, state, _ = model.forward_step(p, model.initial_state(p), [[1]])
        assert np.max(np.abs(state.h[0][0] - expected_h)) < 1e-6

    def test_purity(self):
        p = model.init_params(12, 6, 6, layers=2, seed=3)
        st = model.initial_state(p)
        a = model.forward_step(p, st, [[5]])
        b = model.forward_step(p, st, [[5]])
        assert np.array_equal(a[0], b[0])
        for ha, hb in zip(a[1].h, b[1].h):
            assert np.array_equal(ha, hb)

    @pytest.mark.parametrize("inputs", helpers.NOT_BLOCKS, ids=helpers.NOT_BLOCK_IDS)
    def test_only_a_non_empty_block_is_accepted(self, inputs):
        p = model.init_params(12, 6, 6)
        with pytest.raises(ValueError, match=r"non-empty \(B, T\) block, got shape"):
            model.forward_step(p, model.initial_state(p, 2), inputs)

    def test_out_of_range_index(self):
        p = model.init_params(12, 6, 6)
        with pytest.raises(ValueError, match="out of range"):
            model.forward_step(p, model.initial_state(p), [[12]])

    def test_keep_everything_masks_equal_eval_mode(self):
        p = model.init_params(15, 6, 6, layers=2, seed=4)
        ones = model.DropoutMasks(
            np.ones((1, 6), dtype=np.float32),
            [np.ones((1, 6), dtype=np.float32) for _ in range(2)],
        )
        st = model.initial_state(p)
        with_masks, _, _ = model.forward_step(p, st, [[7]], ones)
        without, _, _ = model.forward_step(p, st, [[7]])
        assert np.array_equal(with_masks, without)

    def test_dropout_masks_rescale(self):
        rng = np.random.default_rng(0)
        p = model.init_params(15, 8, 8, seed=4)
        masks = model.sample_dropout_masks(p, 0.5, 3, rng)
        values = np.unique(masks.emb)
        assert set(values.tolist()) <= {0.0, 2.0}


class TestPredictDistribution:
    def test_sums_to_one(self):
        p = model.init_params(33, 10, 10, seed=5)
        probs, _ = helpers.predict_distribution(p, model.initial_state(p), 0)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_zero_params_give_uniform(self):
        p = model.init_params(8, 4, 4, cell_kind="elman")
        for arr in p.named_arrays().values():
            arr[...] = 0.0
        probs, _ = helpers.predict_distribution(p, model.initial_state(p), 1)
        assert np.max(np.abs(probs - 1.0 / 8)) < 1e-12

    def test_hand_set_logits_match_softmax_oracle(self):
        p = model.init_params(3, 2, 2, cell_kind="elman")
        for arr in p.named_arrays().values():
            arr[...] = 0.0
        p.out_bias[...] = [1.0, 2.0, 3.0]
        probs, _ = helpers.predict_distribution(p, model.initial_state(p), 0)
        e = np.exp(np.array([1.0, 2.0, 3.0]))
        assert np.max(np.abs(probs - e / e.sum())) < 1e-12


class TestBackwardSequence:
    def test_empty_trace_rejected(self):
        # an empty block never becomes a trace: the entry point rejects it
        p = model.init_params(6, 4, 4)
        with pytest.raises(ValueError):
            model.forward_step(p, model.initial_state(p), np.zeros((1, 0), dtype=int))

    def test_target_length_mismatch(self):
        p = model.init_params(6, 4, 4)
        trace, _ = helpers.run_lm_block(p, np.array([[1, 2]]))
        with pytest.raises(ValueError):
            model.backward_sequence(p, trace, np.array([[1, 2, 3]]))

    def test_single_step_matches_fd(self):
        rng = np.random.default_rng(10)
        p = helpers.params64(10, 8, 8, cell_kind="lstm", seed=11)
        inputs, targets = helpers.random_inputs(rng, 10, 1, 1)
        err = helpers.lm_gradient_error(p, inputs, targets, rng=rng)
        assert err < 1e-3

    @pytest.mark.parametrize("cell_kind", ["elman", "lstm"])
    @pytest.mark.parametrize("tie", [False, True])
    def test_multistep_multilayer_matches_fd(self, cell_kind, tie):
        rng = np.random.default_rng(hash((cell_kind, tie)) % 2**32)
        p = helpers.params64(7, 5, 5, layers=2, cell_kind=cell_kind, tie_weights=tie, seed=12)
        inputs, targets = helpers.random_inputs(rng, 7, 2, 3)
        err = helpers.lm_gradient_error(p, inputs, targets, rng=rng)
        assert err < 1e-3

    def test_gradients_with_dropout_masks_match_fd(self):
        rng = np.random.default_rng(13)
        p = helpers.params64(9, 6, 6, layers=2, cell_kind="lstm", seed=14)
        masks = model.sample_dropout_masks(p, 0.4, 2, rng)
        inputs, targets = helpers.random_inputs(rng, 9, 2, 3)
        err = helpers.lm_gradient_error(p, inputs, targets, masks=masks, rng=rng)
        assert err < 1e-3

    def test_state_gradient_shape_and_truncation(self):
        p = helpers.params64(8, 5, 5, layers=2, seed=15)
        inputs = np.array([[1, 2, 3], [4, 5, 6]])
        trace, _ = helpers.run_lm_block(p, inputs)
        _, grads = model.backward_sequence(p, trace, inputs)
        # gradients exist only for parameters, never for the preceding state
        assert set(grads) == set(p.named_arrays())

    def test_gradient_norm_vanishes_at_optimum_of_degenerate_task(self):
        # single repeated token: the optimum drives the gradient to zero
        p = helpers.params64(3, 4, 4, cell_kind="elman", seed=16)
        inputs = np.zeros((1, 1), dtype=int)
        targets = np.zeros((1, 1), dtype=int)
        from ioglm import training

        named = p.named_arrays()
        adam = training.AdamState.for_params(named)
        for _ in range(400):
            trace, _ = helpers.run_lm_block(p, inputs)
            _, grads = model.backward_sequence(p, trace, targets)
            training.adam_step(named, grads, adam, 0.5)
        trace, _ = helpers.run_lm_block(p, inputs)
        _, grads = model.backward_sequence(p, trace, targets)
        assert training.global_grad_norm(grads) < 1e-6


class TestHiddenSequence:
    def test_matches_stepwise_forward(self):
        p = model.init_params(25, 12, 12, layers=2, cell_kind="lstm", seed=20)
        inputs = np.random.default_rng(21).integers(0, 25, size=40)
        tops, state = model.hidden_sequence(p, inputs, model.initial_state(p))
        st = model.initial_state(p)
        for t in range(40):
            logits, st, entry = model.forward_step(p, st, inputs[None, t:t + 1])
            assert np.array_equal(tops[t], entry.top[0, 0])
        for a, b in zip(state.h, st.h):
            assert np.array_equal(a, b)

    def test_tied_elman_bit_identical_across_two_calls(self):
        p = model.init_params(40, 32, 32, layers=2, cell_kind="elman", tie_weights=True,
                              seed=22)
        inputs = np.random.default_rng(23).integers(0, 40, size=150)
        first, state = model.hidden_sequence(p, inputs[:64], model.initial_state(p))
        second, state = model.hidden_sequence(p, inputs[64:], state)
        tops = np.concatenate([first, second])
        st = model.initial_state(p)
        for t in range(150):
            _, st, entry = model.forward_step(p, st, inputs[None, t:t + 1])
            assert np.array_equal(tops[t], entry.top[0, 0]), t
        assert state.c is None
        for a, b in zip(state.h, st.h):
            assert np.array_equal(a, b)

    def test_production_width_chunk_matches_one_token_calls(self):
        # PTB shape, V=10 000 and D=200: the BLAS kernels of the
        # benchmark's chunks, not those of the small cases above
        p = model.init_params(10_000, 200, 200, cell_kind="lstm", seed=24)
        inputs = np.random.default_rng(25).integers(0, 10_000, size=128)
        tops, state = model.hidden_sequence(p, inputs, model.initial_state(p))
        st = model.initial_state(p)
        for t in range(128):
            top, st = model.hidden_sequence(p, inputs[t:t + 1], st)
            assert np.array_equal(tops[t], top[0]), t
        for a, b in zip(state.h + state.c, st.h + st.c):
            assert np.array_equal(a, b)


class TestNonFinitePreActivation:
    """`layer_sequence` checks a block's pre-activations once, after its
    time loop: a fault at any step, of either cell, still raises."""

    def test_infinite_elman_weight_raises(self):
        # tanh would saturate an infinite pre-activation to a finite +-1
        p = model.init_params(10, 6, 6, cell_kind="elman", seed=3)
        p.cells[0]["w_xh"][0, 0] = np.inf
        inputs = np.array([[1, 2, 3]])
        with pytest.raises(kernels.NonFiniteError, match="recurrent pre-activation"):
            model.forward_step(p, model.initial_state(p), inputs)
        with pytest.raises(kernels.NonFiniteError, match="recurrent pre-activation"):
            model.hidden_sequence(p, inputs[0], model.initial_state(p))

    @pytest.mark.parametrize("cell_kind", ["elman", "lstm"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_nan_input_at_a_later_step_raises_and_leaves_the_state(self, cell_kind, k):
        # word 9, whose embedding row is NaN, first comes in at step k of lane 0
        p = model.init_params(10, 6, 6, layers=2, cell_kind=cell_kind, seed=4)
        p.embedding[9] = np.nan
        rng = np.random.default_rng(5)
        inputs = rng.integers(0, 9, size=(3, 6))
        inputs[0, k] = 9
        arrays = lambda: [rng.uniform(-0.5, 0.5, (3, 6)).astype(np.float32) for _ in range(2)]
        state = model.HiddenState(arrays(), arrays() if cell_kind == "lstm" else None)
        incoming = [a.copy() for a in state.h + (state.c or [])]
        with pytest.raises(kernels.NonFiniteError, match="recurrent pre-activation"):
            model.forward_step(p, state, inputs)
        lane = model.HiddenState([h[:1] for h in state.h], state.c and [c[:1] for c in state.c])
        with pytest.raises(kernels.NonFiniteError, match="recurrent pre-activation"):
            model.hidden_sequence(p, inputs[0], lane)
        for a, b in zip(state.h + (state.c or []), incoming):
            assert np.array_equal(a, b)


class TestBlockPath:
    @pytest.mark.parametrize("cell_kind", ["elman", "lstm"])
    @pytest.mark.parametrize("tie", [False, True])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("batch", [1, 3, 20])
    def test_block_equals_chained_single_steps(self, cell_kind, tie, layers, batch):
        rng = np.random.default_rng(30)
        p = model.init_params(23, 7, 7 if tie else 9, layers=layers, cell_kind=cell_kind,
                              tie_weights=tie, seed=31)
        masks = model.sample_dropout_masks(p, 0.3, batch, rng)
        inputs = rng.integers(0, 23, size=(batch, 6))
        logits, state, trace = model.forward_step(p, model.initial_state(p, batch), inputs, masks)
        assert logits.shape == (6, batch, 23)
        st = model.initial_state(p, batch)
        for t in range(6):
            step_logits, st, step = model.forward_step(p, st, inputs[:, t:t + 1], masks)
            assert np.array_equal(trace.top[t], step.top[0]), t
            # One (T*B)-row output product against T (B)-row ones: the same
            # float32 sums, rounded in another order.
            np.testing.assert_allclose(logits[t], step_logits[0], rtol=1e-5, atol=1e-6)
        for a, b in zip(state.h + (state.c or []), st.h + (st.c or [])):
            assert np.array_equal(a, b)


class TestSoftmaxRuns:
    @pytest.mark.parametrize("cell_kind", ["elman", "lstm"])
    def test_run_length_leaves_loss_and_gradients_bit_identical(self, cell_kind, monkeypatch):
        # one timestep per pass (ptb shape), runs of 3, 3 and 1, and the
        # whole block in one pass (desk shape), on a tied model with dropout
        rng = np.random.default_rng(40)
        batch, steps, vocab = 3, 7, 17
        p = model.init_params(vocab, 6, 6, layers=2, cell_kind=cell_kind, tie_weights=True,
                              seed=41)
        masks = model.sample_dropout_masks(p, 0.3, batch, rng)
        inputs, targets = helpers.random_inputs(rng, vocab, batch, steps)
        trace, _ = helpers.run_lm_block(p, inputs, masks)
        results = []
        for per_pass, runs in ((1, 7), (3, 3), (steps, 1)):
            monkeypatch.setattr(model, "_PASS_BYTES", per_pass * 8 * batch * vocab)
            assert len(model._timestep_runs(trace.logits.shape)) == runs
            dlogits = np.empty_like(trace.logits)
            loss = model._cross_entropy(trace.logits, targets, dlogits)
            results.append((loss, dlogits, *model.backward_sequence(p, trace, targets)))
        (loss0, dlogits0, block_loss0, grads0), *others = results
        for loss, dlogits, block_loss, grads in others:
            assert (loss, block_loss) == (loss0, block_loss0)
            assert dlogits.tobytes() == dlogits0.tobytes()
            assert grads.keys() == grads0.keys()
            assert all(grads[k].tobytes() == grads0[k].tobytes() for k in grads)


class TestScatterAdd:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_add_at_bit_for_bit(self, dtype):
        rng = np.random.default_rng(50)
        # a table that already holds gradient, as a tied embedding does when
        # the lookup side is scattered in, and 18 rows onto 4 words whose
        # magnitudes spread widely, so the order of repeats shows in the sums
        table = rng.standard_normal((9, 5)).astype(dtype)
        indices = rng.integers(0, 4, size=(6, 3))
        rows = (rng.standard_normal((6, 3, 5)) * 10.0 ** rng.integers(-6, 7, (6, 3, 5)))
        rows = rows.astype(dtype)
        expected = table.copy()
        np.add.at(expected, indices, rows)
        model._scatter_add(table, indices, rows)
        assert table.tobytes() == expected.tobytes()

    def test_a_table_it_cannot_view_flat_raises_instead_of_adding_into_a_copy(self):
        table = np.zeros((5, 9)).T
        with pytest.raises(AttributeError, match="Incompatible shape"):
            model._scatter_add(table, np.array([[1]]), np.ones((1, 1, 5)))
