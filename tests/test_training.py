import dataclasses
import math

import numpy as np
import pytest

from ioglm import corpus, evaluate, gate, model, recipe, training


def cyclic_stream(vocab_size, length):
    return np.arange(length) % vocab_size


def inverse_sqrt(initial_lr):
    return training.TrainConfig(lr_schedule="inverse_sqrt_epoch", initial_lr=initial_lr)


class TestLrSchedule:
    def test_inverse_sqrt_values(self):
        cfg = inverse_sqrt(0.001)
        assert training.scheduled_lr(cfg, 1) == 0.001
        assert training.scheduled_lr(cfg, 4) == pytest.approx(0.0005, abs=1e-15)
        assert training.scheduled_lr(cfg, 2) == pytest.approx(0.001 / math.sqrt(2), abs=1e-12)

    def test_epoch_zero_rejected(self):
        with pytest.raises(ValueError):
            training.scheduled_lr(inverse_sqrt(0.001), 0)

    def test_strictly_decreasing(self):
        values = [training.scheduled_lr(inverse_sqrt(0.1), e) for e in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_other_schedules(self):
        cfg = training.TrainConfig(lr_schedule="constant", initial_lr=0.5)
        assert training.scheduled_lr(cfg, 9) == 0.5
        cfg = training.TrainConfig(
            lr_schedule="step", initial_lr=1.0, lr_step_factor=0.5, lr_step_start=3
        )
        assert [training.scheduled_lr(cfg, e) for e in (1, 2, 3, 4, 5)] == [
            1.0, 1.0, 1.0, 0.5, 0.25,
        ]


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = {"w": np.array([1.0, -2.0], dtype=np.float32)}
        st = training.AdamState.for_params(p)
        before = p["w"].copy()
        for _ in range(3):
            training.adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, st, 0.1)
        assert np.array_equal(p["w"], before)
        assert st.t == 3

    def test_matches_hand_iterated_recurrence(self):
        # scalar parameter, constant unit gradient, three steps
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta = 0.5
        m = v = 0.0
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta -= lr * mhat / (math.sqrt(vhat) + eps)

        p = {"w": np.array([0.5])}
        st = training.AdamState.for_params(p)
        for _ in range(3):
            training.adam_step(p, {"w": np.ones(1)}, st, lr)
        assert p["w"][0] == pytest.approx(theta, abs=1e-10)

    def test_shared_step_counter_across_tensors(self):
        p = {"a": np.zeros(2), "b": np.zeros((2, 2))}
        st = training.AdamState.for_params(p)
        training.adam_step(p, {"a": np.ones(2), "b": np.ones((2, 2))}, st, 0.1)
        assert st.t == 1

    def test_shape_mismatch_rejected(self):
        p = {"a": np.zeros(2)}
        st = training.AdamState.for_params(p)
        with pytest.raises(ValueError):
            training.adam_step(p, {"a": np.ones(3)}, st, 0.1)


class TestClipping:
    def test_norm_capped(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grads = {
                "a": rng.standard_normal(40) * rng.uniform(0, 40),
                "b": rng.standard_normal((5, 5)),
            }
            training.clip_gradients(grads, 5.0)
            assert training.global_grad_norm(grads) <= 5.0 + 1e-6

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.1, -0.2])}
        before = grads["a"].copy()
        norm = training.clip_gradients(grads, 5.0)
        assert norm == pytest.approx(math.sqrt(0.05))
        assert np.array_equal(grads["a"], before)

    def test_zero_max_norm_disables(self):
        grads = {"a": np.full(4, 100.0)}
        training.clip_gradients(grads, 0.0)
        assert np.all(grads["a"] == 100.0)


class TestConfig:
    def test_iog_defaults_follow_the_recipe(self):
        cfg = training.iog_config()
        assert cfg.phase == "iog"
        assert cfg.d_g == 300
        assert cfg.dropout_rate == 0.5
        assert cfg.optimizer == "adam"
        assert cfg.initial_lr == 0.001
        assert cfg.lr_schedule == "inverse_sqrt_epoch"
        assert cfg.max_epochs == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            training.TrainConfig(optimizer="lbfgs").validate()
        with pytest.raises(ValueError):
            training.TrainConfig(dropout_rate=1.0).validate()
        with pytest.raises(ValueError):
            training.TrainConfig(phase="warmup").validate()

    @pytest.mark.parametrize("key", sorted(training.CHOICES))
    def test_bad_choice_names_the_field_when_built_or_replaced(self, key):
        with pytest.raises(ValueError, match=f"unknown {key} 'bogus'"):
            training.TrainConfig(**{key: "bogus"})
        with pytest.raises(ValueError, match=f"unknown {key} 'bogus'"):
            dataclasses.replace(training.iog_config(), **{key: "bogus"})

    def test_training_and_gate_take_the_recipe_from_one_module(self):
        assert training.TrainConfig is recipe.TrainConfig
        assert training.iog_config is recipe.iog_config
        assert training.CHOICES is recipe.CHOICES
        assert gate.VARIANTS is recipe.CHOICES["gate_variant"]

    def test_frozen(self):
        cfg = training.TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.optimizer = "lbfgs"
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("key,value", [
        ("initial_lr", math.nan), ("initial_lr", math.inf), ("initial_lr", -0.1),
        ("grad_clip_norm", math.nan), ("grad_clip_norm", math.inf), ("grad_clip_norm", -1.0),
        ("lr_step_factor", math.nan), ("lr_step_factor", math.inf), ("lr_step_factor", 0.0),
        ("lr_step_factor", -1.0), ("seed", -1), ("lr_step_start", -3),
    ])
    def test_non_finite_or_sign_wrong_schedule_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            training.TrainConfig(**{key: value}).validate()


# The last cases keep a valid validation stream and spoil the train stream:
# a bad token at the end of its first lane, a target of that lane's last
# block, or a (N, 1) shape.
BAD_TRAIN = {"train": np.where(np.arange(42) == 20, 6, np.arange(42) % 6),
             "train (N, 1)": cyclic_stream(6, 42)[:, None]}


@pytest.mark.parametrize("valid,message", [
    ([], "at least 2 tokens"), ([3, 99], "target index out of range"),
    ([99, 3], "input index out of range"), ([[1, 2], [3, 4]], "at least 2 tokens"),
    ("train", r"target index out of range \[0, 6\): \[6\]"),
    ("train (N, 1)", r"1-D stream .* got shape \(42, 1\)"),
])
@pytest.mark.parametrize("phase", ["base", "iog"])
def test_bad_validation_stream_raises_before_the_first_block(monkeypatch, phase, valid, message):
    blocks = []
    clip = training.clip_gradients
    monkeypatch.setattr(training, "clip_gradients", lambda *a: blocks.append(1) or clip(*a))
    train, base = cyclic_stream(6, 42), model.init_params(6, 4, 4)
    if isinstance(valid, str):
        train, valid = BAD_TRAIN[valid], cyclic_stream(6, 12)
    g = gate.init_gate(6, d_g=3)
    trained = base if phase == "base" else g
    before = {k: a.copy() for k, a in trained.named_arrays().items()}
    cfg = dict(batch_size=2, bptt_length=5, max_epochs=1)
    with pytest.raises(ValueError, match=message):
        if phase == "base":
            training.train_base(training.TrainConfig(**cfg), train, valid, base)
        else:
            training.train_iog(training.iog_config(d_g=3, **cfg), train, valid, base, g)
    assert blocks == []
    assert all(np.array_equal(a, before[k]) for k, a in trained.named_arrays().items())


class TestTrainBase:
    def test_overfits_small_cyclic_corpus(self):
        stream = cyclic_stream(10, 200)
        vocab_size = 12
        params = model.init_params(vocab_size, 16, 16, cell_kind="lstm", seed=0)
        cfg = training.TrainConfig(
            phase="base", batch_size=2, bptt_length=10, max_epochs=50,
            optimizer="adam", initial_lr=0.01, lr_schedule="constant",
            dropout_rate=0.0, grad_clip_norm=5.0, seed=0,
        )
        best, metrics = training.train_base(cfg, stream, stream, params)
        assert metrics[-1]["train_ppl"] < 1.5

    def test_fixed_seed_reproduces_epoch_one_loss(self):
        stream = cyclic_stream(9, 150)
        cfg = training.TrainConfig(
            phase="base", batch_size=2, bptt_length=5, max_epochs=1,
            optimizer="sgd", initial_lr=0.5, lr_schedule="constant", seed=3,
            dropout_rate=0.3,
        )
        runs = []
        for _ in range(2):
            params = model.init_params(9, 8, 8, seed=4)
            _, metrics = training.train_base(cfg, stream, stream, params)
            runs.append(metrics[0])
        assert runs[0]["train_ppl"] == runs[1]["train_ppl"]
        assert runs[0]["valid_ppl"] == runs[1]["valid_ppl"]

    def test_random_init_validation_perplexity_close_to_vocab_size(self):
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 50, size=2000)
        params = model.init_params(50, 12, 12, seed=6)
        report = evaluate.perplexity(params, stream)
        assert abs(report.perplexity - 50) / 50 < 0.05

    def test_divergence_aborts_with_diagnostic(self):
        # a step large enough to overflow float32 parameters puts NaN/inf in
        # the forward pass on the next block
        stream = cyclic_stream(8, 120)
        params = model.init_params(8, 8, 8, cell_kind="elman", seed=7)
        cfg = training.TrainConfig(
            phase="base", batch_size=2, bptt_length=5, max_epochs=3,
            optimizer="sgd", initial_lr=1e39, lr_schedule="constant",
            grad_clip_norm=0.0, seed=7,
        )
        with np.errstate(all="ignore"), pytest.raises(
            training.TrainingDiverged, match="epoch"
        ):
            training.train_base(cfg, stream, stream, params)

    def test_infinite_elman_weight_raises_at_the_first_block(self):
        stream = cyclic_stream(8, 60)
        params = model.init_params(8, 6, 6, cell_kind="elman", seed=3)
        params.cells[0]["w_xh"][0, 0] = np.inf
        cfg = training.TrainConfig(phase="base", batch_size=2, bptt_length=5, max_epochs=1)
        with pytest.raises(training.TrainingDiverged,
                           match=r"epoch 1, block 0 \(.*\): recurrent pre-activation"):
            training.train_base(cfg, stream, stream, params)

    def test_non_finite_validation_raises_naming_the_epoch(self):
        # one block per epoch: an lr that overflows float32 leaves non-finite
        # weights, which the epoch's validation meets first
        stream = cyclic_stream(8, 12)
        assert len(corpus.batchify(stream, 2, 5)) == 1
        params = model.init_params(8, 8, 8, cell_kind="elman", seed=7)
        cfg = training.TrainConfig(
            phase="base", batch_size=2, bptt_length=5, max_epochs=1,
            optimizer="sgd", initial_lr=1e39, lr_schedule="constant",
            grad_clip_norm=0.0, seed=7,
        )
        with np.errstate(all="ignore"), pytest.raises(
            training.TrainingDiverged, match=r"epoch 1, validation \(lr=1e\+39, optimizer=sgd\)"
        ):
            training.train_base(cfg, stream, cyclic_stream(8, 40), params)

    @pytest.mark.parametrize("lr,out_bias", [(1e3, 0.0), (0.01, 3000.0)],
                             ids=["huge_step", "huge_bias"])
    def test_overflowing_validation_perplexity_is_never_best(self, lr, out_bias):
        # finite but huge logits, after a huge step or from output biases of
        # +-3000 at the start: every validation mean NLL overflows exp, so the
        # initial parameters come back, although training moved the arrays
        stream = cyclic_stream(8, 120)
        params = model.init_params(8, 8, 8, cell_kind="lstm", seed=7)
        params.out_bias += np.where(np.arange(8) % 2, out_bias, -out_bias).astype(np.float32)
        initial = params.copy().named_arrays()
        cfg = training.TrainConfig(
            phase="base", batch_size=2, bptt_length=5, max_epochs=2,
            optimizer="sgd", initial_lr=lr, lr_schedule="constant",
            grad_clip_norm=0.0, seed=7,
        )
        with np.errstate(all="ignore"):
            best, metrics = training.train_base(cfg, stream, stream, params)
        assert [m["valid_ppl"] for m in metrics] == [math.inf, math.inf]
        for k, v in best.named_arrays().items():
            assert np.array_equal(v, initial[k]), k
        assert not all(np.array_equal(v, initial[k]) for k, v in params.named_arrays().items())

    def test_nan_gradient_raises_at_its_block_before_the_step(self, monkeypatch):
        # 3 blocks per epoch; block 1's gradient gets a NaN
        stream = cyclic_stream(8, 2 * 15 + 2)
        params = model.init_params(8, 6, 6, seed=8)
        cfg = training.TrainConfig(
            phase="base", batch_size=2, bptt_length=5, max_epochs=1,
            optimizer="adam", initial_lr=0.01, lr_schedule="constant", seed=8,
        )
        assert len(corpus.batchify(stream, 2, 5)) == 3
        calls = []
        backward = model.backward_sequence

        def poisoned(p, trace, targets):
            calls.append({k: v.copy() for k, v in p.named_arrays().items()})
            loss, grads = backward(p, trace, targets)
            if len(calls) == 2:
                grads["out_bias"][0] = np.nan
            return loss, grads

        monkeypatch.setattr(model, "backward_sequence", poisoned)
        with pytest.raises(training.TrainingDiverged, match=r"epoch 1, block 1 \(lr=0.01\)"):
            training.train_base(cfg, stream, stream, params)
        assert len(calls) == 2
        for k, v in params.named_arrays().items():
            assert np.array_equal(v, calls[1][k]), k

    @pytest.mark.parametrize("loss,train_ppl", [(705.0, math.exp(705.0)), (800.0, math.inf)])
    def test_train_ppl_is_exp_of_the_mean_loss_or_inf(self, monkeypatch, loss, train_ppl):
        stream = cyclic_stream(8, 2 * 15 + 2)
        cfg = training.TrainConfig(
            phase="base", batch_size=2, bptt_length=5, max_epochs=1,
            optimizer="sgd", initial_lr=0.01, lr_schedule="constant", seed=8,
        )
        backward = model.backward_sequence

        def fixed_loss(p, trace, targets):
            _, grads = backward(p, trace, targets)
            return loss, grads

        monkeypatch.setattr(model, "backward_sequence", fixed_loss)
        _, metrics = training.train_base(cfg, stream, stream, model.init_params(8, 6, 6, seed=8))
        assert metrics[0]["train_ppl"] == train_ppl

    def test_phase_guard(self):
        with pytest.raises(ValueError):
            training.train_base(
                training.iog_config(), cyclic_stream(5, 50), cyclic_stream(5, 50),
                model.init_params(5, 4, 4),
            )


    def test_out_of_range_lane_final_target_rejected(self):
        # 2 lanes of 11 tokens; a lane's last token is only ever a target
        stream = cyclic_stream(6, 22)
        stream[10] = -1
        cfg = training.TrainConfig(phase="base", batch_size=2, bptt_length=5, max_epochs=1)
        with pytest.raises(ValueError, match="target index out of range"):
            training.train_base(cfg, stream, cyclic_stream(6, 22), model.init_params(6, 4, 4))


class TestTrainIog:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        train = rng.integers(0, 15, size=400)
        valid = rng.integers(0, 15, size=100)
        base = model.init_params(15, 8, 8, seed=seed)
        g = gate.init_gate(15, d_g=6, seed=seed + 1)
        return train, valid, base, g

    def test_only_gate_parameters_change(self):
        train, valid, base, g = self._setup(1)
        base_before = {k: v.copy() for k, v in base.named_arrays().items()}
        gate_before = {k: v.copy() for k, v in g.named_arrays().items()}
        cfg = training.iog_config(batch_size=4, bptt_length=5, d_g=6, max_epochs=2, seed=2)
        training.train_iog(cfg, train, valid, base, g)
        for k, v in base.named_arrays().items():
            assert np.array_equal(v, base_before[k]), f"base array {k} was mutated"
        changed = any(
            not np.array_equal(v, gate_before[k]) for k, v in g.named_arrays().items()
        )
        assert changed

    def test_zero_lr_leaves_gate_unchanged_and_metrics_at_init(self):
        train, valid, base, g = self._setup(3)
        init_ppl = evaluate.perplexity(base, valid, gate=g).perplexity
        before = {k: v.copy() for k, v in g.named_arrays().items()}
        cfg = training.iog_config(
            batch_size=4, bptt_length=5, d_g=6, max_epochs=2, seed=4,
            initial_lr=0.0, dropout_rate=0.0,
        )
        best, metrics = training.train_iog(cfg, train, valid, base, g)
        for k, v in g.named_arrays().items():
            assert np.array_equal(v, before[k])
        for record in metrics:
            assert record["valid_ppl"] == pytest.approx(init_ppl, abs=1e-12)

    def test_vocab_mismatch_rejected(self):
        train, valid, base, _ = self._setup(5)
        wrong = gate.init_gate(16, d_g=6)
        with pytest.raises(ValueError, match="vocabulary"):
            training.train_iog(training.iog_config(), train, valid, base, wrong)

    def test_out_of_range_lane_final_target_rejected(self):
        stream = cyclic_stream(6, 22)
        stream[21] = 6
        base = model.init_params(6, 4, 4)
        cfg = training.iog_config(batch_size=2, bptt_length=5, d_g=3, max_epochs=1)
        with pytest.raises(ValueError, match="target index out of range"):
            training.train_iog(cfg, stream, cyclic_stream(6, 22), base, gate.init_gate(6, d_g=3))

    def test_with_hidden_gate_of_another_width_rejected(self):
        train, valid, base, _ = self._setup(10)
        wrong = gate.init_gate(15, d_g=6, variant="with_hidden", d_h=5)
        with pytest.raises(ValueError, match=r"gate\.d_h=5, but the base has d_h=8"):
            training.train_iog(training.iog_config(), train, valid, base, wrong)

    @pytest.mark.parametrize("field,value", [("d_g", 7), ("gate_variant", "with_hidden")])
    def test_config_that_disagrees_with_the_gate_rejected(self, field, value):
        train, valid, base, g = self._setup(11)
        cfg = training.iog_config(batch_size=4, bptt_length=5, max_epochs=1,
                                  **{"d_g": 6, field: value})
        with pytest.raises(ValueError, match=rf"config\.{field} is {value!r}, but the gate"):
            training.train_iog(cfg, train, valid, base, g)

    def test_nan_gradient_raises_at_its_block_before_the_step(self, monkeypatch):
        train, valid, base, g = self._setup(8)
        cfg = training.iog_config(batch_size=4, bptt_length=33, d_g=6, max_epochs=1, seed=9)
        assert len(corpus.batchify(train, 4, 33)) == 3
        calls = []
        backward = gate.gate_backward

        def poisoned(gate_params, trace, base_logits, targets):
            calls.append({k: v.copy() for k, v in gate_params.named_arrays().items()})
            loss, grads = backward(gate_params, trace, base_logits, targets)
            if len(calls) == 2:
                grads["bias"][0] = np.nan
            return loss, grads

        monkeypatch.setattr(gate, "gate_backward", poisoned)
        with pytest.raises(training.TrainingDiverged, match=r"epoch 1, block 1 \(lr=0.001\)"):
            training.train_iog(cfg, train, valid, base, g)
        assert len(calls) == 2
        for k, v in g.named_arrays().items():
            assert np.array_equal(v, calls[1][k]), k

    def test_log_receives_one_line_per_epoch(self):
        train, valid, base, g = self._setup(8)
        lines = []
        cfg = training.TrainConfig(batch_size=4, bptt_length=5, max_epochs=2)
        base, _ = training.train_base(cfg, train, valid, base, log=lines.append)
        cfg = training.iog_config(batch_size=4, bptt_length=5, d_g=6, max_epochs=3)
        training.train_iog(cfg, train, valid, base, g, log=lines.append)
        assert [line[:line.index(": ")] for line in lines] == [
            "[base] epoch 1", "[base] epoch 2",
            "[iog:input_only] epoch 1", "[iog:input_only] epoch 2", "[iog:input_only] epoch 3",
        ]

    def test_metrics_records_schema(self):
        train, valid, base, g = self._setup(6)
        cfg = training.iog_config(batch_size=4, bptt_length=5, d_g=6, max_epochs=5, seed=7)
        _, metrics = training.train_iog(cfg, train, valid, base, g)
        assert [m["epoch"] for m in metrics] == [1, 2, 3, 4, 5]
        for e, record in enumerate(metrics, 1):
            assert set(record) == {"epoch", "lr", "train_ppl", "valid_ppl", "wall_seconds"}
            assert record["lr"] == pytest.approx(0.001 / math.sqrt(e), abs=1e-15)


class TestVariantComparison:
    def test_three_row_table_with_exact_deltas(self):
        rng = np.random.default_rng(21)
        train = rng.integers(0, 15, size=600)
        valid = rng.integers(0, 15, size=150)
        test = rng.integers(0, 15, size=150)
        base = model.init_params(15, 8, 8, seed=22)
        cfg = training.iog_config(batch_size=4, bptt_length=5, max_epochs=1, d_g=6, seed=23)
        rows = training.run_variant_comparison(
            base, train, valid, test, ["input_only", "with_hidden", "lstm_gate"], cfg
        )
        assert [r["variant"] for r in rows] == ["input_only", "with_hidden", "lstm_gate"]
        assert rows[0]["delta_vs_input_only"] == 0
        assert rows[1]["delta_vs_input_only"] == 15 * 8        # V * D_h
        assert rows[2]["delta_vs_input_only"] == 8 * 6 * 6 + 4 * 6  # gate LSTM
        table = training.format_comparison_table(rows)
        assert len(table.splitlines()) == 4

    def test_single_variant_single_row(self):
        rng = np.random.default_rng(24)
        train = rng.integers(0, 12, size=400)
        valid = rng.integers(0, 12, size=100)
        base = model.init_params(12, 6, 6, seed=25)
        cfg = training.iog_config(batch_size=4, bptt_length=5, max_epochs=1, d_g=4, seed=26)
        rows = training.run_variant_comparison(base, train, valid, valid, ["input_only"], cfg)
        assert len(rows) == 1

    def test_identical_seeds_identical_rows(self):
        rng = np.random.default_rng(27)
        train = rng.integers(0, 12, size=400)
        valid = rng.integers(0, 12, size=100)
        base = model.init_params(12, 6, 6, seed=28)
        cfg = training.iog_config(batch_size=4, bptt_length=5, max_epochs=1, d_g=4, seed=29)
        rows_a = training.run_variant_comparison(base, train, valid, valid, ["input_only"], cfg)
        rows_b = training.run_variant_comparison(base, train, valid, valid, ["input_only"], cfg)
        assert rows_a == rows_b
