import hashlib
import json
import math

import numpy as np
import pytest

import helpers
from ioglm import evaluate, gate, kernels, model, training


def uniform_model(vocab_size, d=4):
    p = model.init_params(vocab_size, d, d, cell_kind="elman", seed=0)
    for arr in p.named_arrays().values():
        arr[...] = 0.0
    return p


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 50, size=3000)
        report = evaluate.perplexity(uniform_model(50), stream)
        assert abs(report.perplexity - 50.0) < 1e-6
        assert report.tokens == 2999

    def test_first_token_conditioned_never_scored(self):
        p = model.init_params(10, 6, 6, seed=1)
        stream = np.array([3, 7, 1, 4])
        report = evaluate.perplexity(p, stream)
        assert report.tokens == 3
        # manual stepwise NLL over targets stream[1:]
        st = model.initial_state(p)
        nll = 0.0
        for t in range(3):
            logits, st, _ = model.forward_step(p, st, stream[None, t:t + 1])
            nll += helpers.cross_entropy_from_logits(logits[0, 0], int(stream[t + 1]))
        assert report.nll == pytest.approx(nll, rel=1e-12)
        assert report.perplexity == pytest.approx(math.exp(nll / 3), rel=1e-12)

    @pytest.mark.parametrize("vocab_size,d,n", [(10_000, 200, 128), (402, 32, 55)])
    def test_single_chunk_nll_is_the_negated_sum_of_oracle_target_picks(self, vocab_size, d, n):
        # float32 models at the ptb and desk widths, one chunk of n targets
        rng = np.random.default_rng(n)
        p = model.init_params(vocab_size, d, d, seed=n)
        stream = rng.integers(0, vocab_size, size=n + 1)
        tops, _ = model.hidden_sequence(p, stream[:-1], model.initial_state(p, 1))
        logits = tops @ p.out_weight.T + p.out_bias
        picks = helpers.log_softmax(logits)[np.arange(n), stream[1:]]
        report = evaluate.perplexity(p, stream)
        assert report.tokens == n
        assert report.nll == -float(picks.sum())

    def test_overfit_model_approaches_one(self):
        stream = np.arange(240) % 12
        params = model.init_params(12, 16, 16, seed=2)
        cfg = training.TrainConfig(
            phase="base", batch_size=2, bptt_length=12, max_epochs=60,
            optimizer="adam", initial_lr=0.01, lr_schedule="constant", seed=2,
        )
        best, _ = training.train_base(cfg, stream, stream, params)
        assert evaluate.perplexity(best, stream).perplexity < 1.05

    def test_identity_gate_equals_ungated(self):
        rng = np.random.default_rng(3)
        p = model.init_params(30, 8, 8, seed=3)
        g = gate.init_gate(30, d_g=6, seed=4)
        stream = rng.integers(0, 30, size=500)
        gated = evaluate.perplexity(p, stream, gate=g, identity_gate=True)
        plain = evaluate.perplexity(p, stream)
        assert gated.perplexity == pytest.approx(plain.perplexity, abs=1e-9)

    def test_gate_changes_result_when_not_identity(self):
        rng = np.random.default_rng(4)
        p = model.init_params(30, 8, 8, seed=5)
        g = gate.init_gate(30, d_g=6, seed=6, weight_scale=0.3, bias_init=0.0)
        stream = rng.integers(0, 30, size=300)
        gated = evaluate.perplexity(p, stream, gate=g)
        plain = evaluate.perplexity(p, stream)
        assert gated.perplexity != pytest.approx(plain.perplexity, abs=1e-9)

    def test_chunked_equals_stepwise(self):
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 25, size=700)
        p = model.init_params(25, 10, 10, layers=2, seed=7)
        for variant, d_h in ((None, None), ("input_only", None),
                             ("with_hidden", 10), ("lstm_gate", None)):
            g = (
                gate.init_gate(25, d_g=5, variant=variant, d_h=d_h, seed=8,
                               weight_scale=0.2, bias_init=0.5)
                if variant
                else None
            )
            sequential = evaluate.perplexity(p, stream, gate=g, chunk=1)
            chunked = evaluate.perplexity(p, stream, gate=g, chunk=64)
            rel = abs(chunked.perplexity - sequential.perplexity) / sequential.perplexity
            assert rel < 1e-4, f"variant={variant}: {rel}"

    def test_stream_too_short(self):
        with pytest.raises(ValueError):
            evaluate.perplexity(uniform_model(5), np.array([1]))

    def test_report_json_schema(self):
        rng = np.random.default_rng(6)
        report = evaluate.perplexity(uniform_model(9), rng.integers(0, 9, size=50))
        data = json.loads(report.to_json())
        assert set(data) == {"tokens", "nll", "perplexity"}
        assert data["perplexity"] >= 1.0

    def test_overflowing_mean_nll_reports_infinite_perplexity(self):
        # a 1e4 logit on token 0, never a target: the mean NLL is about 1e4,
        # far above log(float max) ~ 709.78
        p = uniform_model(8)
        p.out_bias[0] = 1e4
        stream = np.arange(40) % 7 + 1
        report = evaluate.perplexity(p, stream)
        assert report.perplexity == math.inf
        assert report.nll == pytest.approx(39 * 1e4)
        report = evaluate.ensemble_perplexity([p, p], stream)
        assert report.perplexity == math.inf and math.isfinite(report.nll)
        assert [m["perplexity"] for m in report.members] == [math.inf, math.inf]

    def test_infinite_elman_weight_raises(self):
        # tanh would saturate it, and the perplexity would read finite
        p = model.init_params(10, 6, 6, cell_kind="elman", seed=3)
        p.cells[0]["w_xh"][0, 0] = np.inf
        stream = np.random.default_rng(4).integers(0, 10, size=40)
        with pytest.raises(kernels.NonFiniteError, match="recurrent pre-activation"):
            evaluate.perplexity(p, stream, chunk=16)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected(self, chunk):
        p = model.init_params(6, 4, 4, seed=1)
        with pytest.raises(ValueError, match=f"^chunk must be positive, got {chunk}$"):
            evaluate.perplexity(p, np.array([1, 2, 3]), chunk=chunk)

    def test_no_members_rejected(self):
        with pytest.raises(ValueError, match="^no models to evaluate$"):
            evaluate.ensemble_perplexity([], np.array([1, 2, 3]))

    @pytest.mark.parametrize("last", [-1, 6])
    def test_out_of_range_last_target_rejected(self, last):
        p = model.init_params(6, 4, 4, seed=1)
        with pytest.raises(ValueError, match="target index out of range"):
            evaluate.perplexity(p, np.array([1, 2, 3, last]))
        with pytest.raises(ValueError, match="target index out of range"):
            evaluate.ensemble_perplexity([p, p], np.array([1, 2, 3, last]))

    def test_with_hidden_gate_of_another_width_rejected(self):
        stream = np.random.default_rng(2).integers(0, 12, size=40)
        base = model.init_params(12, 8, 8, seed=3)
        g = gate.init_gate(12, d_g=5, variant="with_hidden", d_h=6, seed=4)
        with pytest.raises(ValueError, match=r"gate\.d_h=6, but the base has d_h=8"):
            evaluate.perplexity(base, stream, gate=g)
        with pytest.raises(ValueError, match=r"gate\.d_h=6, but the base has d_h=8"):
            evaluate.ensemble_perplexity([base, base], stream, gate=g)


class TestEnsembleDistribution:
    def test_idempotent_on_identical_members(self):
        p = helpers.softmax(np.random.default_rng(7).uniform(-3, 3, size=20))
        out = helpers.ensemble_distribution([p, p, p])
        assert np.max(np.abs(out - p)) < 1e-12

    def test_symmetry(self):
        out = helpers.ensemble_distribution([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(out, [0.5, 0.5])

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(8)
        members = [helpers.softmax(rng.uniform(-4, 4, size=15)) for _ in range(3)]
        expected = (members[0] + members[1] + members[2]) / 3.0
        out = helpers.ensemble_distribution(members)
        assert np.max(np.abs(out - expected)) < 1e-12
        assert abs(out.sum() - 1.0) < 1e-9

    def test_rejects_bad_members(self):
        with pytest.raises(ValueError):
            helpers.ensemble_distribution([])
        with pytest.raises(ValueError):
            helpers.ensemble_distribution([np.array([0.5, 0.5]), np.array([0.2, 0.2])])
        with pytest.raises(ValueError):
            helpers.ensemble_distribution([np.array([0.5, 0.5]), np.array([1.0])])


class TestEnsemblePerplexity:
    def _members(self, count, seed=0, vocab_size=18):
        return [model.init_params(vocab_size, 8, 8, seed=seed + i) for i in range(count)]

    def test_single_member_equals_plain_eval(self):
        rng = np.random.default_rng(9)
        stream = rng.integers(0, 18, size=400)
        (member,) = self._members(1, seed=10)
        g = gate.init_gate(18, d_g=5, seed=11, weight_scale=0.3, bias_init=0.0)
        single = evaluate.perplexity(member, stream, gate=g)
        ens = evaluate.ensemble_perplexity([member], stream, gate=g)
        assert ens.perplexity == single.perplexity
        assert ens.nll == single.nll
        assert len(ens.members) == 1

    def test_jensen_bound_on_random_models(self):
        rng = np.random.default_rng(12)
        stream = rng.integers(0, 18, size=1000)
        for m in (2, 5):
            members = self._members(m, seed=13)
            report = evaluate.ensemble_perplexity(members, stream)
            mean_member_nll = sum(r["nll"] for r in report.members) / m
            assert report.nll <= mean_member_nll + 1e-9

    def test_jensen_bound_with_shared_gate(self):
        rng = np.random.default_rng(14)
        stream = rng.integers(0, 18, size=600)
        members = self._members(3, seed=15)
        g = gate.init_gate(18, d_g=5, seed=16, weight_scale=0.4, bias_init=0.0)
        report = evaluate.ensemble_perplexity(members, stream, gate=g)
        mean_member_nll = sum(r["nll"] for r in report.members) / 3
        assert report.nll <= mean_member_nll + 1e-9
        assert report.perplexity <= max(r["perplexity"] for r in report.members) + 1e-9

    def test_identity_gate_ensemble_equals_ungated(self):
        stream = np.random.default_rng(21).integers(0, 18, size=300)
        members = self._members(2, seed=22)
        g = gate.init_gate(18, d_g=5, seed=23, weight_scale=0.4, bias_init=0.0)
        forced = evaluate.ensemble_perplexity(members, stream, gate=g, identity_gate=True)
        assert forced.to_dict() == evaluate.ensemble_perplexity(members, stream).to_dict()

    def test_identical_gate_applied_to_every_member(self):
        rng = np.random.default_rng(17)
        stream = rng.integers(0, 18, size=200)
        members = self._members(3, seed=18)
        for variant in ("input_only", "lstm_gate"):
            g = gate.init_gate(18, d_g=5, variant=variant, seed=19,
                               weight_scale=0.3, bias_init=0.5)
            seen = {}
            def probe(t, member, vec):
                digest = hashlib.sha256(np.ascontiguousarray(vec).tobytes()).hexdigest()
                seen.setdefault(t, set()).add(digest)
            evaluate.ensemble_perplexity(members, stream, gate=g, chunk=32, gate_probe=probe)
            assert len(seen) == 199
            assert all(len(digests) == 1 for digests in seen.values())

    def test_lstm_gate_vectors_do_not_depend_on_chunk(self):
        stream = np.random.default_rng(24).integers(0, 18, size=200)
        members = self._members(2, seed=25)
        g = gate.init_gate(18, d_g=5, variant="lstm_gate", seed=26,
                           weight_scale=0.3, bias_init=0.5)
        by_chunk = {}
        for chunk in (64, 1):
            rows = by_chunk[chunk] = {}
            def probe(t, member, vec):
                rows[(t, member)] = np.array(vec, dtype=np.float64)
            evaluate.ensemble_perplexity(members, stream, gate=g, chunk=chunk, gate_probe=probe)
        assert len(by_chunk[64]) == len(by_chunk[1]) == 2 * 199
        worst = max(np.max(np.abs(v - by_chunk[1][key])) for key, v in by_chunk[64].items())
        assert worst < 1e-6

    def test_vocab_mismatch_rejected(self):
        rng = np.random.default_rng(20)
        stream = rng.integers(0, 10, size=100)
        members = [model.init_params(10, 4, 4, seed=1), model.init_params(11, 4, 4, seed=2)]
        with pytest.raises(ValueError, match="vocabulary"):
            evaluate.ensemble_perplexity(members, stream)
