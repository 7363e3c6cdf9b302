import math

import numpy as np
import pytest

import helpers
from ioglm import kernels


class TestMatvec:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(helpers.matvec(np.eye(3), v), v)

    def test_zero_matrix_annihilates(self):
        out = helpers.matvec(np.zeros((2, 3)), np.array([5.0, -1.0, 2.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_hand_multiplication(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = helpers.matvec(m, np.array([1.0, 1.0]))
        assert np.allclose(out, [3.0, 7.0])

    def test_dimension_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2,\)"):
            helpers.matvec(np.zeros((2, 3)), np.zeros(2))

    def test_distributes_over_addition(self):
        # float32 instances, checked at the precision the storage supports
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = rng.standard_normal((64, 64)).astype(np.float32)
            a = rng.standard_normal(64).astype(np.float32)
            b = rng.standard_normal(64).astype(np.float32)
            lhs = helpers.matvec(m, a + b)
            rhs = helpers.matvec(m, a) + helpers.matvec(m, b)
            assert np.max(np.abs(lhs - rhs)) < 1e-5


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        p, nll = kernels.softmax_stable(np.zeros(3), 1)
        assert np.allclose(p, np.full(3, 1 / 3))
        assert nll == pytest.approx(math.log(3), abs=1e-15)

    def test_shift_invariance(self):
        s = np.array([0.3, -2.0, 5.0, 1.1])
        a, nll_a = kernels.softmax_stable(s, 2)
        b, nll_b = kernels.softmax_stable(s + 1000.0, 2)
        assert np.max(np.abs(a - b)) < 1e-12
        assert abs(nll_a - nll_b) < 1e-12

    def test_matches_direct_exponentiation_oracle(self):
        s = np.array([1.0, 2.0, 3.0])
        e = np.exp(s.astype(np.float64))
        p, nll = kernels.softmax_stable(s, 0)
        assert np.max(np.abs(p - e / e.sum())) < 1e-7
        assert abs(nll + math.log(e[0] / e.sum())) < 1e-12

    def test_random_vectors_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = rng.uniform(-50.0, 50.0, size=rng.integers(2, 40))
            t = rng.integers(s.size)
            p, nll = kernels.softmax_stable(s, t)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0)
            c = rng.uniform(-1000.0, 1000.0)
            shifted_p, shifted_nll = kernels.softmax_stable(s + c, t)
            assert np.max(np.abs(p - shifted_p)) < 1e-12
            assert abs(nll - shifted_nll) < 1e-9
            assert kernels.log_softmax(s + c, t) == pytest.approx(-nll, abs=1e-9)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(kernels.NonFiniteError, match="^softmax input must be finite$"):
            kernels.softmax_stable(np.array([0.0, np.inf]), 0)
        with pytest.raises(kernels.NonFiniteError, match="^log_softmax input must be finite$"):
            kernels.log_softmax(np.array([0.0, np.nan]), 0)
        with pytest.raises(kernels.NonFiniteError):
            kernels.softmax_stable(np.array([[0.0, np.nan], [1.0, 2.0]]), np.array([0, 1]))
        with pytest.raises(kernels.NonFiniteError):
            kernels.log_softmax(np.array([[0.0, 1.0], [-np.inf, 2.0]]), np.array([0, 1]))

    @pytest.mark.parametrize("shape", [(16, 402), (20, 10_000), (55, 402), (128, 10_000)])
    def test_nll_is_the_negated_log_softmax_and_p_the_plain_softmax(self, shape):
        # training rows and eval chunks at desk and ptb widths, bit for bit
        rng = np.random.default_rng(shape[1])
        s = (4.0 * rng.standard_normal(shape)).astype(np.float32)
        targets = rng.integers(0, shape[1], size=shape[0])
        p, nll = kernels.softmax_stable(s, targets)
        lp = kernels.log_softmax(s, targets)
        assert nll.dtype == lp.dtype == np.float64 and lp.shape == (shape[0],)
        assert np.array_equal(lp, helpers.log_softmax(s)[np.arange(shape[0]), targets])
        assert np.array_equal(nll, -lp)
        assert np.array_equal(p, helpers.softmax(s))

    def test_nll_stays_finite_where_p_underflows(self):
        s, t = np.array([[0.0, -1000.0, 5.0]]), np.array([1])
        p, nll = kernels.softmax_stable(s, t)
        assert p[0, 1] == 0.0  # so -log(p) would be inf
        assert np.isfinite(nll[0])
        assert nll[0] == pytest.approx(1005.0067153, abs=1e-6)
        assert kernels.log_softmax(s, t)[0] == -nll[0]


class TestSigmoid:
    def test_zero_gives_half(self):
        assert kernels.sigmoid(np.array([0.0]))[0] == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-30, 30, size=200)
        total = kernels.sigmoid(x) + kernels.sigmoid(-x)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_direct_evaluation_oracle(self):
        out = kernels.sigmoid(np.array([4.0]))[0]
        assert abs(out - 1.0 / (1.0 + math.exp(-4.0))) < 1e-12
        assert abs(out - 0.9820137900) < 1e-9

    def test_open_interval_for_moderate_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, size=500)
        out = kernels.sigmoid(x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_overflow_safe_at_extreme_inputs(self):
        # gradual underflow to 0 is fine; overflow or invalid ops are not
        with np.errstate(over="raise", invalid="raise"):
            out = kernels.sigmoid(np.array([1e3, -1e3, 500.0, -500.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(kernels.NonFiniteError, match="^sigmoid input must be finite$"):
            kernels.sigmoid(np.array([0.0, np.nan]))

    def test_integer_input_computes_in_float64(self):
        out = kernels.sigmoid(np.array([-3, 0, 2]))
        assert out.dtype == np.float64
        assert np.array_equal(out, kernels.sigmoid(np.array([-3.0, 0.0, 2.0])))

    def test_float32_in_float32_out_and_0d_stays_0d(self):
        x = np.linspace(-5, 5, 11, dtype=np.float32).reshape(1, 11)
        out = kernels.sigmoid(x)
        assert out.dtype == np.float32 and out.shape == (1, 11)
        scalar = kernels.sigmoid(np.float32(0.5))
        assert scalar.dtype == np.float32 and np.ndim(scalar) == 0
        assert float(scalar) == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), rel=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 128), (16, 128), (20, 800), (1, 1200)])
    def test_in_place_form_is_the_public_formula(self, dtype, shape):
        # the LSTM step's unchecked form, at the desk and ptb cell widths
        # and the D_g=300 gate's, eval lane and training block
        x = (8.0 * np.random.default_rng(shape[1]).standard_normal(shape)).astype(dtype)
        out = np.empty_like(x)
        assert kernels._sigmoid(x, out) is out
        assert np.array_equal(out, kernels.sigmoid(x))
        assert np.array_equal(out, 0.5 * np.tanh(0.5 * x) + 0.5)

    def test_extreme_float32_raises_no_floating_point_error(self):
        x = np.array([1e3, -1e3, 100.0, -100.0, 0.0], dtype=np.float32)
        with np.errstate(all="raise"):
            out = kernels.sigmoid(x)
        assert out.dtype == np.float32
        assert out.tolist()[:2] == [1.0, 0.0]
        assert out[3] == pytest.approx(0.0) and out[4] == 0.5

    @pytest.mark.parametrize("dtype, bound", [(np.float32, 2.0 ** -23), (np.float64, 2.0 ** -52)])
    def test_dense_grid_against_extended_precision_oracle(self, dtype, bound):
        grid = np.concatenate([np.linspace(-1e3, 1e3, 200001), np.linspace(-40, 40, 80001),
                               [-1e3, -88.0, -30.0, 30.0, 88.0, 1e3]])
        x = np.unique(grid.astype(dtype))
        with np.errstate(all="raise"):
            out = kernels.sigmoid(x)
            mirrored = kernels.sigmoid(-x)
        assert out.dtype == dtype
        oracle = 1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))
        assert np.max(np.abs(out - oracle)) <= bound
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(np.diff(out) >= 0)
        total = out.astype(np.float64) + mirrored.astype(np.float64)
        assert np.max(np.abs(total - 1.0)) <= bound


class TestCrossEntropy:
    def test_uniform(self):
        p = np.full(4, 0.25)
        for target in range(4):
            assert helpers.cross_entropy(p, target) == pytest.approx(math.log(4), abs=1e-12)

    def test_certainty(self):
        p = np.array([0.0, 1.0, 0.0])
        assert helpers.cross_entropy(p, 1) == 0.0

    def test_direct_evaluation(self):
        p = np.array([0.1, 0.7, 0.2])
        assert helpers.cross_entropy(p, 1) == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            helpers.cross_entropy(np.full(4, 0.25), 4)

    def test_logit_form_matches_probability_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.uniform(-5, 5, size=12)
            p = helpers.softmax(s)
            t = int(rng.integers(12))
            assert helpers.cross_entropy_from_logits(s, t) == pytest.approx(
                helpers.cross_entropy(p, t), abs=1e-10
            )


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        grad = helpers.finite_difference_gradient(lambda t: float(t[0] ** 2), np.array([3.0]))
        assert abs(grad[0] - 6.0) < 1e-6

    def test_constant_loss_gives_zero(self):
        grad = helpers.finite_difference_gradient(lambda t: 7.5, np.arange(5.0))
        assert np.array_equal(grad, np.zeros(5))

    def test_log_sum_exp_closed_form(self):
        theta = np.array([0.1, -0.7, 1.3, 0.4])

        def loss(t):
            return float(np.log(np.exp(t).sum()))

        grad = helpers.finite_difference_gradient(loss, theta)
        assert np.max(np.abs(grad - helpers.softmax(theta))) < 1e-6

    def test_nondeterministic_loss_rejected(self):
        calls = [0.0]

        def noisy(t):
            calls[0] += 1.0
            return calls[0]

        with pytest.raises(ValueError, match="deterministic"):
            helpers.finite_difference_gradient(noisy, np.zeros(2))

    def test_coordinate_sampling(self):
        theta = np.arange(1.0, 7.0)
        grad = helpers.finite_difference_gradient(
            lambda t: float((t ** 2).sum()), theta, coords=[0, 3, 5]
        )
        assert np.allclose(grad, [2.0, 8.0, 12.0], atol=1e-6)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            helpers.finite_difference_gradient(lambda t: 0.0, np.zeros(1), epsilon=0.0)


class TestPackUnpack:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        named = {
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(7),
        }
        flat, spec = helpers.pack_arrays(named)
        assert flat.shape == (19,)
        back = helpers.unpack_arrays(flat, spec)
        for key in named:
            assert back[key].dtype == named[key].dtype
            assert np.array_equal(back[key], named[key])
