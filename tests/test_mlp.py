"""SplitMix64 PRNG, the 10-2-1 net, and Levenberg-Marquardt training."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

import nadpcm
from conftest import formant_utterance, linear_ar, nonlinear_ar
from nadpcm import CodecConfig, mlp as mlp_module
from nadpcm.audio import split_frames
from nadpcm.lpc import KERNEL_UNROLL
from nadpcm.mlp import (
    EPOCHS,
    GOLDEN_GAMMA,
    INIT_SCALE,
    LAMBDA_DOWN,
    LAMBDA_INIT,
    LAMBDA_UP,
    MASK64,
    Mlp,
    N_HIDDEN,
    N_INPUTS,
    N_PARAMS,
    RESTARTS,
    SplitMix64,
    build_training_set,
    forward_batch,
    init_mlp,
    lm_epoch,
    lm_iterations,
    lm_stack_iterations,
    multistart_fit,
    output_batch,
    residual_jacobian,
    restart_seed,
    solve_output_layer,
)


def reference_splitmix64(seed):
    """Independent SplitMix64 for cross-checking the production PRNG."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def batch_sse(net, x, t):
    r = t - forward_batch(net.theta, x)[1]
    return float(r @ r)


def solved_draw(seeds, x, t):
    """The starting stack of `lm_stack_iterations`: `init_mlp`'s draw with
    each row's output layer solved on its hidden activations."""
    theta = init_mlp(seeds)
    return solve_output_layer(theta, forward_batch(theta, x)[0], t)


def reference_run(frame, seed, epochs):
    """(net, sse) after each LM epoch, chained by hand from the solved draw
    and lm_epoch on a stack of one net, as an oracle for lm_iterations and
    multistart_fit."""
    x, t = build_training_set(frame)
    theta = solved_draw([seed], x, t)
    lam = np.array([mlp_module.LAMBDA_INIT])
    steps = []
    for _ in range(epochs):
        theta, lam, err, _ = lm_epoch(theta, x, t, lam)
        steps.append((Mlp(theta[0]), float(err[0])))
    return steps


def reference_forward(net, newest_first):
    """The net's output in the `mlp` docstring's order, written as loops on
    Python floats: each hidden unit summed from 0.0 over w_j0 * x0, ...,
    w_j9 * x9 (newest input first), then b_j; the sigmoid with `math.exp`,
    0.0 where exp(-a) overflows; then v0 * h0 + v1 * h1 + c."""
    theta = net.theta.tolist()
    x = [float(v) for v in newest_first]
    h = []
    for j in range(N_HIDDEN):
        a = 0.0
        for i in range(N_INPUTS):
            a = a + theta[j * N_INPUTS + i] * x[i]
        a = a + theta[20 + j]
        try:
            h.append(1.0 / (1.0 + math.exp(-a)))
        except OverflowError:
            h.append(0.0)
    return theta[22] * h[0] + theta[23] * h[1] + theta[24]


def same_bits(a, b):
    """a and b are the same float: equal with the same sign, or both NaN."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def seeded_net(seed, scale=0.5):
    """The net of a one-row `init_mlp` stack drawn with INIT_SCALE = scale."""
    return Mlp(SplitMix64.uniform_rows([seed], -scale, scale, N_PARAMS)[0])


class TestSplitMix64:
    def test_known_vectors_seed_zero(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_matches_reference_for_random_seeds(self):
        for seed in (1, 42, 2**63, 0xDEADBEEF, 2**64 - 1):
            rng = SplitMix64(seed)
            ref = reference_splitmix64(seed)
            for _ in range(100):
                assert rng.next_u64() == next(ref)

    def test_same_seed_same_sequence(self):
        a, b = SplitMix64(9), SplitMix64(9)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)])
    def test_numpy_integer_seed(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng = SplitMix64(seed)
            draws = [rng.next_u64() for _ in range(8)]
        ref = SplitMix64(5)
        assert draws == [ref.next_u64() for _ in range(8)]

    @pytest.mark.parametrize("seed", [5.0, "5"])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            SplitMix64(seed)

    def test_uniform_range_and_mean(self):
        rng = SplitMix64(7)
        draws = np.array([rng.uniform(0.0, 1.0) for _ in range(20000)])
        assert np.all((draws >= 0.0) & (draws < 1.0))
        assert abs(draws.mean() - 0.5) < 0.01

    def test_uniform_tight_interval(self):
        rng = SplitMix64(1)
        for _ in range(100):
            v = rng.uniform(0.25, 0.25 + 1e-9)
            assert 0.25 <= v < 0.25 + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -1, np.int64(5), np.uint64(2**63)],
                             ids=["0", "1", "2**64-1", "-1", "int64(5)", "uint64(2**63)"])
    @pytest.mark.parametrize("lo, hi", [(-0.5, 0.5), (0.0, 1.0), (-3.0, 7.25),
                                        (0.25, 0.25 + 1e-9)])
    def test_block_draw_equals_scalar_draws(self, seed, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # uint64 wraparound must not warn
            values = SplitMix64.uniform_rows([seed], lo, hi, N_PARAMS)
        scalar = SplitMix64(seed)
        expected = [scalar.uniform(lo, hi) for _ in range(N_PARAMS)]
        assert values.dtype == np.float64 and values.shape == (1, N_PARAMS)
        assert values.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (0.0, float("nan"))])
    def test_block_draw_refuses_empty_interval(self, lo, hi):
        with pytest.raises(ValueError, match="need lo < hi"):
            SplitMix64.uniform_rows([3], lo, hi, 4)


class TestInitMlp:
    """`init_mlp(seeds)` draws the (R, 25) starting stack at once: row i
    is, by `float.hex`, 25 calls of `SplitMix64(seeds[i]).uniform(
    -INIT_SCALE, INIT_SCALE)`."""

    SEEDS = (0, 2**64 - 1, np.int64(5), np.uint64(2**63), 1, -1, 0xDEADBEEF)

    @pytest.mark.parametrize("rows", [1, 4, 7])
    @pytest.mark.parametrize("scale", [0.5, 8.0, 1e-9])
    def test_rows_equal_scalar_draws(self, monkeypatch, rows, scale):
        monkeypatch.setattr(mlp_module, "INIT_SCALE", scale)
        # every seed is drawn in every position of a stack of each size
        for start in range(len(self.SEEDS)):
            seeds = (self.SEEDS[start:] + self.SEEDS[:start])[:rows]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # uint64 wraparound must not warn
                stack = init_mlp(seeds)
            assert stack.dtype == np.float64 and stack.shape == (rows, N_PARAMS)
            for seed, row in zip(seeds, stack.tolist()):
                rng = SplitMix64(seed)
                expected = [rng.uniform(-scale, scale) for _ in range(N_PARAMS)]
                assert [v.hex() for v in row] == [v.hex() for v in expected], (seed, rows)

    @pytest.mark.parametrize("seed", [True, 2.5, "5", None])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            init_mlp([0, seed])


class TestMlpStructure:
    def test_parameter_count(self):
        assert N_PARAMS == 25

    def test_vector_order_is_normative(self):
        # w_in row-major (hidden 0 then hidden 1), hidden biases, output
        # weights, output bias
        theta = np.arange(25, dtype=np.float64)
        net = Mlp(theta)
        np.testing.assert_array_equal(net.theta, theta)
        np.testing.assert_array_equal(net.w_in[0], np.arange(10))
        np.testing.assert_array_equal(net.w_in[1], np.arange(10, 20))
        # with zero inputs, the output is v0 * sigma(b0) + v1 * sigma(b1) + c
        net = Mlp(np.r_[np.zeros(20), 2.0, -1.0, 0.5, 0.25, 3.0])
        expected = 0.5 * expit(2.0) + 0.25 * expit(-1.0) + 3.0
        assert net.predict(np.zeros(10)) == pytest.approx(expected, rel=1e-15)

    def test_vector_round_trip(self):
        net = seeded_net(3)
        np.testing.assert_array_equal(Mlp(net.theta).theta, net.theta)
        assert Mlp(net.theta.tolist()).theta.dtype == np.float64

    def test_net_unchanged_when_input_array_mutated(self):
        theta = np.linspace(-0.5, 0.5, 25)
        net = Mlp(theta)
        before = net.predict(np.ones(10))
        theta[:] = 7.0
        np.testing.assert_array_equal(net.theta, np.linspace(-0.5, 0.5, 25))
        assert net.w_in[0, 0] == -0.5
        assert net.predict(np.ones(10)) == before
        with pytest.raises(ValueError):
            net.theta[0] = 7.0  # the parameters are read-only

    @pytest.mark.parametrize("shape", [(24,), (26,), (5, 5), ()])
    def test_wrong_parameter_count_refused(self, shape):
        with pytest.raises(ValueError, match="need 25 parameters"):
            Mlp(np.zeros(shape))

    def test_init_range_and_draw_count(self):
        stack = init_mlp(range(40))
        assert stack.shape == (40, N_PARAMS)
        assert np.all((stack >= -0.5) & (stack < 0.5))
        # each row is the first 25 draws of its seed's stream
        rng = SplitMix64(39)
        assert stack[-1].tolist() == [rng.uniform(-0.5, 0.5) for _ in range(N_PARAMS)]


class TestMlpEquality:
    def test_equal_parameters_equal_nets(self):
        net = seeded_net(3)
        same = Mlp(net.theta.tolist())
        assert Mlp.zero() == Mlp.zero() and hash(Mlp.zero()) == hash(Mlp.zero())
        assert net == same and hash(net) == hash(same)
        assert len({net, same, Mlp.zero()}) == 2

    def test_any_bit_differs(self):
        net = seeded_net(3)
        theta = net.theta.copy()
        theta[24] = np.nextafter(theta[24], np.inf)
        assert net != Mlp(theta)
        assert Mlp.zero() != Mlp(-np.zeros(N_PARAMS))  # the bytes of -0.0 differ

    def test_other_types_are_not_equal(self):
        net = Mlp.zero()
        assert net != net.theta.tobytes() and net != None  # noqa: E711
        assert (net == 0) is False


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = Mlp.zero()
        assert net.predict(np.zeros(10)) == 0.0

    def test_unit_output_weights_on_zero_net(self):
        net = Mlp(np.r_[np.zeros(22), 1.0, 1.0, 0.0])
        assert net.predict(np.zeros(10)) == pytest.approx(1.0)  # sigma(0) twice

    def test_matches_hand_formula(self):
        net = seeded_net(5)
        x = np.linspace(-0.4, 0.4, 10)  # newest first
        h = expit(net.w_in @ x + net.theta[20:22])
        expected = float(net.theta[22:24] @ h + net.theta[24])
        assert net.predict(x[::-1]) == pytest.approx(expected, rel=1e-15)

    def test_predict_uses_newest_first(self):
        net = seeded_net(6)
        history = np.linspace(-0.3, 0.3, 25)  # newest stored last
        expected = reference_forward(net, history[-1:-11:-1])
        assert net.predict(history) == expected
        assert net.predict(history[::-1]) != expected

    @pytest.mark.parametrize("history", [
        list(np.linspace(-0.3, 0.3, 25)),
        np.linspace(-0.3, 0.3, 25),
        np.linspace(-0.3, 0.3, 25).astype(np.float32),
        tuple(np.linspace(-0.3, 0.3, 25).tolist()),
    ], ids=["list", "float64", "float32", "tuple"])
    def test_predict_returns_python_float(self, history):
        # the closed loop feeds predictions back into its history; a numpy
        # scalar there makes every later loop operation a numpy one
        net = seeded_net(6)
        newest_first = np.asarray(history, dtype=np.float64)[-1:-11:-1]
        p = net.predict(history)
        assert type(p) is float
        assert same_bits(p, reference_forward(net, newest_first))

    def test_forward_batch_matches_scalar(self):
        net = seeded_net(12)
        x = np.array([np.linspace(-0.2, 0.2, 10), np.linspace(0.3, -0.1, 10)])
        h, batch = forward_batch(net.theta, x)
        np.testing.assert_allclose(h, expit(x @ net.w_in.T + net.theta[20:22]), rtol=1e-15)
        assert batch[0] == pytest.approx(net.predict(x[0][::-1]), rel=1e-15)
        assert batch[1] == pytest.approx(net.predict(x[1][::-1]), rel=1e-15)

    def test_batch_sigmoid_on_extreme_pre_activations(self):
        # with zero inputs each hidden unit's pre-activation is its bias;
        # pytest turns an overflow or invalid-value RuntimeWarning into an error
        a = np.r_[np.inf, -np.inf, 1e300, -1e300, -800.0, -709.9, -40.0, 0.0, 36.8, 37.0, np.nan,
                  np.linspace(-700.0, 700.0, 2801)]
        theta = np.zeros((len(a) // 2, N_PARAMS))
        theta[:, 20:22] = a.reshape(-1, 2)
        h = forward_batch(theta, np.zeros((1, N_INPUTS)))[0][:, 0, :].ravel()
        number = ~np.isnan(a)
        assert np.isnan(h[~number]).all()
        assert ((h[number] >= 0.0) & (h[number] <= 1.0)).all()
        assert (h[a >= 37.0] == 1.0).all()
        # below the clamp h stays at 1 / (1 + exp(709.0)), where the kernel reaches 0.0
        assert (0.0 < h[a < -709.0]).all() and (h[a < -709.0] < 1e-307).all()
        core = (a >= -700.0) & (a <= 700.0)
        np.testing.assert_allclose(h[core], [1.0 / (1.0 + math.exp(-v)) for v in a[core]],
                                   rtol=1e-15)


class TestPredictions:
    """The closed loop's generator against `reference_forward`, bit for bit,
    with each sample it is sent appended to the history."""

    @staticmethod
    def run(net, history, sent):
        """Pairs (prediction, reference) over len(sent) sends."""
        window = list(history)
        predictions = net.predictions(history)
        pairs = [(next(predictions), reference_forward(net, window[-1:-11:-1]))]
        for xr in sent:
            window.append(xr)
            pairs.append((predictions.send(xr), reference_forward(net, window[-1:-11:-1])))
        return pairs

    @pytest.mark.parametrize("scale", [0.5, 3.0, 1e4, 1e100, 1e300])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_forward(self, seed, scale):
        rng = np.random.default_rng(seed)
        net = Mlp(rng.standard_normal(N_PARAMS) * scale)
        history = tuple((0.3 * rng.standard_normal(25)).tolist())
        sent = (0.3 * rng.standard_normal(300)).tolist()
        pairs = self.run(net, history, sent)
        assert len(pairs) == 301
        assert all(type(p) is float and same_bits(p, ref) for p, ref in pairs)
        if scale >= 1e4:
            # large weights drive some hidden pre-activation below -745, where
            # exp(-a) overflows: the generator's OverflowError branch. Row
            # 15 + k of the training inputs is the window after k sends.
            x, _ = build_training_set(list(history) + sent)
            assert (x[15:] @ net.w_in.T + net.theta[20:22]).min() < -745

    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
    def test_non_finite_history(self, special):
        rng = np.random.default_rng(7)
        net = Mlp(rng.standard_normal(N_PARAMS))
        history = [0.1] * 20 + [special] + [0.2] * 4
        sent = [0.3, special, -0.4] + [0.1] * 12
        pairs = self.run(net, history, sent)
        assert all(same_bits(p, ref) for p, ref in pairs)

    def test_scalar_sigmoid_equals_expit(self):
        # the kernel's sigmoid alone: with zero input weights, bias v and
        # output weights (1, 0), the net's output is 1.0 * sigmoid(v) + 0.0
        # * 0.5 + 0.0. exp(-a) overflows below about -709.78, where expit
        # gives 0.0
        values = np.r_[np.linspace(-800.0, 800.0, 16001), -1e300, 1e300, -np.inf, np.inf, np.nan]
        for v in values.tolist():
            net = Mlp(np.r_[np.zeros(20), v, 0.0, 1.0, 0.0, 0.0])
            assert same_bits(net.predict([0.0] * 10), float(expit(v))), v

    @pytest.mark.parametrize("count", [1, KERNEL_UNROLL - 1, KERNEL_UNROLL, KERNEL_UNROLL + 1,
                                       2 * KERNEL_UNROLL, 3 * KERNEL_UNROLL - 1,
                                       3 * KERNEL_UNROLL + 5])
    def test_pass_and_tail_boundaries(self, count):
        # count predictions: whole passes of the unrolled loop, part of a
        # pass (the generator is left suspended mid-pass), or both, each
        # against the reference by float.hex
        rng = np.random.default_rng(count)
        net = Mlp(rng.standard_normal(N_PARAMS))
        history = (0.3 * rng.standard_normal(12)).tolist()
        sent = (0.3 * rng.standard_normal(count - 1)).tolist()
        predictions = net.predictions(history)
        yielded = [next(predictions), *(predictions.send(xr) for xr in sent)]
        expected = [reference_forward(net, (history + sent[:k])[-1:-11:-1]) for k in range(count)]
        assert [p.hex() for p in yielded] == [e.hex() for e in expected]

    def test_kernel_calls_no_blas(self):
        # the generated kernel is not in the module's AST: its names show
        # whether a numpy or BLAS call has entered the arithmetic
        kernel = mlp_module._forward_kernel()
        assert set(kernel.__code__.co_names) <= {"exp", "OverflowError"}
        assert Mlp.zero().predictions([0.0] * 10).gi_code is kernel.__code__

    def test_short_history_refused(self):
        with pytest.raises(ValueError, match="too short"):
            Mlp.zero().predict([0.0] * 9)


class TestTrainingSet:
    def test_pair_count(self):
        x, t = build_training_set(np.arange(200, dtype=float))
        assert x.shape == (190, 10)
        assert t.shape == (190,)

    def test_boundary_single_pair(self):
        x, t = build_training_set(np.arange(11, dtype=float))
        assert x.shape == (1, 10)
        # input is (frame[9], frame[8], ..., frame[0]): newest first
        np.testing.assert_array_equal(x[0], np.arange(9, -1, -1))
        assert t[0] == 10.0

    def test_short_frame_empty(self):
        for length in (0, 10):
            with pytest.raises(ValueError, match=f"^frame_len {length} is below the 11-sample "
                                                 "MLP minimum$"):
                build_training_set(np.arange(length, dtype=float))

    def test_constant_frame(self):
        x, t = build_training_set(np.full(20, 0.3))
        assert np.all(x == 0.3)
        assert np.all(t == 0.3)


def negated_jacobian(theta, x, t, forward=None):
    """The Jacobian built as dy/dtheta and then negated as a whole: the
    reference for the bits, signs of zero included, of the one-pass build.
    `forward` is (h, y), as for `residual_jacobian`."""
    h, y = forward_batch(theta, x) if forward is None else forward
    dy_dz = h * (1.0 - h) * theta[:, None, 22:24]
    jac = np.empty(y.shape + (N_PARAMS,))
    for j in range(N_HIDDEN):
        jac[..., j * N_INPUTS : (j + 1) * N_INPUTS] = dy_dz[..., j : j + 1] * x
    jac[..., 20:22] = dy_dz
    jac[..., 22:24] = h
    jac[..., 24] = 1.0
    np.negative(jac, out=jac)
    return jac, t - y


def signed_zero_stack():
    """(theta, x, t) whose Jacobian holds saturated units (h = 1.0, and
    pre-activations below -709, where the batch pass's clamp holds h at
    about 1.2e-308 and the kernel's h is 0.0), -0.0 and +0.0 output
    weights and zero inputs of both signs."""
    rng = np.random.default_rng(41)
    theta = rng.uniform(-1.0, 1.0, (7, N_PARAMS))
    theta[0, 20:22] = 50.0, -800.0       # h0 = 1.0, h1 below the clamp
    theta[1, 22:24] = -0.0, 0.0
    theta[2, :20] = 0.0
    theta[2, 20:24] = 40.0, -900.0, -0.0, 0.0   # saturated units, zero weights
    theta[3] = -0.0
    theta[4] *= 8.0
    theta[5, 20:24] = -800.0, 45.0, -1.5, 0.0
    x = rng.uniform(-0.5, 0.5, (6, N_INPUTS))
    x[1] = 0.0
    x[2] = -0.0
    x[3, ::2] = 0.0
    x[3, 1::2] = -0.0
    return theta, x, rng.uniform(-0.5, 0.5, 6)


class TestJacobian:
    def test_equals_negated_build_bit_for_bit(self):
        theta, x, t = signed_zero_stack()
        h, y = forward_batch(theta, x)
        assert (h == 1.0).any() and (h > 0.0).all()
        want_jac, want_r = negated_jacobian(theta, x, t)
        for forward in (None, (h, y)):
            jac, r = residual_jacobian(theta, x, t, forward)
            assert jac.tobytes() == want_jac.tobytes()
            assert r.tobytes() == want_r.tobytes()
        for i in range(len(theta)):  # each row as a stack of one
            jac, _ = residual_jacobian(theta[i : i + 1], x, t)
            assert jac.tobytes() == want_jac[i : i + 1].tobytes(), i
        # the batch pass never gives h = 0.0, so the rows that saturate low
        # are passed in by hand with the kernel's 0.0
        h = np.where(h < 1e-300, 0.0, h)
        assert (h == 0.0).any()
        want_jac, want_r = negated_jacobian(theta, x, t, (h, y))
        zeros = want_jac == 0.0
        assert np.signbit(want_jac[zeros]).any() and not np.signbit(want_jac[zeros]).all()
        jac, r = residual_jacobian(theta, x, t, (h, y))
        assert jac.tobytes() == want_jac.tobytes()
        assert r.tobytes() == want_r.tobytes()
        for i in range(len(theta)):  # each row as a stack of one
            jac, _ = residual_jacobian(theta[i : i + 1], x, t, (h[i : i + 1], y[i : i + 1]))
            assert jac.tobytes() == want_jac[i : i + 1].tobytes(), i

    def test_equals_negated_build_on_corpus_frames(self, monkeypatch):
        for frame, k in digest_frames():
            x, t = build_training_set(frame)
            for scale in (0.5, 8.0):
                monkeypatch.setattr(mlp_module, "INIT_SCALE", scale)
                theta = init_mlp([restart_seed(k, i) for i in range(4)])
                assert residual_jacobian(theta, x, t)[0].tobytes() == \
                    negated_jacobian(theta, x, t)[0].tobytes()

    def test_output_bias_column(self):
        net = seeded_net(8)
        x, t = build_training_set(np.linspace(-0.5, 0.5, 30))
        jac, r = residual_jacobian(net.theta[None], x, t)
        assert jac.shape == (1, len(t), 25) and r.shape == (1, len(t))
        np.testing.assert_array_equal(jac[0, :, 24], -np.ones(len(t)))

    def test_zero_net_output_weight_columns(self):
        net = Mlp.zero()
        x, t = build_training_set(np.linspace(-0.5, 0.5, 30))
        jac, _ = residual_jacobian(net.theta[None], x, t)
        np.testing.assert_allclose(jac[0, :, 22:24], -0.5, rtol=1e-15)

    def test_residual_definition(self):
        net = seeded_net(9)
        x, t = build_training_set(np.linspace(-0.5, 0.5, 30))
        _, r = residual_jacobian(net.theta[None], x, t)
        np.testing.assert_allclose(r[0], t - forward_batch(net.theta, x)[1], rtol=1e-15)

    def test_matches_finite_differences(self):
        rng = SplitMix64(10)
        step = 1e-6
        for seed in range(10):
            net = seeded_net(seed)
            x = np.array([[rng.uniform(-0.8, 0.8) for _ in range(10)]
                          for _ in range(3)])
            t = np.array([rng.uniform(-0.8, 0.8) for _ in range(3)])
            jac = residual_jacobian(net.theta[None], x, t)[0][0]
            theta = net.theta
            for p in range(25):
                up, dn = theta.copy(), theta.copy()
                up[p] += step
                dn[p] -= step
                fd = (
                    (t - forward_batch(up, x)[1])
                    - (t - forward_batch(dn, x)[1])
                ) / (2 * step)
                mask = np.abs(fd) > 1e-8
                np.testing.assert_allclose(jac[:, p][mask], fd[mask], rtol=1e-4)


    def test_stack_rows_match_single_nets(self):
        thetas = init_mlp([21, 22, 23])
        x, t = build_training_set(np.sin(np.linspace(0, 6, 40)) * 0.4)
        jac, r = residual_jacobian(thetas, x, t)
        for i, theta in enumerate(thetas):
            one_jac, one_r = residual_jacobian(theta[None], x, t)
            np.testing.assert_array_equal(jac[i], one_jac[0])
            np.testing.assert_array_equal(r[i], one_r[0])


class TestLevenbergMarquardt:
    def test_accepted_step_reduces_sse(self):
        thetas = init_mlp([11, 12, 13, 14])
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        before = [batch_sse(Mlp(theta), x, t) for theta in thetas]
        thetas2, lam2, after, accepted = lm_epoch(thetas, x, t, np.full(4, 0.01))
        assert type(accepted) is int
        assert accepted == sum(lam < 0.01 for lam in lam2) >= 1
        for theta, theta2, lam, b, a in zip(thetas, thetas2, lam2, before, after):
            if lam < 0.01:
                assert a < b
                assert lam == pytest.approx(0.001)
            else:
                assert a == b
                assert lam == pytest.approx(0.1)
                np.testing.assert_array_equal(theta2, theta)

    def test_rejected_step_keeps_parameters(self):
        thetas = init_mlp([13])
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        # huge lambda forces a tiny step; near a minimum it cannot improve
        for _ in range(200):
            thetas, _, _, _ = lm_epoch(thetas, x, t, np.array([1e-3]))
        thetas2, _, _, accepted = lm_epoch(thetas, x, t, np.array([1e12]))
        if not accepted:
            np.testing.assert_array_equal(thetas2, thetas)

    @pytest.mark.parametrize("solve", ["singular", "non-finite"])
    def test_unusable_step_rejected(self, monkeypatch, solve):
        def bad_solve(lhs, rhs):
            if solve == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return np.full(np.shape(rhs), np.inf)

        thetas = init_mlp([20, 21])
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        before = [batch_sse(Mlp(theta), x, t) for theta in thetas]
        monkeypatch.setattr(np.linalg, "solve", bad_solve)
        thetas2, lam2, err, accepted = lm_epoch(thetas, x, t, np.full(2, 0.01))
        np.testing.assert_array_equal(thetas2, thetas)
        assert accepted == 0
        np.testing.assert_allclose(lam2, 0.1)
        assert err.tolist() == before

    def test_singular_row_rejected_alone(self, monkeypatch):
        # numpy refuses a whole stack for one singular matrix; the fallback
        # solves each matrix on its own, so only that row is rejected
        thetas = init_mlp([30, 31, 32, 33])
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        lam = np.full(4, 1.0)
        expected = lm_epoch(thetas, x, t, lam)
        assert expected[3] == 4
        real_solve = np.linalg.solve
        calls = []

        def solve_row_1_singular(lhs, rhs):
            calls.append(np.ndim(lhs))
            if np.ndim(lhs) == 3 or len(calls) == 3:  # the stack, then row 1
                raise np.linalg.LinAlgError("singular matrix")
            return real_solve(lhs, rhs)

        monkeypatch.setattr(np.linalg, "solve", solve_row_1_singular)
        thetas2, lam2, err, accepted = lm_epoch(thetas, x, t, lam)
        assert calls == [3, 2, 2, 2, 2] and accepted == 3
        np.testing.assert_array_equal(thetas2[1], thetas[1])
        assert lam2[1] == pytest.approx(10.0)
        assert err[1] == batch_sse(Mlp(thetas[1]), x, t)
        for i in (0, 2, 3):
            np.testing.assert_array_equal(thetas2[i], expected[0][i])
            assert lam2[i] == expected[1][i] and err[i] == expected[2][i]

    def test_zero_start_linear_subproblem_reaches_optimum(self):
        # from the zero net only w_out/b_out columns are active, so one
        # near-undamped epoch must land on the least-squares optimum:
        # predicting mean(t), with SSE equal to the centered energy
        rng = np.random.default_rng(14)
        x = rng.uniform(-0.5, 0.5, size=(40, 10))
        t = rng.uniform(-0.5, 0.5, size=40)
        _, _, err, accepted = lm_epoch(np.zeros((1, 25)), x, t, np.array([1e-12]))
        assert accepted == 1
        optimum = float(np.sum((t - t.mean()) ** 2))
        assert err[0] == pytest.approx(optimum, abs=1e-8)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
    def test_nonpositive_lambda_refused(self, lam):
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        with pytest.raises(ValueError, match="lambda must be > 0"):
            lm_epoch(init_mlp([1, 2]), x, t, np.array([0.01, lam]))

    def test_sse_nonincreasing_across_epochs(self):
        x_sig = np.sin(np.linspace(0, 12, 120)) * 0.4
        errs = [err for _, err in lm_iterations(x_sig, 15, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_iterations_chain_lm_epochs_from_seeded_net(self, monkeypatch):
        # off the default constants, so a literal in place of one would show
        monkeypatch.setattr(mlp_module, "LAMBDA_INIT", 0.02)
        monkeypatch.setattr(mlp_module, "INIT_SCALE", 0.3)
        x_sig = np.sin(np.linspace(0, 12, 80)) * 0.4
        steps = list(lm_iterations(x_sig, 16, 6))
        expected = reference_run(x_sig, 16, 6)
        assert len(steps) == 6
        for (net, err), (ref_net, ref_err) in zip(steps, expected):
            np.testing.assert_array_equal(net.theta, ref_net.theta)
            assert err == ref_err

    def test_learns_realizable_teacher(self):
        teacher = seeded_net(17, scale=1.0)
        rng = np.random.default_rng(18)
        x = rng.uniform(-0.8, 0.8, size=(60, 10))
        t = forward_batch(teacher.theta, x)[1]
        students = init_mlp([19])
        initial = batch_sse(Mlp(students[0]), x, t)
        lam = np.array([LAMBDA_INIT])
        for _ in range(60):
            students, lam, final, _ = lm_epoch(students, x, t, lam)
        assert final[0] < 0.05 * initial

    def test_numpy_integer_seed(self, ar_signal):
        frame = ar_signal.samples[:200]
        runs = [[err for _, err in lm_iterations(frame, seed, 3)]
                for seed in (np.int64(5), 5)]
        assert runs[0] == runs[1]

    def test_short_frame_yields_nothing(self):
        for length in (0, 10):
            frame = np.linspace(-0.3, 0.3, length)
            with pytest.raises(ValueError, match=f"^frame_len {length} is below the 11-sample "
                                                 "MLP minimum$"):
                next(lm_iterations(frame, 0, 3))
        assert len(list(lm_iterations(np.linspace(-0.3, 0.3, 11), 0, 3))) == 3


def reference_output_layer(h, t):
    """(v0, v1, c) of the `mlp` docstring's output-layer solve for one row's
    activations h (N, 2), on Python floats: each sum adds its terms in pair
    order from the first, then a Cholesky factor and the two substitutions
    written as loops; None when a pivot is not positive or the solution is
    not finite."""
    h0, h1, t = h[:, 0].tolist(), h[:, 1].tolist(), t.tolist()

    def total(terms):
        acc = terms[0]
        for term in terms[1:]:
            acc = acc + term
        return acc

    a = [[total([u * u for u in h0]), total([w * u for u, w in zip(h0, h1)]), total(h0)],
         [None, total([w * w for w in h1]), total(h1)],
         [None, None, float(len(t))]]
    b = [total([u * y for u, y in zip(h0, t)]), total([w * y for w, y in zip(h1, t)]), total(t)]
    low = [[0.0] * 3 for _ in range(3)]
    for j in range(3):
        pivot = a[j][j]
        for k in range(j):
            pivot = pivot - low[j][k] * low[j][k]
        if not pivot > 0.0:
            return None
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, 3):
            value = a[j][i]
            for k in range(j):
                value = value - low[i][k] * low[j][k]
            low[i][j] = value / low[j][j]
    z = []
    for i in range(3):
        value = b[i]
        for k in range(i):
            value = value - low[i][k] * z[k]
        z.append(value / low[i][i])
    layer = [0.0] * 3
    for i in (2, 1, 0):
        value = z[i]
        for k in range(i + 1, 3):
            value = value - low[k][i] * layer[k]
        layer[i] = value / low[i][i]
    return tuple(layer) if all(map(math.isfinite, layer)) else None


class TestOutputLayer:
    """`solve_output_layer` sets each row's output layer to its least-squares
    fit given the row's hidden activations, in the docstring's arithmetic."""

    @staticmethod
    def stacks():
        """(theta, h, t): seeded stacks on corpus frames, and on random
        inputs with start scales that drive some hidden units to saturate."""
        for frame, k in digest_frames():
            x, t = build_training_set(frame)
            theta = init_mlp([restart_seed(k, i) for i in range(3)])
            yield theta, forward_batch(theta, x)[0], t
        rng = np.random.default_rng(40)
        for scale in (0.5, 4.0, 40.0):
            x = rng.uniform(-0.5, 0.5, size=(30, N_INPUTS))
            theta = rng.uniform(-scale, scale, size=(4, N_PARAMS))
            yield theta, forward_batch(theta, x)[0], rng.uniform(-0.5, 0.5, size=30)

    def test_equals_reference_bit_for_bit(self):
        solved = 0
        for theta, h, t in self.stacks():
            out = solve_output_layer(theta, h, t)
            np.testing.assert_array_equal(out[:, :22], theta[:, :22])
            for i in range(len(theta)):
                layer = reference_output_layer(h[i], t)
                expected = theta[i, 22:] if layer is None else np.array(layer)
                assert out[i, 22:].tobytes() == expected.tobytes()
                solved += layer is not None
        assert solved > 50

    def test_is_the_least_squares_fit(self):
        for theta, h, t in self.stacks():
            out = solve_output_layer(theta, h, t)
            for i in range(len(theta)):
                design = np.column_stack([h[i], np.ones(len(t))])
                if np.linalg.cond(design) > 1e6:
                    continue
                best = np.linalg.lstsq(design, t, rcond=None)[0]
                np.testing.assert_allclose(out[i, 22:], best, rtol=1e-7, atol=1e-9)

    def test_does_not_touch_its_input(self):
        theta, h, t = next(self.stacks())
        before = theta.copy()
        solve_output_layer(theta, h, t)
        np.testing.assert_array_equal(theta, before)

    @pytest.mark.parametrize("h0, h1", [(0.0, 0.5), (0.5, 0.0), (1.0, 1.0), (0.25, 0.75)],
                             ids=["h0-zero", "h1-zero", "equal-units", "constant-units"])
    def test_singular_system_keeps_the_layer(self, h0, h1):
        # 16 pairs of constant activations: in exact binary arithmetic a
        # zero unit gives a zero pivot, and two constant units are collinear
        # with the bias, so a later pivot is zero
        rng = np.random.default_rng(41)
        theta = rng.uniform(-1.0, 1.0, size=(2, N_PARAMS))
        h = np.empty((2, 16, 2))
        h[0] = h0, h1
        h[1] = rng.uniform(0.1, 0.9, size=(16, 2))
        t = rng.uniform(-0.5, 0.5, size=16)
        out = solve_output_layer(theta, h, t)
        assert reference_output_layer(h[0], t) is None
        np.testing.assert_array_equal(out[0], theta[0])
        assert out[1].tobytes() != theta[1].tobytes()  # row 1 is solved

    def test_non_finite_solution_keeps_the_layer(self):
        rng = np.random.default_rng(42)
        theta = rng.uniform(-1.0, 1.0, size=(1, N_PARAMS))
        h = rng.uniform(0.1, 0.9, size=(1, 20, 2))
        t = np.full(20, 1e308)  # the target sums overflow
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(solve_output_layer(theta, h, t), theta)

    def test_lm_epoch_scores_the_solved_candidate(self):
        # an accepted row's output layer is the solve on its own hidden
        # activations, and its SSE is scored with that layer
        accepted = 0
        for frame, k in digest_frames():
            x, t = build_training_set(frame)
            theta = solved_draw([restart_seed(k, i) for i in range(3)], x, t)
            lam = np.full(3, LAMBDA_INIT)
            for _ in range(3):
                moved, lam, sse, _ = lm_epoch(theta, x, t, lam)
                h = forward_batch(moved, x)[0]
                for i in np.flatnonzero((moved != theta).any(axis=1)):
                    assert solve_output_layer(moved, h, t)[i].tobytes() == moved[i].tobytes()
                    r = t - output_batch(moved[i], h[i])
                    assert sse[i] == r @ r
                    accepted += 1
                theta = moved
        assert accepted > 20


class TestMultistart:
    def test_restart_seed_schedule(self):
        assert restart_seed(0, 0) == 0
        assert restart_seed(0, 1) == GOLDEN_GAMMA
        assert restart_seed(0, 2) == (2 * GOLDEN_GAMMA) & MASK64
        assert restart_seed(5, 1) == 5 ^ GOLDEN_GAMMA

    def test_deterministic(self):
        frame = np.sin(np.linspace(0, 12, 200)) * 0.4
        a = multistart_fit(frame, 6, 77, 4)
        b = multistart_fit(frame, 6, 77, 4)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_selects_lowest_sse_restart(self):
        frame = np.sin(np.linspace(0, 12, 200)) * 0.4
        x, t = build_training_set(frame)
        best = multistart_fit(frame, 6, 21, 4)
        finals = [reference_run(frame, restart_seed(21, i), 6)[-1] for i in range(4)]
        winner = int(np.argmin([err for _, err in finals]))
        np.testing.assert_array_equal(best.theta, finals[winner][0].theta)
        assert batch_sse(best, x, t) == pytest.approx(finals[winner][1], rel=1e-12)

    def test_single_restart_equals_one_run(self):
        frame = np.sin(np.linspace(0, 12, 150)) * 0.4
        via_multi = multistart_fit(frame, 6, 33, 1)
        via_run, _ = reference_run(frame, restart_seed(33, 0), 6)[-1]
        np.testing.assert_array_equal(via_multi.theta, via_run.theta)

    @staticmethod
    def fit_with_final_sse(monkeypatch, final_sse):
        """multistart_fit over a faked LM whose row i is all i; the first
        of two epochs would pick row 0, so only the last epoch may count."""
        rows = len(final_sse)
        stack = np.repeat(np.arange(float(rows))[:, None], 25, axis=1)
        epoch_sse = [(0.5,) + (9.0,) * (rows - 1), final_sse]

        def fake_epoch(theta, x, t, lam, carry=None):
            assert len(theta) == rows
            return stack, lam, np.array(epoch_sse.pop(0)), 0

        monkeypatch.setattr(mlp_module, "lm_epoch", fake_epoch)
        best = multistart_fit(np.zeros(50), 2, 5, rows)
        assert not epoch_sse
        return best

    def test_tie_goes_to_lowest_restart(self, monkeypatch):
        best = self.fit_with_final_sse(monkeypatch, (2.0, 1.0, 1.0, 3.0))
        np.testing.assert_array_equal(best.theta, np.full(25, 1.0))

    def test_nan_sse_does_not_beat_an_earlier_restart(self, monkeypatch):
        # min over Python floats keeps restart 1; np.argmin would pick the NaN
        best = self.fit_with_final_sse(monkeypatch, (2.0, 1.0, float("nan"), 1.0))
        np.testing.assert_array_equal(best.theta, np.full(25, 1.0))

    @pytest.mark.parametrize("length", [5, 200])
    def test_empty_restarts_refused(self, length):
        # a fit of no restarts is refused before the frame is read
        with pytest.raises(ValueError, match="^restarts must be >= 1, got 0$"):
            multistart_fit(np.zeros(length), 6, 0, 0)

    def test_short_frame_zero_predictor(self):
        for restarts in (1, 4):
            with pytest.raises(ValueError, match="^frame_len 5 is below the 11-sample MLP minimum$"):
                multistart_fit(np.zeros(5), 6, 0, restarts)

    @pytest.mark.parametrize("seed, restarts, name", [
        (2.5, 4, "seed"), (True, 4, "seed"), ("5", 4, "seed"),
        (5, 1.0, "restarts"), (5, True, "restarts"), (5, "1", "restarts"),
    ], ids=["seed-2.5", "seed-True", "seed-str", "restart-1.0", "restart-True", "restart-str"])
    def test_non_integer_seed_or_restart_refused(self, seed, restarts, name):
        frame = np.sin(np.linspace(0, 12, 200)) * 0.4
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            multistart_fit(frame, 6, seed, restarts)

    @pytest.mark.parametrize("epochs, message", [
        (0, "must be >= 1, got 0"), (2.5, "must be an integer, got 2.5"),
        (True, "must be an integer, got True"),
    ])
    def test_epochs_refused(self, epochs, message):
        frame = np.sin(np.linspace(0, 12, 200)) * 0.4
        with pytest.raises(ValueError, match=f"^epochs {message}$"):
            multistart_fit(frame, epochs, 0, 2)

    def test_numpy_integer_seed_and_restarts(self):
        frame = np.sin(np.linspace(0, 12, 200)) * 0.4
        net = multistart_fit(frame, np.int64(2), np.uint64(77), np.int64(3))
        assert net == multistart_fit(frame, 2, 77, 3)


class TestStackedRun:
    """Restarts stay independent: a row of a stacked run is that seed's
    solo run, epoch by epoch and bit for bit."""

    @staticmethod
    def assert_rows_match_solo_runs(frame, seeds, epochs):
        stacked = list(lm_stack_iterations(frame, seeds, epochs))
        for i, seed in enumerate(seeds):
            solo = list(lm_stack_iterations(frame, [seed], epochs))
            nets = list(lm_iterations(frame, seed, epochs))
            assert len(stacked) == len(solo) == len(nets)
            for (theta, lam, sse), (theta1, lam1, sse1), (net, err) in zip(stacked, solo, nets):
                np.testing.assert_array_equal(theta[i], theta1[0])
                np.testing.assert_array_equal(theta[i], net.theta)
                assert lam[i] == lam1[0]
                assert sse[i] == sse1[0] == err

    @settings(derandomize=True, deadline=None, database=None)
    @given(
        frame=arrays(np.float64, st.integers(11, 120),
                     elements=st.floats(-0.9, 0.9, allow_nan=False, width=64)),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        epochs=st.integers(1, 6),
        lambda_init=st.sampled_from([1e-6, 0.01, 3.0]),
    )
    def test_rows_equal_solo_runs(self, frame, seeds, epochs, lambda_init):
        # a context, not the monkeypatch fixture, which Hypothesis refuses
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mlp_module, "LAMBDA_INIT", lambda_init)
            self.assert_rows_match_solo_runs(frame, seeds, epochs)

    def test_rows_equal_solo_runs_through_per_matrix_solve(self, monkeypatch, speech_like):
        frame = speech_like.samples[2000:2200]
        seeds = [restart_seed(9, i) for i in range(5)]
        unpatched = list(lm_stack_iterations(frame, seeds, 6))
        real_solve = np.linalg.solve

        def refuse_stacks(lhs, rhs):
            if np.ndim(lhs) == 3:
                raise np.linalg.LinAlgError("singular matrix")
            return real_solve(lhs, rhs)

        monkeypatch.setattr(np.linalg, "solve", refuse_stacks)
        patched = list(lm_stack_iterations(frame, seeds, 6))
        for (theta, lam, sse), (theta_p, lam_p, sse_p) in zip(unpatched, patched):
            np.testing.assert_array_equal(theta_p, theta)
            np.testing.assert_array_equal(lam_p, lam)
            np.testing.assert_array_equal(sse_p, sse)
        self.assert_rows_match_solo_runs(frame, seeds, 6)

    def test_short_frame_yields_nothing(self):
        with pytest.raises(ValueError, match="^frame_len 10 is below the 11-sample MLP minimum$"):
            next(lm_stack_iterations(np.zeros(10), [1, 2], 3))


def digest_frames():
    """(frame, k): frames 1 and the middle one of three `test_fit_digest`
    corpus signals, at its frame lengths 13, 40 and 200."""
    signals = [formant_utterance(11, 8000), linear_ar(5, 2000), nonlinear_ar(31, 3000)]
    for frame_len in (13, 40, 200):
        for signal in signals:
            frames = split_frames(signal.samples, frame_len)
            for k in (1, len(frames) // 2):
                yield frames[k], k


class TestCarriedLm:
    """`lm_epoch` with a carry equals a chain of cold `lm_epoch` calls, bit
    for bit and epoch by epoch, in theta, lambda, SSE and the accepted
    count; the carry only removes work."""

    @staticmethod
    def chain(theta, lam, x, t, epochs, carry):
        steps = []
        for _ in range(epochs):
            theta, lam, sse, accepted = lm_epoch(theta, x, t, lam, carry)
            steps.append((theta.tobytes(), lam.tobytes(), sse.tobytes(), accepted))
        return steps

    @classmethod
    def assert_carry_matches_cold(cls, theta, lam, x, t, epochs):
        cold = cls.chain(theta, lam, x, t, epochs, None)
        carried = cls.chain(theta, lam, x, t, epochs, {})
        assert carried == cold
        return cold

    @staticmethod
    def jacobian_rows(monkeypatch):
        """Record the row count of every `residual_jacobian` call."""
        rows = []
        real = mlp_module.residual_jacobian

        def counting(theta, x, t, forward=None):
            rows.append(len(theta))
            return real(theta, x, t, forward)

        monkeypatch.setattr(mlp_module, "residual_jacobian", counting)
        return rows

    @pytest.mark.parametrize("restarts", [1, 4, 7])
    def test_carry_equals_cold_chain(self, monkeypatch, restarts):
        epochs = 9
        rows = self.jacobian_rows(monkeypatch)
        partial = 0
        for frame, k in digest_frames():
            seeds = [restart_seed(k, i) for i in range(restarts)]
            x, t = build_training_set(frame)
            start, lam = solved_draw(seeds, x, t), np.full(restarts, LAMBDA_INIT)
            rows.clear()
            cold = self.assert_carry_matches_cold(start, lam, x, t, epochs)
            accepted = [step[3] for step in cold]
            cold_rows, carried_rows = rows[:epochs], rows[epochs:]
            # a cold chain builds every row each epoch; the carry builds all
            # rows once, then only the rows that moved, never after the last
            assert cold_rows == [restarts] * epochs
            assert carried_rows == [restarts] + [n for n in accepted[:-1] if n]
            partial += sum(0 < n < restarts for n in accepted[:-1])
            # lm_stack_iterations threads the same carry
            stacked = [(theta.tobytes(), lam.tobytes(), sse.tobytes())
                       for theta, lam, sse in lm_stack_iterations(frame, seeds, epochs)]
            assert stacked == [step[:3] for step in cold]
        assert partial > 0 or restarts == 1  # mixed accept/reject rows were rebuilt

    @pytest.mark.parametrize("failure", ["singular", "non-finite"])
    def test_carry_equals_cold_chain_with_an_unusable_row(self, monkeypatch, failure):
        # row 2 starts with a huge lambda, and the patched solve makes its
        # system singular (numpy then refuses the whole stack, and
        # `_solve_each` solves each matrix alone) or its step non-finite;
        # it is rejected every epoch while the other rows move
        real_solve = np.linalg.solve
        calls = []

        def solve(lhs, rhs):
            marked = lhs[..., 0, 0] > 1e20
            calls.append((np.ndim(lhs), bool(np.any(marked))))
            if failure == "singular":
                if np.any(marked):
                    raise np.linalg.LinAlgError("singular matrix")
                return real_solve(lhs, rhs)
            delta = real_solve(lhs, rhs)
            delta[marked] = np.inf
            return delta

        monkeypatch.setattr(np.linalg, "solve", solve)
        rows = self.jacobian_rows(monkeypatch)
        epochs = 8
        for frame, k in digest_frames():
            if len(frame) == 13:
                continue
            x, t = build_training_set(frame)
            start = init_mlp([restart_seed(k, i) for i in range(4)])
            lam = np.array([0.01, 0.01, 1e30, 0.01])
            rows.clear()
            cold = self.assert_carry_matches_cold(start, lam, x, t, epochs)
            accepted = [step[3] for step in cold]
            assert max(accepted) <= 3
            assert any(0 < n < 4 for n in accepted[:-1])
            assert all(n < 4 for n in rows[epochs + 1:])  # partial rebuilds only
            theta, lam_out, *_ = lm_epoch(start, x, t, lam, {})
            np.testing.assert_array_equal(theta[2], start[2])
            assert lam_out[2] == 1e31
        if failure == "singular":
            assert (2, True) in calls and (3, True) in calls  # the per-matrix fallback ran

    def test_epoch_after_an_all_rejected_one_builds_no_jacobian(self, monkeypatch):
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        carry = {}
        theta, lam, _, _ = lm_epoch(init_mlp([13, 14]), x, t, np.full(2, 0.01), carry)
        with monkeypatch.context() as patch:  # every step non-finite: all rejected
            patch.setattr(np.linalg, "solve", lambda lhs, rhs: np.full(np.shape(rhs), np.inf))
            theta, lam, _, accepted = lm_epoch(theta, x, t, lam, carry)
        assert accepted == 0
        rows = self.jacobian_rows(monkeypatch)
        carried = lm_epoch(theta, x, t, lam, carry)
        assert rows == []
        cold = lm_epoch(theta, x, t, lam)
        for got, want in zip(carried, cold):
            np.testing.assert_array_equal(got, want)


class TestTrainConfig:
    """The codec's training recipe: EPOCHS separable LM epochs on RESTARTS
    seeded starts, the damping schedule and the initial weight range are `mlp`
    constants, as normative as the net's shape, and no config field."""

    def test_defaults(self):
        assert (EPOCHS, RESTARTS) == (2, 1)
        assert (LAMBDA_INIT, LAMBDA_UP, LAMBDA_DOWN, INIT_SCALE) == (0.01, 10.0, 0.1, 0.5)

    def test_not_config_fields(self):
        assert [f.name for f in fields(CodecConfig)] == [
            "frame_len", "bits", "predictor_kind", "adaptation", "seed"]
        for name, value in (("epochs", EPOCHS), ("restarts", RESTARTS)):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                CodecConfig(**{name: value})


WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
import numpy as np
import nadpcm
from nadpcm import cli, harness

cli.build_parser()
signal = nadpcm.Signal(np.sin(np.arange(600) * 0.3) * 0.5, 8000)
nadpcm.multistart_fit(signal.samples[:200], 2, 1, 2)
base = nadpcm.CodecConfig()
for method in harness.METHODS:
    encoded = nadpcm.encode(signal, harness.method_config(base, method, 2))
    decoded = nadpcm.decode(nadpcm.parse(nadpcm.serialize(encoded.bitstream)))
    assert np.array_equal(decoded.samples, encoded.reconstruction.samples), method
"""


class TestScipyLoading:
    def test_codec_runs_without_scipy(self):
        """In a fresh interpreter where scipy cannot be imported, the package
        imports, the CLI builds, a net is fitted, and every method encodes,
        serializes, parses and decodes."""
        src = os.path.dirname(os.path.dirname(nadpcm.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], capture_output=True,
                             text=True, env=env)
        assert out.returncode == 0, out.stderr
