"""SplitMix64 PRNG, the 10-2-1 net, and Levenberg-Marquardt training."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from nadpcm import mlp as mlp_module
from nadpcm.mlp import (
    GOLDEN_GAMMA,
    MASK64,
    Mlp,
    N_PARAMS,
    SplitMix64,
    TrainConfig,
    build_training_set,
    init_mlp,
    lm_epoch,
    lm_iterations,
    multistart_fit,
    residual_jacobian,
    restart_seed,
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
    r = t - net.forward_batch(x)[1]
    return float(r @ r)


def reference_run(frame, seed, config, epochs):
    """(net, sse) after each LM epoch, chained by hand from init_mlp and
    lm_epoch as an oracle for lm_iterations and multistart_fit."""
    x, t = build_training_set(frame)
    net, lam = init_mlp(SplitMix64(seed), config.init_scale), config.lambda_init
    steps = []
    for _ in range(epochs):
        net, lam, err, _ = lm_epoch(net, x, t, lam, config)
        steps.append((net, err))
    return steps


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
        with pytest.raises(TypeError):
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


class TestMlpStructure:
    def test_parameter_count(self):
        assert N_PARAMS == 25

    def test_vector_order_is_normative(self):
        # w_in row-major (hidden 0 then hidden 1), b_hid, w_out, b_out
        theta = np.arange(25, dtype=np.float64)
        net = Mlp(theta)
        np.testing.assert_array_equal(net.theta, theta)
        np.testing.assert_array_equal(net.w_in[0], np.arange(10))
        np.testing.assert_array_equal(net.w_in[1], np.arange(10, 20))
        np.testing.assert_array_equal(net.b_hid, [20, 21])
        np.testing.assert_array_equal(net.w_out, [22, 23])
        assert net.b_out == 24.0

    def test_vector_round_trip(self):
        rng = SplitMix64(3)
        net = init_mlp(rng, 0.5)
        np.testing.assert_array_equal(Mlp(net.theta).theta, net.theta)
        assert Mlp(net.theta.tolist()).theta.dtype == np.float64

    def test_net_unchanged_when_input_array_mutated(self):
        theta = np.linspace(-0.5, 0.5, 25)
        net = Mlp(theta)
        before = net.forward(np.ones(10))
        theta[:] = 7.0
        np.testing.assert_array_equal(net.theta, np.linspace(-0.5, 0.5, 25))
        assert net.w_in[0, 0] == -0.5
        assert net.forward(np.ones(10)) == before
        with pytest.raises(ValueError):
            net.theta[0] = 7.0  # the parameters are read-only

    @pytest.mark.parametrize("shape", [(24,), (26,), (5, 5), ()])
    def test_wrong_parameter_count_refused(self, shape):
        with pytest.raises(ValueError, match="need 25 parameters"):
            Mlp(np.zeros(shape))

    def test_init_range_and_draw_count(self):
        rng = SplitMix64(4)
        net = init_mlp(rng, 0.5)
        theta = net.theta
        assert np.all((theta >= -0.5) & (theta < 0.5))
        # exactly 25 draws consumed: the 26th matches a fresh skip-25 stream
        fresh = SplitMix64(4)
        for _ in range(25):
            fresh.next_u64()
        assert rng.next_u64() == fresh.next_u64()


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = Mlp.zero()
        assert net.forward(np.zeros(10)) == 0.0

    def test_unit_output_weights_on_zero_net(self):
        net = Mlp(np.r_[np.zeros(22), 1.0, 1.0, 0.0])
        assert net.forward(np.zeros(10)) == pytest.approx(1.0)  # sigma(0) twice

    def test_matches_hand_formula(self):
        rng = SplitMix64(5)
        net = init_mlp(rng, 0.5)
        x = np.linspace(-0.4, 0.4, 10)
        h = expit(net.w_in @ x + net.b_hid)
        expected = float(net.w_out @ h + net.b_out)
        assert net.forward(x) == pytest.approx(expected, rel=1e-15)

    def test_predict_uses_newest_first(self):
        rng = SplitMix64(6)
        net = init_mlp(rng, 0.5)
        history = np.linspace(-0.3, 0.3, 25)  # newest stored last
        expected = net.forward(history[-1:-11:-1])
        assert net.predict(history) == expected

    def test_forward_batch_matches_scalar(self):
        rng = SplitMix64(12)
        net = init_mlp(rng, 0.5)
        x = np.array([np.linspace(-0.2, 0.2, 10), np.linspace(0.3, -0.1, 10)])
        h, batch = net.forward_batch(x)
        np.testing.assert_allclose(h, expit(x @ net.w_in.T + net.b_hid), rtol=1e-15)
        assert batch[0] == pytest.approx(net.forward(x[0]), rel=1e-15)
        assert batch[1] == pytest.approx(net.forward(x[1]), rel=1e-15)


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
        x, t = build_training_set(np.arange(10, dtype=float))
        assert len(t) == 0

    def test_constant_frame(self):
        x, t = build_training_set(np.full(20, 0.3))
        assert np.all(x == 0.3)
        assert np.all(t == 0.3)


class TestJacobian:
    def test_output_bias_column(self):
        rng = SplitMix64(8)
        net = init_mlp(rng, 0.5)
        x, t = build_training_set(np.linspace(-0.5, 0.5, 30))
        jac, r = residual_jacobian(net, x, t)
        np.testing.assert_array_equal(jac[:, 24], -np.ones(len(t)))

    def test_zero_net_output_weight_columns(self):
        net = Mlp.zero()
        x, t = build_training_set(np.linspace(-0.5, 0.5, 30))
        jac, _ = residual_jacobian(net, x, t)
        np.testing.assert_allclose(jac[:, 22:24], -0.5, rtol=1e-15)

    def test_residual_definition(self):
        rng = SplitMix64(9)
        net = init_mlp(rng, 0.5)
        x, t = build_training_set(np.linspace(-0.5, 0.5, 30))
        _, r = residual_jacobian(net, x, t)
        np.testing.assert_allclose(r, t - net.forward_batch(x)[1], rtol=1e-15)

    def test_matches_finite_differences(self):
        rng = SplitMix64(10)
        step = 1e-6
        for _ in range(10):
            net = init_mlp(rng, 0.5)
            x = np.array([[rng.uniform(-0.8, 0.8) for _ in range(10)]
                          for _ in range(3)])
            t = np.array([rng.uniform(-0.8, 0.8) for _ in range(3)])
            jac, _ = residual_jacobian(net, x, t)
            theta = net.theta
            for p in range(25):
                up, dn = theta.copy(), theta.copy()
                up[p] += step
                dn[p] -= step
                fd = (
                    (t - Mlp(up).forward_batch(x)[1])
                    - (t - Mlp(dn).forward_batch(x)[1])
                ) / (2 * step)
                mask = np.abs(fd) > 1e-8
                np.testing.assert_allclose(jac[:, p][mask], fd[mask], rtol=1e-4)


class TestLevenbergMarquardt:
    def test_accepted_step_reduces_sse(self):
        rng = SplitMix64(11)
        net = init_mlp(rng, 0.5)
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        before = batch_sse(net, x, t)
        net2, lam2, after, accepted = lm_epoch(net, x, t, 0.01, TrainConfig())
        if accepted:
            assert after < before
            assert lam2 == pytest.approx(0.001)
        else:
            assert after == before
            assert lam2 == pytest.approx(0.1)

    def test_rejected_step_keeps_parameters(self):
        rng = SplitMix64(13)
        net = init_mlp(rng, 0.5)
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        # huge lambda forces a tiny step; near a minimum it cannot improve
        for _ in range(200):
            net, _, _, _ = lm_epoch(net, x, t, 1e-3, TrainConfig())
        net2, _, _, accepted = lm_epoch(net, x, t, 1e12, TrainConfig())
        if not accepted:
            np.testing.assert_array_equal(net2.theta, net.theta)

    @pytest.mark.parametrize("solve", ["singular", "non-finite"])
    def test_unusable_step_rejected(self, monkeypatch, solve):
        def bad_solve(lhs, rhs):
            if solve == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return np.full(len(rhs), np.inf)

        net = init_mlp(SplitMix64(20), 0.5)
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        before = batch_sse(net, x, t)
        monkeypatch.setattr(np.linalg, "solve", bad_solve)
        net2, lam2, err, accepted = lm_epoch(net, x, t, 0.01, TrainConfig())
        assert net2 is net and not accepted
        assert lam2 == pytest.approx(0.1)
        assert err == before

    def test_zero_start_linear_subproblem_reaches_optimum(self):
        # from the zero net only w_out/b_out columns are active, so one
        # near-undamped epoch must land on the least-squares optimum:
        # predicting mean(t), with SSE equal to the centered energy
        rng = np.random.default_rng(14)
        x = rng.uniform(-0.5, 0.5, size=(40, 10))
        t = rng.uniform(-0.5, 0.5, size=40)
        net, _, err, accepted = lm_epoch(Mlp.zero(), x, t, 1e-12, TrainConfig())
        assert accepted
        optimum = float(np.sum((t - t.mean()) ** 2))
        assert err == pytest.approx(optimum, abs=1e-8)

    def test_sse_nonincreasing_across_epochs(self):
        x_sig = np.sin(np.linspace(0, 12, 120)) * 0.4
        errs = [err for _, err in lm_iterations(x_sig, 15, TrainConfig(init_scale=0.5), 30)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_iterations_chain_lm_epochs_from_seeded_net(self):
        x_sig = np.sin(np.linspace(0, 12, 80)) * 0.4
        config = TrainConfig(lambda_init=0.02, init_scale=0.3)
        steps = list(lm_iterations(x_sig, 16, config, 6))
        expected = reference_run(x_sig, 16, config, 6)
        assert len(steps) == 6
        for (net, err), (ref_net, ref_err) in zip(steps, expected):
            np.testing.assert_array_equal(net.theta, ref_net.theta)
            assert err == ref_err

    def test_learns_realizable_teacher(self):
        teacher_rng = SplitMix64(17)
        teacher = init_mlp(teacher_rng, 1.0)
        rng = np.random.default_rng(18)
        x = rng.uniform(-0.8, 0.8, size=(60, 10))
        t = teacher.forward_batch(x)[1]
        student = init_mlp(SplitMix64(19), 0.5)
        initial = batch_sse(student, x, t)
        lam = TrainConfig().lambda_init
        for _ in range(60):
            student, lam, final, _ = lm_epoch(student, x, t, lam, TrainConfig())
        assert final < 0.05 * initial

    def test_numpy_integer_seed(self, ar_signal):
        frame = ar_signal.samples[:200]
        runs = [[err for _, err in lm_iterations(frame, seed, TrainConfig(), 3)]
                for seed in (np.int64(5), 5)]
        assert runs[0] == runs[1]

    def test_short_frame_yields_nothing(self):
        for length, count in ((0, 0), (10, 0), (11, 3)):
            frame = np.linspace(-0.3, 0.3, length)
            assert len(list(lm_iterations(frame, 0, TrainConfig(), 3))) == count


class TestMultistart:
    def test_restart_seed_schedule(self):
        assert restart_seed(0, 0) == 0
        assert restart_seed(0, 1) == GOLDEN_GAMMA
        assert restart_seed(0, 2) == (2 * GOLDEN_GAMMA) & MASK64
        assert restart_seed(5, 1) == 5 ^ GOLDEN_GAMMA

    def test_deterministic(self):
        frame = np.sin(np.linspace(0, 12, 200)) * 0.4
        a = multistart_fit(frame, TrainConfig(), 77)
        b = multistart_fit(frame, TrainConfig(), 77)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_selects_lowest_sse_restart(self):
        frame = np.sin(np.linspace(0, 12, 200)) * 0.4
        x, t = build_training_set(frame)
        config = TrainConfig()
        best = multistart_fit(frame, config, 21)
        finals = [reference_run(frame, restart_seed(21, i), config, config.epochs)[-1]
                  for i in range(config.restarts)]
        winner = int(np.argmin([err for _, err in finals]))
        np.testing.assert_array_equal(best.theta, finals[winner][0].theta)
        assert batch_sse(best, x, t) == pytest.approx(finals[winner][1], rel=1e-12)

    def test_single_restart_equals_one_run(self):
        frame = np.sin(np.linspace(0, 12, 150)) * 0.4
        config = TrainConfig(restarts=1)
        via_multi = multistart_fit(frame, config, 33)
        via_run, _ = reference_run(frame, restart_seed(33, 0), config, config.epochs)[-1]
        np.testing.assert_array_equal(via_multi.theta, via_run.theta)

    def test_tie_goes_to_lowest_restart(self, monkeypatch):
        frame = np.zeros(50)
        nets = {restart_seed(5, i): Mlp(np.full(25, float(i))) for i in range(4)}
        final_sse = dict(zip(nets, (2.0, 1.0, 1.0, 3.0)))

        def fake_run(frame, seed, config, epochs):
            yield Mlp.zero(), 9.0
            yield nets[seed], final_sse[seed]

        monkeypatch.setattr(mlp_module, "lm_iterations", fake_run)
        best = multistart_fit(frame, TrainConfig(), 5)
        np.testing.assert_array_equal(best.theta, np.full(25, 1.0))

    def test_short_frame_zero_predictor(self):
        net = multistart_fit(np.zeros(5), TrainConfig(), 0)
        assert net.forward(np.zeros(10)) == 0.0
        np.testing.assert_array_equal(net.theta, np.zeros(25))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 6
        assert cfg.restarts == 4
        assert cfg.lambda_init == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(restarts=0)
        for name in ("lambda_init", "lambda_up", "lambda_down", "init_scale"):
            for value in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["epochs", "restarts"])
    @pytest.mark.parametrize("value", [2.5, True, 3.0, "3"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["epochs", "restarts"])
    def test_numpy_integer_counts_accepted(self, name):
        value = getattr(TrainConfig(**{name: np.int64(3)}), name)
        assert value == 3 and type(value) is int

    @pytest.mark.parametrize("name", ["lambda_init", "lambda_up", "lambda_down", "init_scale"])
    def test_numpy_reals_stored_as_float(self, name):
        value = getattr(TrainConfig(**{name: np.float32(0.3)}), name)
        assert value == float(np.float32(0.3)) and type(value) is float
        assert TrainConfig(**{name: np.float64(0.3)}) == TrainConfig(**{name: 0.3})

    def test_non_numeric_reals_still_refused(self):
        with pytest.raises(TypeError):
            TrainConfig(lambda_init="0.01")
