"""SplitMix64 PRNG, the 10-2-1 net, and Levenberg-Marquardt training."""

import numpy as np
import pytest
from scipy.special import expit

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
    sse,
    train,
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
        net = Mlp.from_vector(theta)
        np.testing.assert_array_equal(net.w_in[0], np.arange(10))
        np.testing.assert_array_equal(net.w_in[1], np.arange(10, 20))
        np.testing.assert_array_equal(net.b_hid, [20, 21])
        np.testing.assert_array_equal(net.w_out, [22, 23])
        assert net.b_out == 24.0

    def test_vector_round_trip(self):
        rng = SplitMix64(3)
        net = init_mlp(rng, 0.5)
        np.testing.assert_array_equal(Mlp.from_vector(net.to_vector()).to_vector(),
                                      net.to_vector())

    def test_init_range_and_draw_count(self):
        rng = SplitMix64(4)
        net = init_mlp(rng, 0.5)
        theta = net.to_vector()
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
        net = Mlp.zero()
        net = Mlp(w_in=net.w_in, b_hid=net.b_hid, w_out=np.ones(2), b_out=0.0)
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
        batch = net.forward_batch(x)
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
        np.testing.assert_allclose(r, t - net.forward_batch(x), rtol=1e-15)

    def test_matches_finite_differences(self):
        rng = SplitMix64(10)
        step = 1e-6
        for _ in range(10):
            net = init_mlp(rng, 0.5)
            x = np.array([[rng.uniform(-0.8, 0.8) for _ in range(10)]
                          for _ in range(3)])
            t = np.array([rng.uniform(-0.8, 0.8) for _ in range(3)])
            jac, _ = residual_jacobian(net, x, t)
            theta = net.to_vector()
            for p in range(25):
                up, dn = theta.copy(), theta.copy()
                up[p] += step
                dn[p] -= step
                fd = (
                    (t - Mlp.from_vector(up).forward_batch(x))
                    - (t - Mlp.from_vector(dn).forward_batch(x))
                ) / (2 * step)
                mask = np.abs(fd) > 1e-8
                np.testing.assert_allclose(jac[:, p][mask], fd[mask], rtol=1e-4)


class TestLevenbergMarquardt:
    def test_accepted_step_reduces_sse(self):
        rng = SplitMix64(11)
        net = init_mlp(rng, 0.5)
        x, t = build_training_set(np.sin(np.linspace(0, 6, 50)) * 0.4)
        before = sse(net, x, t)
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
            np.testing.assert_array_equal(net2.to_vector(), net.to_vector())

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
        rng = SplitMix64(15)
        x_sig = np.sin(np.linspace(0, 12, 120)) * 0.4
        x, t = build_training_set(x_sig)
        net = init_mlp(rng, 0.5)
        errs = [err for _, err in lm_iterations(net, x, t, TrainConfig(), 30)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_train_runs_exact_epoch_count(self):
        rng = SplitMix64(16)
        x_sig = np.sin(np.linspace(0, 12, 80)) * 0.4
        x, t = build_training_set(x_sig)
        net0 = init_mlp(rng, 0.5)
        net_a, err_a = train(net0, x, t, TrainConfig(epochs=6))
        steps = list(lm_iterations(net0, x, t, TrainConfig(epochs=6), 6))
        np.testing.assert_array_equal(net_a.to_vector(), steps[-1][0].to_vector())
        assert err_a == steps[-1][1]

    def test_learns_realizable_teacher(self):
        teacher_rng = SplitMix64(17)
        teacher = init_mlp(teacher_rng, 1.0)
        rng = np.random.default_rng(18)
        x = rng.uniform(-0.8, 0.8, size=(60, 10))
        t = teacher.forward_batch(x)
        student = init_mlp(SplitMix64(19), 0.5)
        initial = sse(student, x, t)
        trained, final = train(student, x, t, TrainConfig(epochs=60))
        assert final < 0.05 * initial

    def test_empty_training_set_returns_unchanged(self):
        net = Mlp.zero()
        out, err = train(net, np.empty((0, 10)), np.empty(0), TrainConfig())
        assert err == 0.0
        np.testing.assert_array_equal(out.to_vector(), net.to_vector())


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
        np.testing.assert_array_equal(a.to_vector(), b.to_vector())

    def test_selects_lowest_sse_restart(self):
        frame = np.sin(np.linspace(0, 12, 200)) * 0.4
        x, t = build_training_set(frame)
        config = TrainConfig()
        best = multistart_fit(frame, config, 21)
        finals = []
        for i in range(config.restarts):
            net = init_mlp(SplitMix64(restart_seed(21, i)), config.init_scale)
            _, err = train(net, x, t, config)
            finals.append(err)
        assert sse(best, x, t) == pytest.approx(min(finals), rel=1e-12)

    def test_single_restart_equals_plain_train(self):
        frame = np.sin(np.linspace(0, 12, 150)) * 0.4
        x, t = build_training_set(frame)
        config = TrainConfig(restarts=1)
        via_multi = multistart_fit(frame, config, 33)
        net = init_mlp(SplitMix64(restart_seed(33, 0)), config.init_scale)
        via_train, _ = train(net, x, t, config)
        np.testing.assert_array_equal(via_multi.to_vector(), via_train.to_vector())

    def test_short_frame_zero_predictor(self):
        net = multistart_fit(np.zeros(5), TrainConfig(), 0)
        assert net.forward(np.zeros(10)) == 0.0
        np.testing.assert_array_equal(net.to_vector(), Mlp.zero().to_vector())


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
