"""Autocorrelation-method LPC and the Levinson-Durbin recursion."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from nadpcm.lpc import LpcModel, autocorrelation, fit, levinson


def normal_equation_coeffs(r, order):
    """Direct Toeplitz solve: the oracle Levinson must match."""
    return np.linalg.solve(toeplitz(r[:order]), r[1:order + 1])


class TestAutocorrelation:
    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        frame = rng.standard_normal(64)
        r = autocorrelation(frame, 5)
        for lag in range(6):
            expected = float(np.dot(frame[:64 - lag], frame[lag:]))
            assert r[lag] == pytest.approx(expected, rel=1e-12)

    def test_lags_beyond_frame_are_zero(self):
        r = autocorrelation(np.ones(3), 5)
        assert r[3] == r[4] == r[5] == 0.0

    def test_lag0_is_energy(self):
        frame = np.array([1.0, -2.0, 3.0])
        assert autocorrelation(frame, 1)[0] == 14.0


class TestLevinson:
    def test_exact_ar1_autocorrelation(self):
        # r_k = 0.9^k is the autocorrelation of x(n) = 0.9 x(n-1) + e(n)
        model = levinson(np.array([1.0, 0.9, 0.81]))
        np.testing.assert_allclose(model.coeffs, [0.9, 0.0], atol=1e-12)
        assert not model.halted

    def test_matches_normal_equations_on_random_frames(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            order = int(rng.integers(1, 6))
            frame = rng.standard_normal(120)
            r = autocorrelation(frame, order)
            model = levinson(r)
            expected = normal_equation_coeffs(r, order)
            np.testing.assert_allclose(model.coeffs, expected, rtol=1e-8, atol=1e-10)

    def test_near_silent_frame_gives_zero_model(self):
        model = levinson(np.zeros(11))
        assert model.order == 10
        np.testing.assert_array_equal(model.coeffs, np.zeros(10))

    def test_reflection_coefficients_bounded(self):
        rng = np.random.default_rng(8)
        frame = rng.standard_normal(300)
        model = levinson(autocorrelation(frame, 10))
        assert np.all(np.abs(model.reflection) <= 0.999)

    def test_constant_signal_halts_cleanly(self):
        # perfectly predictable: error power hits zero mid-recursion
        model = fit(np.ones(50), 10)
        assert np.all(np.isfinite(model.coeffs))


class TestPredict:
    def test_newest_last_convention(self):
        model = LpcModel(2, [0.5, 0.25], np.zeros(2))
        history = np.array([0.1, 0.4, 0.8])  # newest is 0.8
        assert model.predict(history) == pytest.approx(0.5 * 0.8 + 0.25 * 0.4)

    def test_short_history_rejected(self):
        model = LpcModel(2, [0.5, 0.25], np.zeros(2))
        with pytest.raises(ValueError):
            model.predict(np.array([1.0]))

    def test_zero_model_predicts_zero(self):
        model = LpcModel.zero(10)
        assert model.predict(np.arange(10, dtype=float)) == 0.0

    def test_summation_newest_first_uncompensated(self):
        """The normative order: newest sample first, plain float adds.

        1e16 + 1.0 rounds back to 1e16, so the first history sums to 0.0
        where a compensated sum (math.fsum, Python 3.12's sum()) gives the
        exact 1.0; the second gives 1.0 newest first but 0.0 oldest first.
        """
        model = LpcModel(3, [1.0, 1.0, 1.0], np.zeros(3))
        assert model.predict([-1e16, 1.0, 1e16]) == 0.0
        assert model.predict([1.0, -1e16, 1e16]) == 1.0

    def test_fitted_model_predicts_python_float(self, speech_like):
        model = fit(speech_like.samples[:200], 10)
        assert type(model.predict([0.1] * 10)) is float
        assert isinstance(model.coeffs, np.ndarray) and isinstance(model.reflection, np.ndarray)


class TestPredictions:
    """The closed loop's generator against the normative sum, bit for bit,
    with each sample it is sent appended to the history."""

    @staticmethod
    def normative(model, history):
        acc = 0.0
        for i, a in enumerate(model.coeffs.tolist()):
            acc += a * history[-1 - i]
        return acc

    @pytest.mark.parametrize("order", [1, 10, 25])
    def test_matches_newest_first_sum(self, speech_like, order):
        model = fit(speech_like.samples[:200], order)
        window = speech_like.samples[200:225].tolist()
        sent = speech_like.samples[225:425].tolist()
        predictions = model.predictions(tuple(window), len(sent))
        yielded = [next(predictions)] + [predictions.send(xr) for xr in sent]
        assert all(type(p) is float for p in yielded)
        assert yielded == [self.normative(model, window + sent[:k]) for k in range(len(sent) + 1)]
        with pytest.raises(StopIteration):
            predictions.send(0.0)

    def test_sent_samples_sum_uncompensated(self):
        # the cancellation case of TestPredict, reached through sent samples
        model = LpcModel(3, [1.0, 1.0, 1.0], np.zeros(3))
        predictions = model.predictions([0.0] * 3, 3)
        next(predictions)
        assert [predictions.send(x) for x in (-1e16, 1.0, 1e16)] == [-1e16, -1e16 + 1.0, 0.0]

    def test_numpy_history_gives_python_floats(self):
        model = LpcModel(2, [0.5, 0.25], np.zeros(2))
        history = np.array([0.1, 0.4, 0.8], dtype=np.float32)
        p = model.predict(history)
        assert type(p) is float
        assert p == 0.5 * float(np.float32(0.8)) + 0.25 * float(np.float32(0.4))


class TestEquality:
    def test_equal_values_equal_models(self, speech_like):
        assert LpcModel.zero(3) == LpcModel.zero(3)
        assert hash(LpcModel.zero(3)) == hash(LpcModel.zero(3))
        a, b = fit(speech_like.samples[:200], 10), fit(speech_like.samples[:200], 10)
        assert a is not b and a == b and hash(a) == hash(b)
        assert LpcModel(2, [0.5, 0.25], (0.1, 0.2)) == LpcModel(2, np.array([0.5, 0.25]),
                                                                 [0.1, 0.2])
        assert len({a, b, LpcModel.zero(3), LpcModel.zero(3), LpcModel.zero(10)}) == 3

    def test_each_field_counts(self):
        model = LpcModel(2, [0.5, 0.25], [0.1, 0.2])
        assert model != LpcModel.zero(2) and LpcModel.zero(2) != LpcModel.zero(3)
        assert model != LpcModel(2, [0.5, np.nextafter(0.25, 1.0)], [0.1, 0.2])
        assert model != LpcModel(2, [0.5, 0.25], [0.1, 0.3])
        assert model != LpcModel(2, [0.5, 0.25], [[0.1, 0.2]])  # same bytes, other shape
        assert model != LpcModel(2, [0.5, 0.25], [0.1, 0.2], halted=True)
        assert LpcModel.zero(1) != LpcModel(1, [-0.0], [0.0])  # the bytes of -0.0 differ

    def test_other_types_are_not_equal(self):
        assert LpcModel.zero(0) != () and LpcModel.zero(2) != None  # noqa: E711
        assert (LpcModel.zero(1) == 0) is False


class TestFit:
    def test_recovers_ar2_coefficients(self):
        rng = np.random.default_rng(9)
        n = 20000
        from scipy.signal import lfilter
        x = lfilter([1.0], [1.0, -1.2, 0.5], rng.standard_normal(n))
        model = fit(x, 2)
        np.testing.assert_allclose(model.coeffs, [1.2, -0.5], atol=0.02)

    def test_prediction_gain_positive_on_speech(self, speech_like):
        frame = speech_like.samples[1000:1200]
        model = fit(frame, 10)
        pred = np.array([model.predict(frame[i - 10:i]) for i in range(10, 200)])
        resid = frame[10:] - pred
        assert np.dot(resid, resid) < np.dot(frame[10:], frame[10:])
