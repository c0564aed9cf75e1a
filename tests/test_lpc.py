"""Autocorrelation-method LPC and the Levinson-Durbin recursion."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import toeplitz

import nadpcm
from nadpcm.lpc import (
    KERNEL_CHUNK,
    KERNEL_UNROLL,
    ZERO_ENERGY_FLOOR,
    LpcModel,
    Predictor,
    _levinson_kernel,
    _tap_kernel,
    autocorrelation,
    fit,
    levinson,
)
from nadpcm.mlp import Mlp


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

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_refused(self, order):
        with pytest.raises(ValueError, match=f"^order must be >= 1, got {order}$"):
            autocorrelation(np.ones(20), order)

    @pytest.mark.parametrize("order", [True, 2.0, "10", None])
    def test_non_integer_order_refused(self, order):
        # the number rule: a bool is not an order, so fit(frame, True) fits nothing
        with pytest.raises(ValueError, match=f"^order must be an integer, got {order!r}$"):
            fit(np.ones(20), order)

    def test_numpy_integer_order_accepted(self):
        assert fit(np.sin(np.arange(40.0)), np.int64(4)).order == 4


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

    def test_constant_signal_gives_finite_unhalted_fit(self):
        # perfectly predictable, yet the 0.999 clamp keeps the error power
        # positive: at order 10 the recursion runs every stage
        model = fit(np.ones(50), 10)
        assert np.all(np.isfinite(model.coeffs))
        assert not model.halted


def reference_recursion(r):
    """The list recursion `levinson` ran before its per-order kernel, the
    kernel's reference: (coeffs, reflection, halted), with no floor check."""
    order = len(r) - 1
    a = [0.0] * order
    refl = [0.0] * order
    err = r[0]
    halted = False
    for m in range(1, order + 1):
        if err <= 0.0:
            halted = True
            break
        acc = r[m]
        for j in range(1, m):
            acc -= a[j - 1] * r[m - j]
        k = acc / err
        if k > 0.999:
            k = 0.999
        elif k < -0.999:
            k = -0.999
        refl[m - 1] = k
        prev = a[: m - 1]
        for j in range(1, m):
            a[j - 1] = prev[j - 1] - k * prev[m - 1 - j]
        a[m - 1] = k
        err *= 1.0 - k * k
    return a, refl, halted


def reference_levinson(r):
    r = np.asarray(r, dtype=np.float64).tolist()
    if r[0] < ZERO_ENERGY_FLOOR:
        return [0.0] * (len(r) - 1), [0.0] * (len(r) - 1), False
    return reference_recursion(r)


def hexes(values):
    return [float(v).hex() for v in values]


class TestLevinsonKernel:
    """The generated recursion against the list recursion, bit for bit:
    coefficients and reflection coefficients by `float.hex` (which tells
    -0.0 from 0.0), and the halted flag."""

    def check(self, r):
        model = levinson(r)
        coeffs, refl, halted = reference_levinson(r)
        assert hexes(model.coeffs) == hexes(coeffs)
        assert hexes(model.reflection) == hexes(refl)
        assert model.halted is halted
        return model

    def check_kernel(self, r):
        """The kernel alone, for r[0] that `levinson`'s floor never lets through."""
        coeffs, refl, halted = _levinson_kernel(len(r) - 1)(r)
        expected = reference_recursion(r)
        assert (hexes(coeffs), hexes(refl), halted) == (hexes(expected[0]),
                                                        hexes(expected[1]), expected[2])
        return halted, refl

    @pytest.mark.parametrize("order", [1, 2, 10, 25, 64])
    @pytest.mark.parametrize("frame_len", [11, 40, 200])
    def test_corpus_frames(self, corpus, order, frame_len):
        for signal in corpus:
            samples = signal.samples
            for start in range(0, len(samples) - frame_len + 1, len(samples) // 7):
                self.check(autocorrelation(samples[start:start + frame_len], order))

    def test_halt_at_the_first_stage(self):
        for r0 in (0.0, -0.0, -1.0, -math.inf):
            for order in (1, 10, 25):
                halted, refl = self.check_kernel([r0] + [0.5] * order)
                assert halted and refl == (0.0,) * order

    def test_halt_at_a_middle_and_the_last_stage(self):
        # from r0 at the floor, 116 stages clamped to 0.999 underflow the
        # error power to 0.0, so the check before stage 117 halts
        assert not self.check([1e-12] + [1.0] * 116).halted
        last = self.check([1e-12] + [1.0] * 117)
        assert last.halted and last.reflection[-2] != 0.0 and last.reflection[-1] == 0.0
        middle = self.check([1e-12] + [1.0] * 130)
        assert middle.halted and np.count_nonzero(middle.reflection) == 116
        # below the floor only the kernel itself sees such r0
        for r0, stages in ((5e-324, 1), (1e-320, 2), (1e-300, 9)):
            halted, refl = self.check_kernel([r0] + [1.0] * 25)
            assert halted and np.count_nonzero(refl) == stages
        halted, refl = self.check_kernel([1e-300] + [1.0] * 10)
        assert halted and np.count_nonzero(refl) == 9

    def test_both_reflection_clamps(self):
        for r in ([1.0, 2.0], [1.0, -2.0], [1.0, 0.999, 0.999], [1.0, 5.0, -5.0, 5.0],
                  [1.0, -1.0, 1.0, -1.0] * 4, [1.0, 1e300, -1e300, 1.0]):
            model = self.check(r)
            assert set(np.abs(model.reflection)) & {0.999}
        model = self.check([2.0, 3.0, 1.0, -4.0])
        assert {0.999, -0.999} <= set(model.reflection.tolist())

    def test_below_the_zero_energy_floor(self):
        # -inf r[0] is refused (test_non_finite_r_refused) before the floor
        below = np.nextafter(ZERO_ENERGY_FLOOR, 0.0)
        for r0 in (below, 0.0, -0.0, -1.0):
            for order in (1, 10, 25):
                assert self.check([r0] + [0.5] * order) == LpcModel.zero(order)
        assert self.check([ZERO_ENERGY_FLOOR] + [0.5e-12] * 10) != LpcModel.zero(10)

    def test_nan_and_infinity(self):
        # `levinson` refuses these; the kernel alone still follows the reference
        for r in ([math.nan, 1.0, 0.5], [1.0, math.nan, 0.5], [1.0, 0.5, math.nan],
                  [1.0, 0.5, 0.25, math.nan] + [0.1] * 22, [math.inf, 1.0, 0.5],
                  [1.0, math.inf, 0.5], [math.inf, math.inf, 1.0], [1.0, -math.inf, 0.5]):
            self.check_kernel(r)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("lag", [0, 1, 10])
    def test_non_finite_r_refused(self, bad, lag):
        r = [1.0] + [0.5] * 10
        r[lag] = bad
        with pytest.raises(ValueError, match=r"^autocorrelation r is not finite: \["):
            levinson(r)

    def test_fit_on_a_frame_with_nan_refused(self):
        frame = np.arange(40.0)
        frame[17] = math.nan
        with pytest.raises(ValueError, match="not finite"):
            fit(frame, 10)


class TestPredict:
    def test_newest_last_convention(self):
        model = LpcModel([0.5, 0.25], np.zeros(2))
        history = np.array([0.1, 0.4, 0.8])  # newest is 0.8
        assert model.predict(history) == pytest.approx(0.5 * 0.8 + 0.25 * 0.4)

    def test_short_history_rejected(self):
        model = LpcModel([0.5, 0.25], np.zeros(2))
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
        model = LpcModel([1.0, 1.0, 1.0], np.zeros(3))
        assert model.predict([-1e16, 1.0, 1e16]) == 0.0
        assert model.predict([1.0, -1e16, 1e16]) == 1.0

    def test_fitted_model_predicts_python_float(self, speech_like):
        model = fit(speech_like.samples[:200], 10)
        assert type(model.predict([0.1] * 10)) is float
        assert isinstance(model.coeffs, np.ndarray) and isinstance(model.reflection, np.ndarray)


class TestPredictions:
    """The closed loop's generator against the normative sum, bit for bit
    (compared by `float.hex`, which tells -0.0 from 0.0 and matches NaN),
    with each sample it is sent appended to the history."""

    @staticmethod
    def normative(taps, history):
        acc = 0.0
        for i, a in enumerate(taps):
            acc += a * history[-1 - i]
        return acc

    def run(self, model, window, sent):
        """Drive the generator as the closed loop does and check every
        prediction against the normative loop by its bits."""
        predictions = model.predictions(tuple(window))
        yielded = [next(predictions)] + [predictions.send(xr) for xr in sent]
        assert all(type(p) is float for p in yielded)
        history = list(window) + list(sent)
        expected = [self.normative(model.coeffs.tolist(), history[:len(window) + k])
                    for k in range(len(sent) + 1)]
        assert [p.hex() for p in yielded] == [p.hex() for p in expected]
        return yielded

    @pytest.mark.parametrize("order", [1, 10, 25])
    def test_matches_newest_first_sum(self, speech_like, order):
        model = fit(speech_like.samples[:200], order)
        self.run(model, speech_like.samples[200:225].tolist(),
                 speech_like.samples[225:425].tolist())

    @pytest.mark.parametrize("order", [0, 1, 2, 10, 25, 3 * KERNEL_CHUNK + 5, 3000])
    def test_every_order_matches_newest_first_sum(self, order):
        # 3000 taps in one expression overflow the compiler's recursion limit
        rng = np.random.default_rng(order)
        model = LpcModel(rng.uniform(-1.0, 1.0, order), np.zeros(order))
        window = rng.standard_normal(order + 3).tolist()
        self.run(model, window, rng.standard_normal(40).tolist())

    @pytest.mark.parametrize("order", [0, 1, 10, 25, 3 * KERNEL_CHUNK + 5])
    @pytest.mark.parametrize("count", [1, KERNEL_UNROLL - 1, KERNEL_UNROLL, KERNEL_UNROLL + 1,
                                       2 * KERNEL_UNROLL, 3 * KERNEL_UNROLL - 1,
                                       3 * KERNEL_UNROLL + 5])
    def test_pass_and_tail_boundaries(self, order, count):
        # count predictions: part of a pass alone (the generator is left
        # suspended mid-pass), whole passes alone, and both
        rng = np.random.default_rng([order, count])
        model = LpcModel(rng.uniform(-1.0, 1.0, order), np.zeros(order))
        window = rng.standard_normal(order + 2).tolist()
        assert len(self.run(model, window, rng.standard_normal(count - 1).tolist())) == count

    def test_sent_samples_sum_uncompensated(self):
        # the cancellation case of TestPredict, reached through sent samples
        model = LpcModel([1.0, 1.0, 1.0], np.zeros(3))
        predictions = model.predictions([0.0] * 3)
        next(predictions)
        assert [predictions.send(x) for x in (-1e16, 1.0, 1e16)] == [-1e16, -1e16 + 1.0, 0.0]

    @pytest.mark.parametrize("order", [1, 2, 10, 3000])
    def test_negative_zero_products_sum_to_positive_zero(self, order):
        # every product is -0.0; only the 0.0 start makes the sum +0.0
        model = LpcModel([1.0] * order, np.zeros(order))
        yielded = self.run(model, [-0.0] * order, [-0.0] * 3)
        assert [p.hex() for p in yielded] == ["0x0.0p+0"] * 4
        flipped = LpcModel([-1.0] * order, np.zeros(order))
        assert self.run(flipped, [0.0] * order, [0.0] * 3)[-1].hex() == "0x0.0p+0"

    def test_infinities_and_nan_sent(self):
        model = LpcModel([1.0, 0.5], np.zeros(2))
        yielded = self.run(model, [0.0, 0.0], [math.inf, -math.inf, 1.0, math.nan, 0.0, 0.0])
        assert [p.hex() for p in yielded] == ["0x0.0p+0", "inf", "nan", "-inf", "nan", "nan",
                                              "0x0.0p+0"]
        self.run(LpcModel(np.full(25, 0.25), np.zeros(25)), [1.0] * 25,
                 [-math.inf, math.inf, math.nan] + [2.0] * 30)

    def test_one_kernel_per_order(self):
        assert _tap_kernel(10) is _tap_kernel(10)
        assert _tap_kernel(10) is not _tap_kernel(25)
        assert _levinson_kernel(10) is _levinson_kernel(10)
        assert _levinson_kernel(10) is not _levinson_kernel(25)
        misses = _levinson_kernel.cache_info().misses
        levinson(autocorrelation(np.arange(30.0), 10))
        levinson(autocorrelation(np.arange(30.0) ** 2, 10))
        assert _levinson_kernel.cache_info().misses == misses
        a, b = LpcModel(np.ones(10), np.zeros(10)), LpcModel.zero(10)
        assert a.predictions([0.0] * 10).gi_code is b.predictions([0.0] * 10).gi_code
        assert a.predictions([0.0] * 10).gi_code is _tap_kernel(10).__code__

    def test_kernels_call_no_global(self):
        # generated kernels are not in the module's AST: their names show
        # whether a numpy, math or BLAS call has entered the arithmetic
        for order in (0, 10, 25):
            assert _tap_kernel(order).__code__.co_names == ()
        for order in (1, 10, 25):
            assert _levinson_kernel(order).__code__.co_names == ()

    def test_import_builds_no_kernel(self):
        code = ("import nadpcm.lpc as lpc, nadpcm.mlp as mlp; "
                "print(lpc._tap_kernel.cache_info().currsize, "
                "lpc._levinson_kernel.cache_info().currsize, "
                "mlp._forward_kernel.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(nadpcm.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "0 0 0"

    def test_short_history_rejected_on_call(self):
        with pytest.raises(ValueError):
            LpcModel([0.5, 0.25], np.zeros(2)).predictions([1.0])

    def test_numpy_history_gives_python_floats(self):
        model = LpcModel([0.5, 0.25], np.zeros(2))
        history = np.array([0.1, 0.4, 0.8], dtype=np.float32)
        p = model.predict(history)
        assert type(p) is float
        assert p == 0.5 * float(np.float32(0.8)) + 0.25 * float(np.float32(0.4))


class TestPredictor:
    """`LpcModel` and `Mlp` are one prediction stream: its methods are
    written once, on `Predictor`."""

    KINDS = [LpcModel.zero(10), LpcModel.zero(25), Mlp.zero()]
    IDS = ["lpc10", "lpc25", "mlp"]

    @pytest.mark.parametrize("name", ["predictions", "predict", "__eq__", "__hash__"])
    def test_methods_defined_on_the_base_alone(self, name):
        assert name in Predictor.__dict__
        for cls in (LpcModel, Mlp):
            assert issubclass(cls, Predictor) and name not in cls.__dict__
            assert getattr(cls, name) is Predictor.__dict__[name]

    @pytest.mark.parametrize("predictor", KINDS, ids=IDS)
    def test_short_history_gives_one_message(self, predictor):
        order = predictor.order
        for call in (predictor.predictions, predictor.predict):
            with pytest.raises(ValueError, match=f"^history of {order - 1} too short for "
                                                 f"order {order}$"):
                call([0.0] * (order - 1))

    @pytest.mark.parametrize("predictor", KINDS, ids=IDS)
    def test_params_are_python_floats(self, predictor):
        assert type(predictor.params) is tuple
        assert all(type(p) is float for p in predictor.params)
        assert predictor.predictions([0.0] * predictor.order).gi_code is \
            predictor._kernel().__code__

    def test_kinds_never_equal(self):
        # ten zero taps and the zero net both predict 0.0 from ten samples
        assert LpcModel.zero(10) != Mlp.zero() and Mlp.zero() != LpcModel.zero(10)
        assert len({LpcModel.zero(10), Mlp.zero(), LpcModel.zero(10), Mlp.zero()}) == 2


class TestModel:
    @pytest.mark.parametrize("coeffs", [[], [0.5], np.full(25, 0.25)], ids=["0", "1", "25"])
    def test_order_is_the_coefficient_count(self, coeffs):
        model = LpcModel(coeffs)
        assert model.order == len(coeffs) and model.coeffs.tolist() == list(coeffs)
        assert model.reflection.shape == (0,) and not model.halted

    @pytest.mark.parametrize("coeffs", [0.5, [[0.5, 0.25]], np.zeros((1, 0))],
                             ids=["scalar", "row", "empty-row"])
    def test_coefficients_not_one_dimensional_refused(self, coeffs):
        with pytest.raises(ValueError, match="one-dimensional"):
            LpcModel(coeffs)

    def test_order_is_not_an_argument(self):
        with pytest.raises(TypeError):
            LpcModel([0.5, 0.25], order=2)

    @pytest.mark.parametrize("r", [[0.0] * 11, [1.0, 0.9, 0.81], [1e-12] + [1.0] * 130],
                             ids=["silent", "ar1", "halted"])
    def test_fits_carry_a_full_reflection_vector(self, r):
        # stages that never ran hold 0.0; only a model no fit produced is empty
        model = levinson(r)
        assert model.reflection.shape == (model.order,) == (len(r) - 1,)
        assert LpcModel.zero(4).reflection.tolist() == [0.0] * 4


class TestEquality:
    def test_equal_values_equal_models(self, speech_like):
        assert LpcModel.zero(3) == LpcModel.zero(3)
        assert hash(LpcModel.zero(3)) == hash(LpcModel.zero(3))
        a, b = fit(speech_like.samples[:200], 10), fit(speech_like.samples[:200], 10)
        assert a is not b and a == b and hash(a) == hash(b)
        assert LpcModel([0.5, 0.25], (0.1, 0.2)) == LpcModel(np.array([0.5, 0.25]), [0.1, 0.2])
        assert len({a, b, LpcModel.zero(3), LpcModel.zero(3), LpcModel.zero(10)}) == 3

    def test_each_field_counts(self):
        model = LpcModel([0.5, 0.25], [0.1, 0.2])
        assert model != LpcModel.zero(2) and LpcModel.zero(2) != LpcModel.zero(3)
        assert model != LpcModel([0.5, np.nextafter(0.25, 1.0)], [0.1, 0.2])
        assert model != LpcModel([0.5, 0.25], [0.1, 0.3])
        assert model != LpcModel([0.5, 0.25], [[0.1, 0.2]])  # same bytes, other shape
        assert model != LpcModel([0.5, 0.25], [0.1, 0.2], halted=True)
        assert LpcModel.zero(1) != LpcModel([-0.0], [0.0])  # the bytes of -0.0 differ

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
