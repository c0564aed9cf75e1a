"""Closed-loop codec: frame coding, adaptation modes, hybrid switching."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import linear_ar, nonlinear_ar, tone_noise
from nadpcm import (
    Adaptation,
    Bitstream,
    BitstreamError,
    BitstreamHeader,
    CodecConfig,
    FramePayload,
    PredictorKind,
    Signal,
    codec,
    decode,
    encode,
    lpc,
    mlp,
    parse,
    serialize,
)
from nadpcm.bitstream import FORWARD_COEFF_COUNT, frame_row
from nadpcm.codec import (
    ZERO,
    decode_frame,
    encode_frame,
    fit_predictor,
    frame_predictor,
    initial_state,
)
from nadpcm.harness import (
    METHODS,
    MethodRow,
    epoch_sweep,
    evaluate_methods,
    frame_length_sweep,
    method_config,
    significance_matrix,
)
from nadpcm.mlp import EPOCHS, RESTARTS, Mlp, SplitMix64, multistart_fit
from nadpcm.quantizer import AdaptiveQuantizer, code_range, dequantize, next_step, quantize


def hand_trace_state():
    """The initial 2-bit state, with its step set to 0.1."""
    return replace(initial_state(CodecConfig(frame_len=4, bits=2)), step=0.1)


class TestEncodeFrame:
    def test_hand_computed_trace(self):
        """Four-sample closed loop with the zero predictor, worked by hand.

        x = [0.05, -0.12, 0.30, 0.00], 2 bits, step 0.1, multipliers
        (0.8, 1.6): codes [0, -2, 1, 0], final step 0.16384, and the only
        reconstruction errors come from the clamped third sample and the
        midrise offset of the fourth.
        """
        frame = np.array([0.05, -0.12, 0.30, 0.00])
        codes, state, sse = encode_frame(hand_trace_state(), frame, ZERO)
        assert codes == [0, -2, 1, 0]
        np.testing.assert_allclose(state.recon, [0.05, -0.12, 0.192, 0.1024], rtol=1e-12)
        assert sse == pytest.approx(0.02214976, rel=1e-10)
        assert state.step == pytest.approx(0.16384, rel=1e-12)

    def test_decode_frame_mirrors_encode(self):
        frame = np.array([0.05, -0.12, 0.30, 0.00])
        state0 = hand_trace_state()
        codes, enc_state, _ = encode_frame(state0, frame, ZERO)
        dec_state = decode_frame(state0, codes, ZERO)
        np.testing.assert_array_equal(dec_state.recon, enc_state.recon)
        assert dec_state.history == enc_state.history
        assert dec_state.step == enc_state.step

    def test_zero_frame_decays_step(self):
        config = CodecConfig(frame_len=200, bits=4)
        codes, state, _ = encode_frame(initial_state(config), np.zeros(200), ZERO)
        assert set(codes) == {0}
        assert state.step == config.step_min
        assert np.max(np.abs(state.recon)) <= config.step_init / 2

    def test_granular_error_bound_with_good_predictor(self):
        # residual stays inside the innermost cells: error <= step/2
        config = CodecConfig(frame_len=100, bits=4)
        frame = np.full(100, 0.009)  # zero predictor residual < step/2 = 0.01
        recon = encode_frame(initial_state(config), frame, ZERO)[1].recon
        assert abs(recon[0] - frame[0]) <= config.step_init / 2

    def test_history_continues_across_frames(self):
        config = CodecConfig(frame_len=8, bits=3)
        rng = np.random.default_rng(3)
        f1, f2 = rng.uniform(-0.3, 0.3, 8), rng.uniform(-0.3, 0.3, 8)
        _, state1, _ = encode_frame(initial_state(config), f1, ZERO)
        assert state1.history[-1] == state1.recon[-1]
        _, state2, _ = encode_frame(state1, f2, ZERO)
        assert state2.frame_index == 2


def rule_loop(state, inputs, predictor, received):
    """The closed loop written with the quantizer's rule functions, which
    `_closed_loop` inlines: (codes, reconstruction, steps), `steps` being
    the step before each sample and then the final step."""
    config = state.config
    steps = [state.step]
    codes, recon = [], []
    predictions = predictor.predictions(state.history)
    p = next(predictions)
    for x in inputs:
        step = steps[-1]
        c = x if received else quantize(x - p, step, config.bits)
        xr = p + dequantize(c, step)
        steps.append(next_step(step, c, config.multipliers, config.step_min, config.step_max))
        codes.append(c)
        recon.append(xr)
        p = predictions.send(xr)
    return codes, recon, steps


def tracking_inputs(state, predictor, n):
    """n inputs that each equal the loop's prediction, so each residual is
    0.0 and each code 0: the step falls to step_min under any predictor."""
    config, step, inputs = state.config, state.step, []
    predictions = predictor.predictions(state.history)
    p = next(predictions)
    for _ in range(n):
        inputs.append(p)
        xr = p + dequantize(0, step)
        step = next_step(step, 0, config.multipliers, config.step_min, config.step_max)
        p = predictions.send(xr)
    return inputs


def on_boundary(j, step):
    """An x with x / step == j exactly, j * step or a float next to it, or
    None where the step admits none."""
    x = j * step
    return next((c for c in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
                 if c / step == j), None)


class TestLoopMatchesRule:
    """`_closed_loop` against `quantize`/`dequantize`/`next_step` replayed
    over its own output, bit for bit: codes, reconstruction (by
    `float.hex`) and final step, encoding and following the codes."""

    def check(self, state, frame, predictor):
        codes, enc_state, _ = codec._closed_loop(state, frame, predictor)
        rule_codes, rule_recon, steps = rule_loop(state, [float(x) for x in frame], predictor,
                                                  received=False)
        assert codes == rule_codes
        assert [x.hex() for x in enc_state.recon.tolist()] == [x.hex() for x in rule_recon]
        assert enc_state.step.hex() == steps[-1].hex()
        _, dec_state, _ = codec._closed_loop(state, None, predictor, codes)
        followed, _, dec_steps = rule_loop(state, codes, predictor, received=True)
        assert followed == codes and dec_steps == steps
        assert [x.hex() for x in dec_state.recon.tolist()] == [x.hex() for x in rule_recon]
        assert dec_state.step.hex() == steps[-1].hex()
        return codes, steps

    @pytest.mark.parametrize("bits", [2, 3, 4, 5])
    @pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
    @pytest.mark.parametrize("linear", [False, True], ids=["zero", "lpc10"])
    def test_speech_silence_and_overload(self, speech_like, bits, custom, linear):
        # from step_init or from a custom step near step_max, both clamps
        # are reached: inputs that track the prediction take the step to
        # step_min, the full-scale square wave to step_max through the
        # overload cells, then speech
        config = CodecConfig(frame_len=400, bits=bits)
        state = initial_state(config)
        if custom:
            state = replace(state, step=0.4)
        samples = speech_like.samples
        predictor = lpc.fit(samples[1000:1200], 10) if linear else ZERO
        frame = np.concatenate([tracking_inputs(state, predictor, 120),
                                np.tile([4.0, -4.0], 40), samples[1200:1400]])
        codes, steps = self.check(state, frame, predictor)
        assert config.step_min in steps and config.step_max in steps
        assert set(code_range(bits)) <= set(codes)

    @pytest.mark.parametrize("bits", [2, 3, 4, 5])
    def test_residual_on_a_cell_boundary(self, bits):
        # 64 residuals with level x / step exactly j, on the lower boundary
        # of cell j, j running over every code and one past each end; where
        # the step admits no such x, cell midpoints (level 0.5, exact)
        # shrink it first, down to the dyadic step_min at worst
        config = CodecConfig(bits=bits)
        code_min, code_max = code_range(bits)
        span = code_max - code_min + 3
        step, frame, levels = config.step_init, [], []
        for j in (k % span + code_min - 1 for k in range(64)):
            while on_boundary(j, step) is None:
                frame.append(0.5 * step)
                levels.append(0.5)
                step = next_step(step, 0, config.multipliers, config.step_min, config.step_max)
            frame.append(on_boundary(j, step))
            levels.append(j)
            c = quantize(frame[-1], step, bits)
            step = next_step(step, c, config.multipliers, config.step_min, config.step_max)
        config = replace(config, frame_len=len(frame))
        codes, steps = self.check(initial_state(config), np.array(frame), ZERO)
        assert [x / s for x, s in zip(frame, steps)] == levels
        assert codes == [min(max(math.floor(j), code_min), code_max) for j in levels]

    @pytest.mark.parametrize("bits", [2, 3, 4, 5])
    def test_out_of_range_code_raises(self, bits):
        config = CodecConfig(frame_len=4, bits=bits)
        code_min, code_max = code_range(bits)
        for bad in (code_max + 1, code_min - 1, 99, -99):
            with pytest.raises(IndexError):
                decode_frame(initial_state(config), [0, bad, 0, 0], ZERO)


class TestHybridFrame:
    def test_commits_smaller_sse_branch(self, speech_like):
        config = CodecConfig(predictor_kind=PredictorKind.HYBRID)
        signal = Signal(speech_like.samples[:1000], speech_like.sample_rate)
        result = encode(signal, config)
        frames = signal.samples.reshape(5, 200)
        state = initial_state(config)
        for frame, payload, stat in zip(frames, result.bitstream.payloads, result.frame_stats):
            if state.recon is not None:
                # re-simulate both branches, LPC-10 (0) and MLP (1), from
                # the same state
                sses = tuple(
                    encode_frame(state, frame, frame_predictor(
                        state, FramePayload((), candidate=candidate)))[2]
                    for candidate in (0, 1))
                assert stat.branch_sses == sses
                assert payload.candidate == int(np.argmin(sses))
                assert stat.sse == min(sses)
            codes, state, _ = encode_frame(state, frame, frame_predictor(state, payload))
            assert tuple(codes) == payload.codes

    def test_tie_goes_to_linear(self, monkeypatch):
        # both branches fit the zero predictor, so they code every frame
        # alike and every frame ties
        monkeypatch.setattr(codec, "multistart_fit", lambda *args: Mlp.zero())
        monkeypatch.setattr(lpc, "fit", lambda frame, order: lpc.LpcModel.zero(order))
        config = CodecConfig(predictor_kind=PredictorKind.HYBRID, frame_len=20, bits=2)
        signal = Signal(np.random.default_rng(6).uniform(-0.3, 0.3, 100), 8000)
        result = encode(signal, config)
        assert [p.candidate for p in result.bitstream.payloads] == [0] * 5
        for stat in result.frame_stats[1:]:
            sse_l, sse_n = stat.branch_sses
            assert sse_l == sse_n == stat.sse


def state_fields(state):
    """A `CodecState` as comparable values, its reals bit for bit."""
    recon = None if state.recon is None else state.recon.tobytes()
    return [x.hex() for x in state.history], state.step.hex(), state.frame_index, recon


class TestFrameState:
    @pytest.mark.parametrize("method", list(METHODS))
    def test_decoder_steps_through_the_encoders_states(self, monkeypatch, speech_like, method):
        """The state the encoder commits before each frame is the state
        `decode` steps through, field by field."""
        base = CodecConfig(frame_len=100)
        config = method_config(base, method, 3)
        signal = Signal(speech_like.samples[:400], speech_like.sample_rate)
        committed, stepped = [], []
        def committing(state, frame, candidates=codec._candidates):
            committed.append(state)
            return candidates(state, frame)

        def stepping(state, codes, predictor, decode_frame=codec.decode_frame):
            stepped.append(state)
            return decode_frame(state, codes, predictor)

        monkeypatch.setattr(codec, "_candidates", committing)
        bitstream = encode(signal, config).bitstream
        monkeypatch.setattr(codec, "decode_frame", stepping)
        decode(bitstream)
        assert len(committed) == len(stepped) == 4
        assert [state_fields(s) for s in committed] == [state_fields(s) for s in stepped]
        assert all(s.config == config for s in committed + stepped)
        assert committed[0].recon is None
        assert not any(s.recon.flags.writeable for s in committed[1:])


class TestCodecConfig:
    def test_hybrid_forward_rejected(self):
        with pytest.raises(ValueError):
            CodecConfig(predictor_kind=PredictorKind.HYBRID,
                        adaptation=Adaptation.FORWARD)

    def test_bits_range(self):
        for bits in (1, 6):
            with pytest.raises(ValueError):
                CodecConfig(bits=bits)

    def test_neural_needs_trainable_frames(self):
        with pytest.raises(ValueError):
            CodecConfig(predictor_kind=PredictorKind.MLP, frame_len=10)
        CodecConfig(predictor_kind=PredictorKind.LPC10, frame_len=10)

    def test_header_field_bounds(self):
        # frame_len is a u16 in the header
        assert CodecConfig(frame_len=0xFFFF).frame_len == 0xFFFF
        with pytest.raises(ValueError, match="^frame_len 65536 not representable in header$"):
            CodecConfig(frame_len=0x10000)

    @pytest.mark.parametrize("name, build", [
        ("frame_len", lambda: CodecConfig(frame_len=200.5)),
        ("bits", lambda: CodecConfig(bits=4.0)),
        ("seed", lambda: CodecConfig(seed=1.5)),
        ("sample_rate", lambda: BitstreamHeader(8000.5, 400, CodecConfig())),
        ("true_sample_count", lambda: BitstreamHeader(8000, 400.0, CodecConfig())),
        # checked before the sign, which a string cannot be compared for
        pytest.param("sample_rate", lambda: BitstreamHeader("8000", 400, CodecConfig()),
                     id="sample_rate-str"),
        pytest.param("true_sample_count", lambda: BitstreamHeader(8000, "400", CodecConfig()),
                     id="true_sample_count-str"),
    ])
    def test_header_integers_must_be_integers(self, name, build):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build()

    def test_numpy_integers_accepted(self):
        config = CodecConfig(frame_len=np.int64(200), bits=np.uint8(4), seed=np.int64(-1))
        assert config == CodecConfig(frame_len=200, bits=4, seed=2**64 - 1)
        assert type(config.frame_len) is int and type(config.bits) is int
        header = BitstreamHeader(np.int64(8000), np.int64(400), config)
        bitstream = encode(Signal(np.zeros(400), header.sample_rate), config).bitstream
        assert parse(serialize(bitstream)).header == header

    def test_multipliers_default_to_table(self):
        assert CodecConfig(bits=3).multipliers == (0.9, 0.9, 1.25, 1.75)

    def test_payload_bit_rate(self):
        assert CodecConfig(bits=2).payload_bit_rate(8000) == 16000
        assert CodecConfig(bits=5).payload_bit_rate(8000) == 40000
        # the candidate field per 200-sample frame: ceil(log2 2) = 1 bit
        # for the hybrid, ceil(log2 1) = 0 for backward MLP; forward sends none
        hybrid = CodecConfig(bits=4, predictor_kind=PredictorKind.HYBRID)
        assert hybrid.payload_bit_rate(8000) == pytest.approx(32040.0)
        mlp = CodecConfig(bits=4, predictor_kind=PredictorKind.MLP)
        assert mlp.payload_bit_rate(8000) == 32000
        assert replace(mlp, adaptation=Adaptation.FORWARD).payload_bit_rate(8000) == 32000


# Every integer field of the config, the header and `Signal`, as
# (owner.field, build from one value); each is held to `number.as_int`.
INTEGER_FIELDS = [
    ("CodecConfig.frame_len", lambda v: CodecConfig(frame_len=v)),
    ("CodecConfig.bits", lambda v: CodecConfig(bits=v)),
    ("CodecConfig.seed", lambda v: CodecConfig(seed=v)),
    ("BitstreamHeader.sample_rate", lambda v: BitstreamHeader(v, 400, CodecConfig())),
    ("BitstreamHeader.true_sample_count", lambda v: BitstreamHeader(8000, v, CodecConfig())),
    ("Signal.sample_rate", lambda v: Signal(np.zeros(10), v)),
]
BAD_INTEGERS = {"None": None, "'3'": "3", "2.5": 2.5, "True": True}
BAD_REALS = {"None": None, "'0.1'": "0.1", "True": True, "10**400": 10**400,
             "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


class TestNumberRule:
    """A wrong-typed or non-finite number raises ValueError naming its
    field, never TypeError, OverflowError or AttributeError; a bool is
    neither an integer nor a real."""

    @pytest.mark.parametrize("field, build, value", [
        pytest.param(field, build, value, id=f"{field}-{shown}")
        for field, build in INTEGER_FIELDS for shown, value in BAD_INTEGERS.items()])
    def test_refused_naming_the_field(self, field, build, value):
        with pytest.raises(ValueError, match=f"^{field.partition('.')[2]} "):
            build(value)

    @pytest.mark.parametrize("value", list(BAD_REALS.values()), ids=list(BAD_REALS))
    def test_real_refused_naming_the_field(self, value):
        # a forward coefficient is the one real a config, header or payload holds
        header = BitstreamHeader(8000, 200, CodecConfig(adaptation=Adaptation.FORWARD))
        payload = FramePayload((0,) * 200, forward_coeffs=(value,) * 10)
        with pytest.raises(BitstreamError, match="^frame 0: forward_coeffs "):
            Bitstream(header, (payload,))

    # Enum fields, quantizer parameters, the RNG seed, sweep arguments and a z-test row, as
    # (the argument the refusal names, call on a signal x with one bad input).
    @pytest.mark.parametrize("name, call", [
        pytest.param("predictor_kind", lambda x: CodecConfig(predictor_kind=True),
                     id="CodecConfig-predictor_kind-True"),
        pytest.param("adaptation", lambda x: CodecConfig(adaptation=1.0),
                     id="CodecConfig-adaptation-1.0"),
        pytest.param("step", lambda x: AdaptiveQuantizer(4, "0.1", 0.01, 0.5, ()),
                     id="AdaptiveQuantizer-step-'0.1'"),
        pytest.param("multipliers", lambda x: AdaptiveQuantizer(4, 0.1, 0.01, 0.5, 5),
                     id="AdaptiveQuantizer-multipliers-5"),
        pytest.param("seed", lambda x: SplitMix64(True), id="SplitMix64-seed-True"),
        pytest.param("frame_len",
                     lambda x: frame_length_sweep(x, [2.5], [4], ["ADPCMB-MLP"], CodecConfig()),
                     id="frame_length_sweep-lengths-2.5"),
        pytest.param("frame_pair_index", lambda x: epoch_sweep(x, True, 2, CodecConfig()),
                     id="epoch_sweep-frame_pair_index-True"),
        pytest.param("mean1", lambda x: significance_matrix(
            [MethodRow("A", 4, math.nan, math.nan, 0), MethodRow("B", 4, 20.0, 1.0, 9)], 9),
                     id="significance_matrix-mean1-nan"),
    ])
    def test_argument_refused_naming_it(self, speech_like, name, call):
        with pytest.raises(ValueError, match=f"^{name} "):
            call(speech_like)

    @pytest.mark.parametrize("kind", [PredictorKind.MLP, np.int64(2)], ids=["member", "int64"])
    def test_enum_member_and_numpy_integer_taken(self, kind):
        assert CodecConfig(predictor_kind=kind).predictor_kind is PredictorKind.MLP

    def test_header_kind_outside_the_enum_refused(self):
        header = BitstreamHeader(8000, 1, CodecConfig(frame_len=1))
        data = bytearray(serialize(Bitstream(header, (FramePayload((0,)),))))
        data[20] = 7  # predictor_kind; see test_bitstream's header byte offsets
        with pytest.raises(BitstreamError,
                           match="^invalid header: 7 is not a valid PredictorKind$"):
            parse(bytes(data))


class TestForwardMode:
    def test_coefficients_survive_wire_exactly(self, ar_signal):
        config = CodecConfig(predictor_kind=PredictorKind.LPC10,
                             adaptation=Adaptation.FORWARD)
        result = encode(ar_signal, config)
        back = parse(serialize(result.bitstream))
        frames = np.reshape(ar_signal.samples[:2000], (10, 200))
        for k, payload in enumerate(back.payloads):
            fitted = fit_predictor(frames[k], PredictorKind.LPC10, config, k)
            assert payload.forward_coeffs == tuple(fitted.coeffs.tolist())

    @pytest.mark.parametrize("method", ["ADPCMF-LPC-10", "ADPCMF-LPC-25", "ADPCMF-MLP"])
    def test_wire_carries_the_predictors_params(self, speech_like, method):
        """Each payload's coefficients are, bit for bit, the `params` of the
        predictor the encoder fitted and of the one `frame_predictor`
        rebuilds from them."""
        base = CodecConfig(frame_len=100)
        config = method_config(base, method, 3)
        samples = speech_like.samples[:400]
        payloads = encode(Signal(samples, speech_like.sample_rate), config).bitstream.payloads
        state = initial_state(config)
        for k, payload in enumerate(payloads):
            fitted = fit_predictor(samples[k * 100 : (k + 1) * 100], config.predictor_kind,
                                   config, k)
            predictor = frame_predictor(state, payload)
            hexes = [c.hex() for c in payload.forward_coeffs]
            assert hexes == [p.hex() for p in predictor.params] == \
                [p.hex() for p in fitted.params]
            state = decode_frame(state, payload.codes, predictor)

    def test_frame0_fitted_not_zero(self, ar_signal):
        config = CodecConfig(predictor_kind=PredictorKind.LPC10,
                             adaptation=Adaptation.FORWARD)
        result = encode(ar_signal, config)
        coeffs = result.bitstream.payloads[0].forward_coeffs
        assert any(c != 0.0 for c in coeffs)

    def test_frame_predictor_rebuilds_forward_mlp(self):
        rng = np.random.default_rng(4)
        coeffs = tuple(rng.standard_normal(25))
        config = CodecConfig(predictor_kind=PredictorKind.MLP, adaptation=Adaptation.FORWARD)
        net = frame_predictor(initial_state(config), FramePayload((), forward_coeffs=coeffs))
        assert tuple(net.theta) == coeffs
        assert net == Mlp(coeffs)

    @pytest.mark.parametrize("kind", [PredictorKind.LPC10, PredictorKind.LPC25])
    def test_frame_predictor_builds_forward_lpc_from_coefficients_alone(self, kind):
        coeffs = tuple(np.random.default_rng(5).standard_normal(FORWARD_COEFF_COUNT[kind]))
        config = CodecConfig(predictor_kind=kind, adaptation=Adaptation.FORWARD)
        model = frame_predictor(initial_state(config), FramePayload((), forward_coeffs=coeffs))
        assert model == lpc.LpcModel(coeffs) and model.order == len(coeffs)
        assert model.reflection.shape == (0,)  # no fit produced it

    def test_frame_predictor_forward_lpc_sum_order(self):
        """A rebuilt forward LPC model keeps predict's normative order:
        newest first, uncompensated (see test_lpc)."""
        config = CodecConfig(predictor_kind=PredictorKind.LPC10, adaptation=Adaptation.FORWARD)
        payload = FramePayload((), forward_coeffs=(1.0, 1.0, 1.0) + (0.0,) * 7)
        model = frame_predictor(initial_state(config), payload)
        assert model.predict([0.0] * 7 + [-1e16, 1.0, 1e16]) == 0.0
        assert model.predict([0.0] * 7 + [1.0, -1e16, 1e16]) == 1.0


class TestBackwardMode:
    def test_frame0_uses_zero_predictor(self, ar_signal):
        config = CodecConfig(predictor_kind=PredictorKind.LPC10)
        result = encode(ar_signal, config)
        frame0 = ar_signal.samples[:200]
        codes, _, _ = encode_frame(initial_state(config), frame0, ZERO)
        assert list(result.bitstream.payloads[0].codes) == codes

    def test_fit_predictor_deterministic(self, speech_like):
        prev = speech_like.samples[:200]
        config = CodecConfig(predictor_kind=PredictorKind.MLP)
        a = fit_predictor(prev, PredictorKind.MLP, config, 3)
        b = fit_predictor(prev, PredictorKind.MLP, config, 3)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_fit_seed_depends_on_frame_index(self, speech_like):
        prev = speech_like.samples[:200]
        config = CodecConfig(predictor_kind=PredictorKind.MLP)
        a = fit_predictor(prev, PredictorKind.MLP, config, 1)
        b = fit_predictor(prev, PredictorKind.MLP, config, 2)
        assert not np.array_equal(a.theta, b.theta)


class TestCandidate:
    """Backward MLP and hybrid frames name a predictor kind; the encoder
    codes each candidate with the predictor `frame_predictor` gives, and
    the decoder fits only the one the payload names."""

    @pytest.mark.parametrize("kind, width, used", [
        # zero-width fields: LPC-10's and backward MLP's
        pytest.param(PredictorKind.LPC10, 0, {0}, id="lpc10"),
        pytest.param(PredictorKind.MLP, 0, {0}, id="mlp"),
        # every value of the hybrid's full 1-bit field
        pytest.param(PredictorKind.HYBRID, 1, {0, 1}, id="hybrid"),
    ])
    def test_round_trip_at_the_field_widths(self, speech_like, kind, width, used):
        config = CodecConfig(predictor_kind=kind, bits=3)
        signal = Signal(speech_like.samples[:4000], speech_like.sample_rate)
        result = encode(signal, config)
        assert frame_row(config)[0] == width
        assert {p.candidate for p in result.bitstream.payloads} == used
        parsed = parse(serialize(result.bitstream))
        assert parsed == result.bitstream
        assert decode(parsed).samples.tobytes() == result.reconstruction.samples.tobytes()

    # the wire numbering, stated here apart from `frame_candidates`: backward
    # MLP sends its net as 0; hybrid sends LPC-10 as 0 and the net as 1
    NET_CANDIDATE = {PredictorKind.MLP: 0, PredictorKind.HYBRID: 1}

    @pytest.mark.parametrize("kind", [PredictorKind.MLP, PredictorKind.HYBRID])
    def test_candidate_names_the_winning_restart(self, monkeypatch, speech_like, kind):
        # every (payload, predictor) the encoder codes is the predictor
        # `frame_predictor` rebuilds from that payload, and the net is the
        # winner of the RESTARTS-row fit
        coded, candidates = [], codec._candidates

        def recording(state, frame):
            tried = candidates(state, frame)
            coded.append((state, tried))
            return tried

        monkeypatch.setattr(codec, "_candidates", recording)
        config = CodecConfig(predictor_kind=kind, bits=3)
        signal = Signal(speech_like.samples[:2000], speech_like.sample_rate)
        result = encode(signal, config)
        net_candidate = self.NET_CANDIDATE[kind]
        assert len(coded) == len(result.bitstream.payloads)
        for state, tried in coded:
            count = 1 if state.recon is None else net_candidate + 1
            assert [p.candidate for p, _ in tried] == list(range(count))
            for payload, predictor in tried:
                assert predictor == frame_predictor(state, payload)
            if state.recon is not None:
                winner = multistart_fit(state.recon, EPOCHS, config.seed ^ state.frame_index,
                                        RESTARTS)
                assert tried[-1][1] == winner
                if net_candidate:
                    assert tried[0][1] == lpc.fit(state.recon, 10)
        np.testing.assert_array_equal(decode(result.bitstream).samples,
                                      result.reconstruction.samples)

    @pytest.mark.parametrize("kind", [PredictorKind.MLP, PredictorKind.HYBRID])
    def test_encoder_fits_all_restarts_once_decoder_one(self, monkeypatch, speech_like, kind):
        rows = []
        lm_epoch = mlp.lm_epoch

        def recording(theta, *args):
            rows.append(len(theta))
            return lm_epoch(theta, *args)

        monkeypatch.setattr(mlp, "lm_epoch", recording)
        config = CodecConfig(predictor_kind=kind)
        signal = Signal(speech_like.samples[:1000], speech_like.sample_rate)
        result = encode(signal, config)
        # one RESTARTS-row stack per frame after frame 0, never a refit
        assert rows == [RESTARTS] * (4 * EPOCHS)
        rows.clear()
        np.testing.assert_array_equal(decode(result.bitstream).samples,
                                      result.reconstruction.samples)
        # the decoder makes the same stack, once per neural frame
        net_candidate = self.NET_CANDIDATE[kind]
        neural = sum(1 for p in result.bitstream.payloads[1:] if p.candidate == net_candidate)
        assert neural > 0
        assert rows == [RESTARTS] * (neural * EPOCHS)

    @pytest.mark.parametrize("kind", [
        pytest.param(PredictorKind.MLP, id="mlp"),
        pytest.param(PredictorKind.HYBRID, id="hybrid"),
    ])
    def test_payload_picks_the_branch_and_restart(self, speech_like, kind):
        config = CodecConfig(predictor_kind=kind)
        prev = speech_like.samples[:200]
        state = replace(initial_state(config), frame_index=3, recon=prev)
        net_candidate = self.NET_CANDIDATE[kind]
        if net_candidate:
            linear = frame_predictor(state, FramePayload((), candidate=0))
            assert linear.coeffs.tolist() == lpc.fit(prev, 10).coeffs.tolist()
        net = frame_predictor(state, FramePayload((), candidate=net_candidate))
        assert net == multistart_fit(prev, EPOCHS, config.seed ^ 3, RESTARTS)


class TestShortFrameStability:
    """At 5 ms frames (40 samples: 30 training pairs for 25 parameters) the
    backward neural methods do not run away: every pooled SEGSNR cell of
    linear AR, bilinear AR and tone-in-noise signals is above 0 dB. A
    longer per-frame fit (3 separable epochs) overfits these pairs, and its
    nets drive the closed loop to cells far below 0 dB."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("generator", [linear_ar, nonlinear_ar, tone_noise],
                             ids=["linear_ar", "nonlinear_ar", "tone_noise"])
    def test_every_cell_above_0_db(self, generator, seed):
        rows = evaluate_methods([generator(seed, 1000)], [2, 5], ["ADPCMB-MLP", "ADPCMB-HYBRID"],
                                CodecConfig(frame_len=40))
        cells = {(row.method, row.bits): row.segsnr_mean for row in rows}
        assert all(row.frames_evaluated == 25 for row in rows)
        assert min(cells.values()) > 0.0, cells


class Recording:
    """A predictor wrapper whose `predictions` records the types of the
    history it starts from, of every sample the loop sends it and of
    every prediction it yields."""

    def __init__(self, inner):
        self.inner, self.types = inner, set()

    def predictions(self, history):
        self.types.update(map(type, history))
        inner = self.inner.predictions(history)
        p = next(inner)
        while True:
            self.types.add(type(p))
            xr = yield p
            self.types.add(type(xr))
            p = inner.send(xr)


@pytest.mark.parametrize("kind", [None, PredictorKind.LPC10, PredictorKind.LPC25,
                                  PredictorKind.MLP], ids=["zero", "lpc10", "lpc25", "mlp"])
def test_predict_is_the_generators_prediction(speech_like, kind):
    """Each predictor has one arithmetic: `predict(history)`, the first
    value of `predictions(history)`, is the value `predictions` yields
    after the samples that extend a shorter history to `history`."""
    config = CodecConfig(frame_len=100)
    samples = speech_like.samples.tolist()
    predictor = ZERO if kind is None else fit_predictor(samples[:100], kind, config, 7)
    predictions = predictor.predictions(tuple(samples[100:125]))
    p = next(predictions)
    for end in range(125, 200):
        history = tuple(samples[end - 25 : end])
        assert type(p) is float
        assert predictor.predict(history) == p
        p = predictions.send(samples[end])


def numpy_scalar_config():
    return CodecConfig(frame_len=np.int64(100), bits=np.int64(4), seed=np.uint64(3))


class TestLoopScalarTypes:
    """The closed loop runs on Python floats only: a numpy scalar in the
    history or the step would turn every later add and multiply into a
    numpy scalar operation (and a float32 one would change the output)."""

    @pytest.mark.parametrize("kind", [None, PredictorKind.LPC10, PredictorKind.LPC25,
                                      PredictorKind.MLP], ids=["zero", "lpc10", "lpc25", "mlp"])
    @pytest.mark.parametrize("numpy_config", [False, True])
    def test_predictions_history_and_step_are_floats(self, speech_like, kind, numpy_config):
        config = numpy_scalar_config() if numpy_config else CodecConfig(frame_len=100)
        fit_on, frame = speech_like.samples[:100], speech_like.samples[100:200]
        predictor = Recording(ZERO if kind is None else fit_predictor(fit_on, kind, config, 7))
        state = initial_state(config)
        codes, enc_state, _ = codec._closed_loop(state, frame.astype(np.float32), predictor)
        _, dec_state, _ = codec._closed_loop(state, None, predictor, codes)
        assert predictor.types == {float}
        for new_state in (enc_state, dec_state):
            assert {type(v) for v in new_state.history} == {float}
            assert type(new_state.step) is float


    @pytest.mark.parametrize("kind", [PredictorKind.LPC10, PredictorKind.MLP],
                             ids=["lpc10", "mlp"])
    def test_numpy_integer_codes_decode_on_floats(self, monkeypatch, speech_like, kind):
        # a library-built Bitstream may carry numpy integer codes; parse gives ints
        config = CodecConfig(frame_len=100, predictor_kind=kind)
        result = encode(Signal(speech_like.samples[:400], speech_like.sample_rate), config)
        stream = result.bitstream
        numpy_stream = Bitstream(stream.header, tuple(
            replace(p, codes=tuple(np.int64(c) for c in p.codes)) for p in stream.payloads))
        assert {type(c) for p in numpy_stream.payloads for c in p.codes} == {int}
        assert numpy_stream == stream
        states = []

        def recording(state, codes, predictor, decode_frame=codec.decode_frame):
            new_state = decode_frame(state, codes, predictor)
            states.append(new_state)
            return new_state

        monkeypatch.setattr(codec, "decode_frame", recording)
        decoded = decode(numpy_stream)
        np.testing.assert_array_equal(decoded.samples, result.reconstruction.samples)
        assert len(states) == len(stream.payloads)
        for state in states:
            assert {type(v) for v in state.history} == {float}
            assert type(state.step) is float


class TestEncodeDecode:
    def test_tracking_all_kinds(self, ar_signal):
        for kind, adaptation in [
            (PredictorKind.LPC10, Adaptation.BACKWARD),
            (PredictorKind.LPC25, Adaptation.FORWARD),
            (PredictorKind.MLP, Adaptation.BACKWARD),
            (PredictorKind.HYBRID, Adaptation.BACKWARD),
        ]:
            config = CodecConfig(predictor_kind=kind, adaptation=adaptation)
            result = encode(ar_signal, config)
            decoded = decode(parse(serialize(result.bitstream)))
            np.testing.assert_array_equal(decoded.samples,
                                          result.reconstruction.samples)

    def test_seed_changes_neural_stream(self, ar_signal):
        base = dict(predictor_kind=PredictorKind.MLP)
        a = encode(ar_signal, CodecConfig(seed=0, **base))
        b = encode(ar_signal, CodecConfig(seed=1, **base))
        assert serialize(a.bitstream) != serialize(b.bitstream)

    def test_reconstruction_matches_input_length(self):
        rng = np.random.default_rng(5)
        from nadpcm import Signal
        sig = Signal(rng.uniform(-0.3, 0.3, 450), 8000)
        config = CodecConfig(frame_len=200)
        result = encode(sig, config)
        assert len(result.reconstruction) == 450
        decoded = decode(result.bitstream)
        assert len(decoded) == 450

    def test_header_refused_before_coding(self, monkeypatch):
        def no_coding(*args):
            raise AssertionError("a frame was coded")

        monkeypatch.setattr(codec, "encode_frame", no_coding)
        with pytest.raises(ValueError, match="^sample_rate 4294967296 not representable"):
            encode(Signal(np.zeros(300), 2**32), CodecConfig())

    def test_non_integer_sample_rate_refused_before_coding(self, monkeypatch):
        def no_coding(*args):
            raise AssertionError("a frame was coded")

        monkeypatch.setattr(codec, "encode_frame", no_coding)
        with pytest.raises(ValueError, match="^sample_rate must be an integer, got 8000.5$"):
            encode(Signal(np.zeros(400), 8000.5), CodecConfig())

    def test_non_finite_input_rejected(self):
        from nadpcm import Signal
        for bad in (float("nan"), float("inf"), -float("inf")):
            samples = np.zeros(300)
            samples[217] = bad
            with pytest.raises(ValueError, match="sample 217 is not finite"):
                encode(Signal(samples, 8000), CodecConfig())

    def test_empty_signal_rejected(self):
        from nadpcm import Signal
        with pytest.raises(ValueError):
            encode(Signal(np.array([0.0])[:0], 8000), CodecConfig())

    def test_frame_stats_reported(self, ar_signal):
        config = CodecConfig(predictor_kind=PredictorKind.HYBRID)
        result = encode(ar_signal, config)
        assert len(result.frame_stats) == 10
        assert result.bitstream.payloads[0].candidate == 0  # bootstrap frame
        assert len(result.frame_stats[0].branch_sses) == 1
        for stat in result.frame_stats[1:]:
            assert len(stat.branch_sses) == 2
        for stat in result.frame_stats:
            assert stat.sse == min(stat.branch_sses)

    def test_config_header_round_trip(self, ar_signal):
        config = CodecConfig(bits=3, frame_len=150, seed=42,
                             predictor_kind=PredictorKind.LPC25)
        result = encode(ar_signal, config)
        back = parse(serialize(result.bitstream)).header.config
        assert back == config


def forged(data, offset, value):
    """Stream bytes with the f64 at `offset` replaced."""
    data = bytearray(data)
    struct.pack_into("<d", data, offset, value)
    return bytes(data)


class TestUntrustedStreams:
    """A stream that parses must decode to finite samples or raise
    BitstreamError naming the frame."""

    HEADER_BYTES = 30

    def encoded(self, signal, n=2000, **fields):
        head = Signal(signal.samples[:n], signal.sample_rate)
        return encode(head, CodecConfig(**fields)).bitstream

    def test_huge_forward_coefficient(self, ar_signal):
        bitstream = self.encoded(ar_signal, adaptation=Adaptation.FORWARD)
        data = serialize(bitstream)
        # frame 0's coefficient block follows the byte-aligned header
        first_coeff = self.HEADER_BYTES
        assert struct.unpack_from("<d", data, first_coeff)[0] == \
            bitstream.payloads[0].forward_coeffs[0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BitstreamError, match="not finite") as info:
                decode(parse(forged(data, first_coeff, 1e300)))
        assert info.value.frame_index == 0

    def test_encoder_names_non_finite_prediction(self, monkeypatch, ar_signal):
        monkeypatch.setattr(mlp, "INIT_SCALE", 1e300)
        config = CodecConfig(predictor_kind=PredictorKind.MLP)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"prediction .* for sample \d+ is not finite"):
                encode(Signal(ar_signal.samples[:600], ar_signal.sample_rate), config)

    def test_payload_with_short_frame(self, ar_signal):
        bitstream = self.encoded(ar_signal, 1000)
        payloads = list(bitstream.payloads)
        payloads[1] = FramePayload(codes=payloads[1].codes[:50])
        with pytest.raises(BitstreamError, match="^frame 1: expected 200 codes, got 50$") as info:
            Bitstream(bitstream.header, tuple(payloads))
        assert info.value.frame_index == 1

    def test_payload_with_out_of_range_code(self, ar_signal):
        bitstream = self.encoded(ar_signal, 1000)
        payloads = list(bitstream.payloads)
        payloads[1] = FramePayload(codes=(99,) + payloads[1].codes[1:])
        with pytest.raises(BitstreamError, match=r"^frame 1: code 99 outside \[-8, 7\]$") as info:
            Bitstream(bitstream.header, tuple(payloads))
        assert info.value.frame_index == 1

    @pytest.mark.parametrize("kind, adaptation, match", [
        (PredictorKind.HYBRID, Adaptation.BACKWARD, "candidate must be an integer, got None"),
        (PredictorKind.LPC10, Adaptation.FORWARD, "expected 10 forward_coeffs, got 0"),
    ])
    def test_payload_missing_predictor_field(self, kind, adaptation, match):
        # an omitted candidate is candidate 0, valid on a hybrid frame, so
        # the hybrid frame's is None; omitted coefficients are `()`
        config = CodecConfig(predictor_kind=kind, adaptation=adaptation)
        header = BitstreamHeader(8000, 600, config)
        forward = adaptation is Adaptation.FORWARD
        good = FramePayload((0,) * 200, forward_coeffs=(0.0,) * 10 if forward else ())
        missing = FramePayload((0,) * 200, **({} if forward else {"candidate": None}))
        with pytest.raises(BitstreamError, match=f"^frame 1: {match}$") as info:
            Bitstream(header, (good, missing, good))
        assert info.value.frame_index == 1

    def test_zero_frame_header(self):
        # the header refuses to describe no samples, so no zero-frame
        # Bitstream can be built; a config error, not a stream error
        with pytest.raises(ValueError, match="^empty stream$") as info:
            BitstreamHeader(8000, 0, CodecConfig())
        assert not isinstance(info.value, BitstreamError)
