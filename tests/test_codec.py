"""Closed-loop codec: frame coding, adaptation modes, hybrid switching."""

import struct

import numpy as np
import pytest

from nadpcm import (
    Adaptation,
    Bitstream,
    BitstreamError,
    BitstreamHeader,
    CodecConfig,
    FramePayload,
    PredictorKind,
    Signal,
    TrainConfig,
    codec,
    decode,
    encode,
    parse,
    serialize,
)
from nadpcm.codec import (
    ZERO,
    decode_frame,
    encode_frame,
    fit_predictor,
    frame_predictor,
    initial_state,
)


def hand_trace_config():
    return CodecConfig(frame_len=4, bits=2, step_init=0.1, step_min=0.01,
                       step_max=0.5, multipliers=(0.8, 1.6))


class TestEncodeFrame:
    def test_hand_computed_trace(self):
        """Four-sample closed loop with the zero predictor, worked by hand.

        x = [0.05, -0.12, 0.30, 0.00], 2 bits, step 0.1, multipliers
        (0.8, 1.6): codes [0, -2, 1, 0], final step 0.16384, and the only
        reconstruction errors come from the clamped third sample and the
        midrise offset of the fourth.
        """
        config = hand_trace_config()
        frame = np.array([0.05, -0.12, 0.30, 0.00])
        codes, state, recon, sse = encode_frame(initial_state(config), frame, ZERO)
        assert codes == [0, -2, 1, 0]
        np.testing.assert_allclose(recon, [0.05, -0.12, 0.192, 0.1024], rtol=1e-12)
        assert sse == pytest.approx(0.02214976, rel=1e-10)
        assert state.step == pytest.approx(0.16384, rel=1e-12)

    def test_decode_frame_mirrors_encode(self):
        config = hand_trace_config()
        frame = np.array([0.05, -0.12, 0.30, 0.00])
        state0 = initial_state(config)
        codes, enc_state, enc_recon, _ = encode_frame(state0, frame, ZERO)
        dec_recon, dec_state = decode_frame(state0, codes, ZERO)
        np.testing.assert_array_equal(dec_recon, enc_recon)
        assert dec_state.history == enc_state.history
        assert dec_state.step == enc_state.step

    def test_zero_frame_decays_step(self):
        config = CodecConfig(frame_len=200, bits=4)
        codes, state, recon, _ = encode_frame(
            initial_state(config), np.zeros(200), ZERO)
        assert set(codes) == {0}
        assert state.step == config.step_min
        assert np.max(np.abs(recon)) <= config.step_init / 2

    def test_granular_error_bound_with_good_predictor(self):
        # residual stays inside the innermost cells: error <= step/2
        config = CodecConfig(frame_len=100, bits=4, step_init=0.02)
        frame = np.full(100, 0.009)  # zero predictor residual < step/2
        _, _, recon, _ = encode_frame(initial_state(config), frame, ZERO)
        assert abs(recon[0] - frame[0]) <= 0.02 / 2

    def test_history_continues_across_frames(self):
        config = CodecConfig(frame_len=8, bits=3)
        rng = np.random.default_rng(3)
        f1, f2 = rng.uniform(-0.3, 0.3, 8), rng.uniform(-0.3, 0.3, 8)
        _, state1, recon1, _ = encode_frame(initial_state(config), f1, ZERO)
        assert state1.history[-1] == recon1[-1]
        _, state2, _, _ = encode_frame(state1, f2, ZERO)
        assert state2.frame_index == 2


class TestHybridFrame:
    def test_commits_smaller_sse_branch(self, speech_like):
        config = CodecConfig(predictor_kind=PredictorKind.HYBRID)
        signal = Signal(speech_like.samples[:1000], speech_like.sample_rate)
        result = encode(signal, config)
        frames = signal.samples.reshape(5, 200)
        state = initial_state(config)
        prev = None
        for k, frame in enumerate(frames):
            payload, stat = result.bitstream.payloads[k], result.frame_stats[k]
            if k > 0:
                # re-simulate both branches from the same state
                sses = tuple(
                    encode_frame(state, frame, frame_predictor(
                        config, k, prev, FramePayload((), hybrid_flag=flag)))[3]
                    for flag in (0, 1))
                assert stat.branch_sses == sses
                assert payload.hybrid_flag == stat.hybrid_flag == int(np.argmin(sses))
                assert stat.sse == min(sses)
            codes, state, prev, _ = encode_frame(
                state, frame, frame_predictor(config, k, prev, payload))
            assert tuple(codes) == payload.codes

    def test_tie_goes_to_linear(self, monkeypatch):
        monkeypatch.setattr(codec, "fit_predictor", lambda *args: ZERO)
        config = CodecConfig(predictor_kind=PredictorKind.HYBRID, frame_len=20, bits=2)
        signal = Signal(np.random.default_rng(6).uniform(-0.3, 0.3, 100), 8000)
        result = encode(signal, config)
        assert [p.hybrid_flag for p in result.bitstream.payloads] == [0] * 5
        for stat in result.frame_stats[1:]:
            sse_l, sse_n = stat.branch_sses
            assert sse_l == sse_n == stat.sse


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
        # frame_len is a u16 and epochs/restarts are u8 in the header
        assert CodecConfig(frame_len=0xFFFF).frame_len == 0xFFFF
        with pytest.raises(ValueError, match="^frame_len 65536 not representable in header$"):
            CodecConfig(frame_len=0x10000)
        for name in ("epochs", "restarts"):
            train = TrainConfig(**{name: 255})
            assert CodecConfig(predictor_kind=PredictorKind.MLP, train=train).train == train
            with pytest.raises(ValueError, match=f"^{name} 256 not representable in header$"):
                CodecConfig(train=TrainConfig(**{name: 256}))

    def test_multipliers_default_to_table(self):
        assert CodecConfig(bits=3).multipliers == (0.9, 0.9, 1.25, 1.75)

    def test_step_bounds_validated(self):
        nan, inf = float("nan"), float("inf")
        for steps in [dict(step_init=0.6, step_max=0.5), dict(step_max=inf),
                      dict(step_init=inf, step_max=inf), dict(step_min=nan),
                      dict(step_init=nan), dict(step_max=nan)]:
            with pytest.raises(ValueError):
                CodecConfig(**steps)

    def test_multipliers_validated(self):
        for table in [(0.8,), (0.8, 1.6, 2.0), (0.0, 1.6), (-0.8, 1.6),
                      (float("nan"), 1.6), (0.8, float("inf"))]:
            with pytest.raises(ValueError, match="multipliers"):
                CodecConfig(bits=2, multipliers=table)

    def test_payload_bit_rate(self):
        assert CodecConfig(bits=2).payload_bit_rate(8000) == 16000
        assert CodecConfig(bits=5).payload_bit_rate(8000) == 40000
        hybrid = CodecConfig(bits=4, predictor_kind=PredictorKind.HYBRID)
        assert hybrid.payload_bit_rate(8000) == pytest.approx(32040.0)


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
        net = frame_predictor(config, 3, None, FramePayload((), forward_coeffs=coeffs))
        assert tuple(net.to_vector()) == coeffs


class TestBackwardMode:
    def test_frame0_uses_zero_predictor(self, ar_signal):
        config = CodecConfig(predictor_kind=PredictorKind.LPC10)
        result = encode(ar_signal, config)
        frame0 = ar_signal.samples[:200]
        codes, _, _, _ = encode_frame(initial_state(config), frame0, ZERO)
        assert list(result.bitstream.payloads[0].codes) == codes

    def test_fit_predictor_deterministic(self, speech_like):
        prev = speech_like.samples[:200]
        config = CodecConfig(predictor_kind=PredictorKind.MLP)
        a = fit_predictor(prev, PredictorKind.MLP, config, 3)
        b = fit_predictor(prev, PredictorKind.MLP, config, 3)
        np.testing.assert_array_equal(a.to_vector(), b.to_vector())

    def test_fit_seed_depends_on_frame_index(self, speech_like):
        prev = speech_like.samples[:200]
        config = CodecConfig(predictor_kind=PredictorKind.MLP)
        a = fit_predictor(prev, PredictorKind.MLP, config, 1)
        b = fit_predictor(prev, PredictorKind.MLP, config, 2)
        assert not np.array_equal(a.to_vector(), b.to_vector())


class TestEncodeDecode:
    def test_tracking_all_kinds(self, ar_signal):
        for kind, adaptation in [
            (PredictorKind.LPC10, Adaptation.BACKWARD),
            (PredictorKind.LPC25, Adaptation.FORWARD),
            (PredictorKind.MLP, Adaptation.BACKWARD),
            (PredictorKind.HYBRID, Adaptation.BACKWARD),
        ]:
            config = CodecConfig(predictor_kind=kind, adaptation=adaptation,
                                 train=TrainConfig(epochs=2, restarts=2))
            result = encode(ar_signal, config)
            decoded = decode(parse(serialize(result.bitstream)))
            np.testing.assert_array_equal(decoded.samples,
                                          result.reconstruction.samples)

    def test_seed_changes_neural_stream(self, ar_signal):
        base = dict(predictor_kind=PredictorKind.MLP,
                    train=TrainConfig(epochs=2, restarts=2))
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
        config = CodecConfig(predictor_kind=PredictorKind.HYBRID,
                             train=TrainConfig(epochs=2, restarts=2))
        result = encode(ar_signal, config)
        assert len(result.frame_stats) == 10
        assert result.frame_stats[0].hybrid_flag == 0  # bootstrap frame
        for stat in result.frame_stats[1:]:
            assert stat.branch_sses is not None

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

    # header bytes before the multipliers, and the f64 count after them:
    # init_scale and three damping reals
    MULTIPLIERS_OFFSET = 4 + 1 + 4 + 8 + 2 + 5 + 8 + 24 + 1
    TRAIN_REALS = 4

    def encoded(self, signal, n=2000, **fields):
        head = Signal(signal.samples[:n], signal.sample_rate)
        return encode(head, CodecConfig(**fields)).bitstream

    def test_huge_forward_coefficient(self, ar_signal):
        bitstream = self.encoded(ar_signal, adaptation=Adaptation.FORWARD)
        data = serialize(bitstream)
        # frame 0's coefficient block follows the byte-aligned header
        first_coeff = self.MULTIPLIERS_OFFSET + 8 * (8 + self.TRAIN_REALS)
        assert struct.unpack_from("<d", data, first_coeff)[0] == \
            bitstream.payloads[0].forward_coeffs[0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BitstreamError, match="not finite") as info:
                decode(parse(forged(data, first_coeff, 1e300)))
        assert info.value.frame_index == 0

    def test_huge_init_scale(self, ar_signal):
        train = TrainConfig(epochs=2, restarts=2)
        data = serialize(self.encoded(ar_signal, 600, predictor_kind=PredictorKind.MLP,
                                      train=train))
        init_scale = self.MULTIPLIERS_OFFSET + 8 * 8
        assert struct.unpack_from("<d", data, init_scale)[0] == train.init_scale
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BitstreamError, match="not finite") as info:
                decode(parse(forged(data, init_scale, 1e300)))
        assert info.value.frame_index >= 1  # frame 0 uses the zero predictor

    def test_encoder_names_non_finite_prediction(self, ar_signal):
        config = CodecConfig(predictor_kind=PredictorKind.MLP,
                             train=TrainConfig(epochs=2, restarts=2, init_scale=1e300))
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
        (PredictorKind.HYBRID, Adaptation.BACKWARD, "hybrid_flag must be 0 or 1, got None"),
        (PredictorKind.LPC10, Adaptation.FORWARD, "expected 10 forward_coeffs, got None"),
    ])
    def test_payload_missing_predictor_field(self, kind, adaptation, match):
        config = CodecConfig(predictor_kind=kind, adaptation=adaptation)
        header = BitstreamHeader(8000, 600, config)
        good = FramePayload(
            (0,) * 200,
            hybrid_flag=0 if kind is PredictorKind.HYBRID else None,
            forward_coeffs=(0.0,) * 10 if adaptation is Adaptation.FORWARD else None)
        with pytest.raises(BitstreamError, match=f"^frame 1: {match}$") as info:
            Bitstream(header, (good, FramePayload((0,) * 200), good))
        assert info.value.frame_index == 1

    def test_zero_frame_header(self):
        # the header refuses to describe no samples, so no zero-frame
        # Bitstream can be built; a config error, not a stream error
        with pytest.raises(ValueError, match="^empty stream$") as info:
            BitstreamHeader(8000, 0, CodecConfig())
        assert not isinstance(info.value, BitstreamError)
