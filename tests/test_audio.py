"""Signal container, PCM16/WAV round trips, and frame splitting."""

import io

import numpy as np
import pytest

from conftest import MALFORMED_WAVS
from nadpcm import Signal, load_pcm16, read_wav, save_pcm16, split_frames, write_wav


class TestSignal:
    def test_samples_coerced_to_float64(self):
        sig = Signal(np.array([1, 2, 3], dtype=np.int16), 8000)
        assert sig.samples.dtype == np.float64

    def test_length_and_duration(self):
        sig = Signal(np.zeros(4000), 8000)
        assert len(sig) == 4000
        assert sig.duration == pytest.approx(0.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(10), 0)

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError):
            Signal(np.zeros((10, 2)), 8000)


class TestPcm16:
    def test_known_levels(self):
        data = np.array([0, 16384, -16384, 32767, -32768], dtype="<i2").tobytes()
        sig = load_pcm16(data, 8000)
        np.testing.assert_allclose(
            sig.samples, [0.0, 0.5, -0.5, 32767 / 32768, -1.0])

    def test_round_trip_exact_levels(self):
        rng = np.random.default_rng(42)
        levels = rng.integers(-32768, 32768, size=500, dtype=np.int64)
        data = levels.astype("<i2").tobytes()
        back = save_pcm16(load_pcm16(data, 8000))
        assert back == data

    def test_save_clips_out_of_range(self):
        sig = Signal(np.array([1.5, -1.5]), 8000)
        out = np.frombuffer(save_pcm16(sig), dtype="<i2")
        assert list(out) == [32767, -32768]

    def test_save_rounds_to_nearest(self):
        sig = Signal(np.array([0.5 / 32768 * 0.9]), 8000)
        out = np.frombuffer(save_pcm16(sig), dtype="<i2")
        assert out[0] == 0

    def test_odd_byte_count_rejected(self):
        with pytest.raises(ValueError):
            load_pcm16(b"\x00\x01\x02", 8000)


class TestWav:
    def test_round_trip(self, speech_like):
        buf = io.BytesIO()
        write_wav(buf, speech_like)
        buf.seek(0)
        back = read_wav(buf)
        assert back.sample_rate == speech_like.sample_rate
        # one quantization through 16-bit PCM
        assert np.max(np.abs(back.samples - speech_like.samples)) <= 0.5 / 32768

    def test_wav_then_pcm_identical_samples(self, speech_like):
        buf = io.BytesIO()
        write_wav(buf, speech_like)
        buf.seek(0)
        via_wav = read_wav(buf)
        via_pcm = load_pcm16(save_pcm16(speech_like), speech_like.sample_rate)
        np.testing.assert_array_equal(via_wav.samples, via_pcm.samples)


def wav_bytes(signal):
    buf = io.BytesIO()
    write_wav(buf, signal)
    return buf.getvalue()


class TestMalformedWav:
    @pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
    def test_read_wav_raises_value_error(self, name):
        data = MALFORMED_WAVS[name](wav_bytes(Signal(np.zeros(100), 8000)))
        with pytest.raises(ValueError) as info:
            read_wav(io.BytesIO(data))
        assert str(info.value)  # a message for the CLI's one error line

    def test_wave_messages_kept(self):
        good = wav_bytes(Signal(np.zeros(100), 8000))
        with pytest.raises(ValueError, match="^file does not start with RIFF id$"):
            read_wav(io.BytesIO(MALFORMED_WAVS["not-riff"](good)))
        with pytest.raises(ValueError, match="^WAV header truncated$"):
            read_wav(io.BytesIO(MALFORMED_WAVS["cut-20"](good)))


class TestSplitFrames:
    def test_exact_division(self):
        frames = split_frames(np.arange(10, dtype=float), 5)
        assert frames.shape == (2, 5)

    def test_final_frame_zero_padded(self):
        frames = split_frames(np.arange(7, dtype=float), 5)
        assert frames.shape == (2, 5)
        np.testing.assert_array_equal(frames[1], [5.0, 6.0, 0.0, 0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            split_frames(np.array([]), 5)

    def test_rejects_bad_frame_len(self):
        with pytest.raises(ValueError):
            split_frames(np.arange(10, dtype=float), 0)
