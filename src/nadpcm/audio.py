"""PCM sample I/O and framing.

Signals are mono float64 arrays in [-1.0, 1.0) normalized units. On disk
they are 16-bit signed little-endian PCM, either raw or wrapped in a
plain WAV container (format code 1, mono, 16-bit only).
"""

import wave
from dataclasses import dataclass

import numpy as np

PCM_SCALE = 32768.0


@dataclass(frozen=True)
class Signal:
    """Mono sample sequence with its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def load_pcm16(data: bytes, sample_rate: int) -> Signal:
    """Decode 16-bit signed little-endian PCM bytes into a Signal.

    Integer sample v maps to v / 32768, so the result lies in [-1.0, 1.0).
    """
    if len(data) % 2 != 0:
        raise ValueError(f"PCM16 byte count must be even, got {len(data)}")
    ints = np.frombuffer(data, dtype="<i2")
    return Signal(ints.astype(np.float64) / PCM_SCALE, sample_rate)


def save_pcm16(signal: Signal) -> bytes:
    """Encode a Signal as 16-bit signed little-endian PCM bytes.

    Samples are rounded to the nearest integer level and clamped to the
    representable range, so a load/save round trip is exact and a
    save/load round trip is within half an LSB (1/65536) per sample.
    """
    scaled = np.rint(signal.samples * PCM_SCALE)
    clamped = np.clip(scaled, -32768, 32767)
    return clamped.astype("<i2").tobytes()


def read_wav(path_or_file) -> Signal:
    """Read a mono 16-bit PCM WAV file; the sample rate comes from the header."""
    try:
        with wave.open(path_or_file, "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise ValueError(f"only PCM WAV supported, got compression {wf.getcomptype()!r}")
            if wf.getnchannels() != 1:
                raise ValueError(f"only mono WAV supported, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise ValueError(f"only 16-bit WAV supported, got {8 * wf.getsampwidth()} bits")
            data = wf.readframes(wf.getnframes())
            rate = wf.getframerate()
    except (wave.Error, EOFError) as exc:  # not a WAV, or cut short (EOFError, no message)
        raise ValueError(str(exc) or "WAV header truncated") from exc
    return load_pcm16(data, rate)


def write_wav(path_or_file, signal: Signal) -> None:
    """Write a Signal as a mono 16-bit PCM WAV file."""
    with wave.open(path_or_file, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate)
        wf.writeframes(save_pcm16(signal))


def split_frames(samples, frame_len: int):
    """Split samples into consecutive non-overlapping frames.

    The final partial frame is zero-padded to frame_len. Returns an
    (n, frame_len) float64 array.
    """
    if frame_len < 1:
        raise ValueError(f"frame_len must be >= 1, got {frame_len}")
    samples = np.asarray(samples, dtype=np.float64)
    n = len(samples)
    if n == 0:
        raise ValueError("cannot frame an empty sample sequence")
    n_frames = -(-n // frame_len)
    padded = np.zeros(n_frames * frame_len, dtype=np.float64)
    padded[:n] = samples
    return padded.reshape(n_frames, frame_len)
