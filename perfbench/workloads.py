"""Seeded benchmark workloads: synthetic 8 kHz signals as 16-bit WAV bytes.

The signal formulas are ports of the shared test corpus (formant-synthesised
speech, a stable AR(2) process, a bilinear AR process and a tone in noise).
They use numpy only, so generating a workload imports nothing the codec does
not already import. Every signal is a pure function of the workload seed; the
codec sees nothing but the WAV bytes.

Each workload exists to stress a different layer; README.md explains why.
"""

import io
import wave
from dataclasses import dataclass

import numpy as np

RATE = 8000
NONLINEAR_PEAK_LIMIT = 10.0  # a bilinear AR draw beyond this is treated as diverged


def _resonate(x, b0: float, a1: float, a2: float) -> np.ndarray:
    """Two-pole filter y(n) = b0 x(n) - a1 y(n-1) - a2 y(n-2)."""
    y = np.empty(len(x))
    y1 = y2 = 0.0
    for n, v in enumerate(x.tolist()):
        y0 = b0 * v - a1 * y1 - a2 * y2
        y[n] = y0
        y2, y1 = y1, y0
    return y


def formant_utterance(seed, n: int) -> np.ndarray:
    """Speech-like utterance: glottal pulses with vibrato and breath noise
    through two formant resonators under a syllabic envelope; peak 0.45."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    f0 = 120.0 * (1.0 + 0.06 * np.sin(2 * np.pi * 3.1 * t))
    phase = np.cumsum(f0) / RATE
    pulses = (np.diff(np.floor(phase), prepend=0.0) > 0).astype(np.float64)
    tri = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    pulses = np.convolve(pulses, tri / tri.sum(), mode="same")
    out = 0.7 * pulses + 0.10 * rng.standard_normal(n)
    for fc, bw in ((700.0, 110.0), (1250.0, 160.0)):
        r = np.exp(-np.pi * bw / RATE)
        theta = 2.0 * np.pi * fc / RATE
        out = _resonate(out, 1.0 - r, -2.0 * r * np.cos(theta), r * r)
    x = out * (0.40 + 0.60 * np.abs(np.sin(np.pi * 2.2 * t)))
    return 0.45 * x / np.max(np.abs(x))


def linear_ar(seed, n: int) -> np.ndarray:
    """Stable AR(2) noise x(n) = 1.3 x(n-1) - 0.6 x(n-2) + e(n); peak 0.4."""
    rng = np.random.default_rng(seed)
    x = _resonate(rng.standard_normal(n), 1.0, -1.3, 0.6)
    return 0.4 * x / np.max(np.abs(x))


def nonlinear_ar(seed, n: int, sigma: float = 0.25) -> np.ndarray:
    """Bilinear AR x(n) = 0.5 x(n-1) - 0.3 x(n-2) + 0.4 x(n-1) x(n-2) + sigma e(n),
    scaled to peak 0.45.

    The product term can make a draw diverge; such a draw is replaced by the
    next one from the same seed, so every seed yields a bounded signal.
    """
    for attempt in range(100):
        e = np.random.default_rng([*np.atleast_1d(seed), attempt]).standard_normal(n).tolist()
        x = [0.0] * n
        for i in range(2, n):
            x[i] = 0.5 * x[i - 1] - 0.3 * x[i - 2] + 0.4 * x[i - 1] * x[i - 2] + sigma * e[i]
            if abs(x[i]) > NONLINEAR_PEAK_LIMIT:
                break
        else:
            x = np.array(x)
            return 0.45 * x / np.max(np.abs(x))
    raise RuntimeError(f"bilinear AR diverged on 100 draws for seed {seed}")


def tone_noise(seed, n: int) -> np.ndarray:
    """440 Hz tone plus a white noise floor."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    return 0.35 * np.sin(2 * np.pi * 440.0 * t) + 0.05 * rng.standard_normal(n)


def wav_bytes(samples: np.ndarray) -> bytes:
    """Mono 16-bit PCM WAV at 8 kHz, samples rounded and clamped to int16."""
    pcm = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(RATE)
        wf.writeframes(pcm.tobytes())
    return buf.getvalue()


@dataclass(frozen=True)
class Workload:
    """Signal recipe plus the coding grid run over every signal.

    `signals` lists (label, generator, sample count); `methods` are
    `nadpcm.harness.METHODS` names. One op codes one signal with one method
    at one bit depth.
    """

    signals: tuple
    methods: tuple
    bits: tuple
    frame_len: int


@dataclass(frozen=True)
class Op:
    signal: str
    method: str
    bits: int
    frame_len: int
    wav: bytes
    audio_s: float


WORKLOADS = {
    "speech-linear": Workload(
        signals=tuple((f"utterance{i}", formant_utterance, 4000) for i in range(2)),
        methods=("ADPCMB-LPC-10", "ADPCMF-LPC-10", "ADPCMB-LPC-25", "ADPCMF-LPC-25"),
        bits=(4,),
        frame_len=200,
    ),
    "speech-neural": Workload(
        signals=tuple((f"utterance{i}", formant_utterance, 4000) for i in range(2)),
        methods=("ADPCMB-MLP", "ADPCMF-MLP", "ADPCMB-HYBRID"),
        bits=(4,),
        frame_len=200,
    ),
    "lowdelay-mixed": Workload(
        signals=(
            ("ar2", linear_ar, 1000),
            ("bilinear", nonlinear_ar, 1000),
            ("tone", tone_noise, 1000),
        ),
        methods=("ADPCMB-LPC-10", "ADPCMF-LPC-25", "ADPCMB-MLP", "ADPCMB-HYBRID"),
        bits=(2, 5),
        frame_len=40,
    ),
}


def build_ops(workload: Workload, seed: int) -> list:
    """The workload's ops for one seed; signal i is drawn from seed [seed, i]."""
    ops = []
    for i, (label, generate, n) in enumerate(workload.signals):
        wav = wav_bytes(generate([seed, i], n))
        for method in workload.methods:
            for bits in workload.bits:
                ops.append(Op(label, method, bits, workload.frame_len, wav, n / RATE))
    return ops
