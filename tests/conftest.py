"""Shared test corpus: deterministic synthetic signals at 8 kHz.

Every generator is a pure function of its seed, so the corpus is
identical across runs and machines with the same numpy build and libm.
The speech-like file is a formant-synthesized utterance: a glottal pulse
train with vibrato and breath noise driven through two resonators,
under a syllabic amplitude envelope.

The pinned digests read their inputs from `tests/data/` (`read_input`)
instead, so that they hold on hosts whose libm gives other bytes;
`test_inputs.py` checks that the generators still give those files.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from nadpcm import Signal

RATE = 8000
DATA = Path(__file__).resolve().parent / "data"


def read_input(name: str, sha256: str, lengths=None) -> list:
    """The 8 kHz signals of the raw little-endian float64 file
    `tests/data/<name>`, split at `lengths` (one signal by default); the
    file must have the sha256 its test holds."""
    data = (DATA / name).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    assert digest == sha256, f"tests/data/{name} has sha256 {digest}, not {sha256}"
    samples = np.frombuffer(data, dtype="<f8").astype(np.float64)
    cuts = np.cumsum(lengths or [len(samples)])[:-1]
    return [Signal(part, RATE) for part in np.split(samples, cuts)]


def formant_utterance(seed: int, n: int) -> Signal:
    """Speech-like synthetic utterance, peak amplitude 0.45."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    f0 = 120.0 * (1.0 + 0.06 * np.sin(2 * np.pi * 3.1 * t))
    phase = np.cumsum(f0) / RATE
    pulses = (np.diff(np.floor(phase), prepend=0.0) > 0).astype(np.float64)
    tri = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    pulses = np.convolve(pulses, tri / tri.sum(), mode="same")
    excitation = 0.7 * pulses + 0.10 * rng.standard_normal(n)
    out = excitation
    for fc, bw in ((700.0, 110.0), (1250.0, 160.0)):
        r = np.exp(-np.pi * bw / RATE)
        theta = 2.0 * np.pi * fc / RATE
        out = lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], out)
    env = 0.40 + 0.60 * np.abs(np.sin(np.pi * 2.2 * t))
    x = out * env
    return Signal(0.45 * x / np.max(np.abs(x)), RATE)


def linear_ar(seed: int, n: int) -> Signal:
    """Stable AR(2) noise: x(n) = 1.3 x(n-1) - 0.6 x(n-2) + e(n), peak 0.4."""
    rng = np.random.default_rng(seed)
    x = lfilter([1.0], [1.0, -1.3, 0.6], rng.standard_normal(n))
    return Signal(0.4 * x / np.max(np.abs(x)), RATE)


def nonlinear_ar_raw(seed: int, n: int, sigma: float = 0.25) -> np.ndarray:
    """Bilinear AR: x(n) = 0.5 x(n-1) - 0.3 x(n-2) + 0.4 x(n-1) x(n-2) + sigma e(n).

    Unscaled; with seed 31 the trajectory stays bounded (peak ~1.24).
    The product term makes one-step prediction genuinely nonlinear.
    """
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.zeros(n)
    for i in range(2, n):
        x[i] = 0.5 * x[i-1] - 0.3 * x[i-2] + 0.4 * x[i-1] * x[i-2] + sigma * e[i]
    return x


def nonlinear_ar(seed: int, n: int) -> Signal:
    """Bilinear AR scaled to peak 0.45 for codec-range testing."""
    x = nonlinear_ar_raw(seed, n)
    return Signal(0.45 * x / np.max(np.abs(x)), RATE)


def tone_noise(seed: int, n: int) -> Signal:
    """440 Hz tone plus white noise floor."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    x = 0.35 * np.sin(2 * np.pi * 440.0 * t) + 0.05 * rng.standard_normal(n)
    return Signal(x, RATE)


# A good WAV's bytes cut or spliced so that the reader must refuse them:
# "RIFF", size and "WAVE", then the fmt chunk at 12 and the data chunk at 36.
MALFORMED_WAVS = {
    "not-riff": lambda good: b"JUNK" + good[4:],
    "cut-8": lambda good: good[:8],
    "cut-12": lambda good: good[:12],
    "cut-20": lambda good: good[:20],
    "no-fmt": lambda good: good[:12] + good[36:],
    "no-data": lambda good: good[:36],
}


@pytest.fixture(scope="session")
def speech_like() -> Signal:
    """One second of the speech-like utterance (40 frames at 200 samples)."""
    return formant_utterance(11, 8000)


@pytest.fixture(scope="session")
def ar_signal() -> Signal:
    return linear_ar(5, 2000)


@pytest.fixture(scope="session")
def nonlinear_signal() -> Signal:
    return nonlinear_ar(31, 3000)


@pytest.fixture(scope="session")
def corpus(speech_like, ar_signal, nonlinear_signal):
    """Five signals: two utterances, linear AR, nonlinear AR, tone+noise."""
    return [
        speech_like,
        formant_utterance(29, 4000),
        ar_signal,
        nonlinear_signal,
        tone_noise(3, 2000),
    ]
