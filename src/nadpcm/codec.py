"""Closed-loop ADPCM encoder/decoder with per-frame predictor refitting.

Per sample: predict from reconstructed history, quantize the residual,
reconstruct, adapt the quantizer step. One loop does this for both sides;
the decoder runs it on the received codes.

One rule, `frame_predictor`, gives every frame's predictor from the
config, the frame index, the previous reconstructed frame and the
frame's payload, and encoder and decoder both call it, so they cannot
drift. Forward frames rebuild the predictor from the coefficients in the
payload (the encoder fits them on the current original frame). Backward
frames refit on the previous reconstructed frame, which the decoder has
too, and frame 0 uses the zero predictor. In hybrid mode the payload's
flag bit picks the LPC-10 (0) or the neural (1) refit.

The encoder lists the payloads it could send for a frame (two for a
hybrid frame after frame 0, one otherwise), runs the loop from the same
state with each payload's predictor, and commits the one with the
smallest squared error, ties going to the first.

Reconstructed history is continuous across frame boundaries; predictor
training sets are not.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lpc
from .audio import Signal, split_frames
from .bitstream import (
    FORWARD_COEFF_COUNT,
    Adaptation,
    Bitstream,
    BitstreamError,
    BitstreamHeader,
    CodecConfig,
    FramePayload,
    PredictorKind,
)
from .mlp import Mlp, multistart_fit
from .quantizer import dequantize, next_step, quantize

HISTORY_LEN = 25  # covers the largest predictor order

ZERO = lpc.LpcModel.zero(0)  # predicts 0.0; the frame-0 backward bootstrap


@dataclass(frozen=True)
class CodecState:
    """Loop state between frames: history (newest last), step, frame index, config."""

    history: tuple
    step: float
    frame_index: int
    config: CodecConfig


def initial_state(config: CodecConfig) -> CodecState:
    return CodecState((0.0,) * HISTORY_LEN, config.step_init, 0, config)


def fit_predictor(samples, kind: PredictorKind, config: CodecConfig, frame_index: int):
    """Fit a predictor on one frame of samples: the previous decoded frame in
    backward mode (decoder-reproducible), the current original frame in
    forward mode (coefficients transmitted)."""
    if kind is PredictorKind.MLP:
        return multistart_fit(samples, config.train, config.seed ^ frame_index)
    return lpc.fit(samples, FORWARD_COEFF_COUNT[kind])


def frame_predictor(config: CodecConfig, frame_index: int, prev_recon, payload: FramePayload):
    """Predictor of one frame, the one rule encoder and decoder share.

    Forward frames rebuild it from `payload.forward_coeffs`. Backward
    frame 0 has no decoded history and uses ZERO; later backward frames
    refit on `prev_recon`, the previous reconstructed frame, and in
    hybrid mode `payload.hybrid_flag` picks LPC-10 (0) or the MLP (1).
    """
    kind = config.predictor_kind
    if config.adaptation is Adaptation.FORWARD:
        coeffs = payload.forward_coeffs
        if kind is PredictorKind.MLP:
            return Mlp(coeffs)
        return lpc.LpcModel(len(coeffs), coeffs, np.zeros(len(coeffs)))
    if frame_index == 0:
        return ZERO
    if kind is PredictorKind.HYBRID:
        kind = PredictorKind.MLP if payload.hybrid_flag else PredictorKind.LPC10
    return fit_predictor(prev_recon, kind, config, frame_index)


def _candidate_payloads(config: CodecConfig, frame, frame_index: int) -> list:
    """The payloads, codes still empty, the encoder may send for a frame:
    the coefficients fitted on `frame` in forward mode, both hybrid flags
    after frame 0, otherwise a bare payload."""
    kind = config.predictor_kind
    if config.adaptation is Adaptation.FORWARD:
        fitted = fit_predictor(frame, kind, config, frame_index)
        vector = fitted.theta if kind is PredictorKind.MLP else fitted.coeffs
        return [FramePayload((), forward_coeffs=tuple(vector.tolist()))]
    if kind is PredictorKind.HYBRID:
        return [FramePayload((), hybrid_flag=f) for f in ((0, 1) if frame_index else (0,))]
    return [FramePayload(())]


def _closed_loop(state: CodecState, frame, predictor, codes=None):
    """Run the closed loop over one frame: quantize `frame`, or follow the
    received `codes` when given. Returns (codes, new_state, reconstruction,
    sse), sse being 0.0 when following codes. A non-finite prediction
    raises ValueError naming the sample."""
    config = state.config
    bits, multipliers = config.bits, config.multipliers
    step_min, step_max = config.step_min, config.step_max
    step = state.step
    hist = list(state.history)
    received = codes is not None
    inputs = codes if received else np.asarray(frame, dtype=np.float64).tolist()
    out, recon, sse = codes if received else [], [], 0.0
    for n, x in enumerate(inputs):
        p = predictor.predict(hist)
        if not -math.inf < p < math.inf:
            sample = state.frame_index * config.frame_len + n
            raise ValueError(f"prediction {p} for sample {sample} is not finite")
        c = x if received else quantize(x - p, step, bits)
        xr = p + dequantize(c, step)
        step = next_step(step, c, multipliers, step_min, step_max)
        hist.append(xr)
        del hist[0]
        recon.append(xr)
        if not received:
            out.append(c)
            d = x - xr
            sse += d * d
    new_state = CodecState(tuple(hist), step, state.frame_index + 1, config)
    return out, new_state, np.array(recon, dtype=np.float64), float(sse)


def encode_frame(state: CodecState, frame, predictor):
    """Quantize one frame; returns (codes, new_state, reconstruction, sse)."""
    return _closed_loop(state, frame, predictor)


def decode_frame(state: CodecState, codes, predictor):
    """Reconstruct one frame from received codes; returns (recon, new_state)."""
    _, new_state, recon, _ = _closed_loop(state, None, predictor, codes)
    return recon, new_state


@dataclass(frozen=True)
class FrameStat:
    """Per-frame encoder diagnostics."""

    sse: float
    hybrid_flag: int | None = None
    branch_sses: tuple | None = None  # (linear, neural) when hybrid


@dataclass(frozen=True)
class EncodeResult:
    bitstream: Bitstream
    reconstruction: Signal
    frame_stats: tuple


def encode(signal: Signal, config: CodecConfig) -> EncodeResult:
    """Encode a signal; returns the bitstream plus the encoder's own
    reconstruction (what a tracking decoder will reproduce exactly)."""
    if len(signal) == 0:
        raise ValueError("cannot encode an empty signal")
    non_finite = np.flatnonzero(~np.isfinite(signal.samples))
    if non_finite.size:
        i = non_finite[0]
        raise ValueError(f"sample {i} is not finite ({signal.samples[i]})")
    header = BitstreamHeader(signal.sample_rate, len(signal), config)
    frames = split_frames(signal.samples, config.frame_len)
    state = initial_state(config)
    prev_recon = None
    payloads = []
    stats = []
    recon_parts = []
    for idx, frame in enumerate(frames):
        tried = []
        for payload in _candidate_payloads(config, frame, idx):
            predictor = frame_predictor(config, idx, prev_recon, payload)
            tried.append((payload, *encode_frame(state, frame, predictor)))
        payload, codes, state, prev_recon, sse = min(tried, key=lambda t: t[4])
        payloads.append(replace(payload, codes=tuple(codes)))
        branches = tuple(t[4] for t in tried) if len(tried) > 1 else None
        stats.append(FrameStat(sse=sse, hybrid_flag=payload.hybrid_flag, branch_sses=branches))
        recon_parts.append(prev_recon)

    reconstruction = np.concatenate(recon_parts)[: len(signal)]
    bitstream = Bitstream(header=header, payloads=tuple(payloads))
    return EncodeResult(
        bitstream=bitstream,
        reconstruction=Signal(reconstruction, signal.sample_rate),
        frame_stats=tuple(stats),
    )


def decode(bitstream: Bitstream) -> Signal:
    """Reconstruct the signal, getting each frame's predictor from
    `frame_predictor` as the encoder did."""
    header = bitstream.header
    config = header.config
    state = initial_state(config)
    prev_recon = None
    parts = []
    for idx, payload in enumerate(bitstream.payloads):
        try:
            predictor = frame_predictor(config, idx, prev_recon, payload)
            prev_recon, state = decode_frame(state, payload.codes, predictor)
        except ValueError as exc:
            raise BitstreamError(str(exc), frame_index=idx) from None
        parts.append(prev_recon)
    samples = np.concatenate(parts)[: header.true_sample_count]
    return Signal(samples, header.sample_rate)
