"""Closed-loop ADPCM encoder/decoder with per-frame predictor refitting.

Per sample: predict from reconstructed history, quantize the residual,
reconstruct, adapt the quantizer step. Predictors are refitted once per
frame, either from the previous decoded frame (backward: the decoder
re-derives them from its own output, nothing is transmitted) or from the
current original frame (forward: coefficients travel in the payload).
The hybrid mode runs a linear and a neural branch from the same state
snapshot, commits whichever reconstructs the frame with smaller squared
error, and spends one flag bit per frame to tell the decoder.

Reconstructed history is continuous across frame boundaries; predictor
training sets are not.
"""

from dataclasses import dataclass

import numpy as np

from . import lpc
from .audio import Signal, split_frames
from .bitstream import (
    Adaptation,
    Bitstream,
    BitstreamError,
    BitstreamHeader,
    CodecConfig,
    FORWARD_COEFF_COUNT,
    FramePayload,
    PredictorKind,
)
from .mlp import MASK64, Mlp, multistart_fit
from .quantizer import AdaptiveQuantizer

HISTORY_LEN = 25  # covers the largest predictor order

LPC_ORDER = {PredictorKind.LPC10: 10, PredictorKind.LPC25: 25}


class ZeroPredictor:
    """Predicts 0.0 regardless of history; the frame-0 backward bootstrap."""

    def predict(self, history) -> float:
        return 0.0


ZERO = ZeroPredictor()


@dataclass(frozen=True)
class CodecState:
    """Reconstruction history (newest last), quantizer state, frame counter."""

    history: tuple
    quantizer: AdaptiveQuantizer
    frame_index: int = 0


def initial_state(config: CodecConfig) -> CodecState:
    quantizer = AdaptiveQuantizer(
        bits=config.bits,
        step=config.step_init,
        step_min=config.step_min,
        step_max=config.step_max,
        multipliers=config.multipliers,
    )
    return CodecState(history=(0.0,) * HISTORY_LEN, quantizer=quantizer, frame_index=0)


def fit_backward(samples, kind: PredictorKind, config: CodecConfig, frame_index: int):
    """Fit a predictor on one frame of samples: the previous decoded frame in
    backward mode (decoder-reproducible), the current original frame in
    forward mode (coefficients transmitted)."""
    if kind in LPC_ORDER:
        return lpc.fit(samples, LPC_ORDER[kind])
    if kind is PredictorKind.MLP:
        return multistart_fit(samples, config.train, (config.seed ^ frame_index) & MASK64)
    raise ValueError(f"cannot fit predictor kind {kind}")


def frame_predictor(config: CodecConfig, frame_index: int, prev_recon, flag=None):
    """Backward predictor of a frame, the one rule encoder and decoder share.

    Frame 0 has no decoded history and uses ZERO. Later frames refit from
    the previous reconstructed frame; in hybrid mode `flag` picks the
    branch, 0 for LPC-10 and 1 for the MLP.
    """
    if frame_index == 0:
        return ZERO
    kind = config.predictor_kind
    if kind is PredictorKind.HYBRID:
        kind = PredictorKind.MLP if flag else PredictorKind.LPC10
    return fit_backward(prev_recon, kind, config, frame_index)


def forward_coeff_vector(predictor, kind: PredictorKind) -> tuple:
    """Coefficients emitted verbatim into a forward-mode frame payload."""
    if kind in LPC_ORDER:
        return tuple(float(c) for c in predictor.coeffs)
    if kind is PredictorKind.MLP:
        return tuple(float(v) for v in predictor.to_vector())
    raise ValueError(f"no coefficient layout for kind {kind}")


def predictor_from_coeffs(kind: PredictorKind, coeffs):
    """Rebuild the predictor a forward-mode payload describes."""
    expected = FORWARD_COEFF_COUNT[kind]
    if len(coeffs) != expected:
        raise ValueError(f"kind {kind.name} needs {expected} coefficients, got {len(coeffs)}")
    if kind in LPC_ORDER:
        return lpc.LpcModel.from_coeffs(coeffs)
    return Mlp.from_vector(np.asarray(coeffs, dtype=np.float64))


def encode_frame(state: CodecState, frame, predictor):
    """Run the closed loop over one frame.

    Returns (codes, new_state, reconstruction, sse) where sse is the
    frame's total squared reconstruction error.
    """
    hist = list(state.history)
    q = state.quantizer
    codes = []
    recon = np.empty(len(frame), dtype=np.float64)
    sse = 0.0
    for n, x in enumerate(frame):
        p = predictor.predict(hist)
        c = q.quantize(x - p)
        xr = p + q.dequantize(c)
        q = q.adapt(c)
        hist.append(xr)
        del hist[0]
        codes.append(c)
        recon[n] = xr
        d = x - xr
        sse += d * d
    new_state = CodecState(tuple(hist), q, state.frame_index + 1)
    return codes, new_state, recon, float(sse)


def decode_frame(state: CodecState, codes, predictor):
    """Mirror of encode_frame driven by received codes."""
    hist = list(state.history)
    q = state.quantizer
    recon = np.empty(len(codes), dtype=np.float64)
    for n, c in enumerate(codes):
        p = predictor.predict(hist)
        xr = p + q.dequantize(c)
        q = q.adapt(c)
        hist.append(xr)
        del hist[0]
        recon[n] = xr
    return recon, CodecState(tuple(hist), q, state.frame_index + 1)


def encode_frame_hybrid(state: CodecState, frame, linear_predictor, neural_predictor):
    """Try both predictor branches from the same state snapshot.

    The branch with the smaller reconstruction SSE wins and its end state
    is committed; ties go to the linear branch (flag 0).
    """
    codes_l, state_l, recon_l, sse_l = encode_frame(state, frame, linear_predictor)
    codes_n, state_n, recon_n, sse_n = encode_frame(state, frame, neural_predictor)
    if sse_n < sse_l:
        return 1, codes_n, state_n, recon_n, (sse_l, sse_n)
    return 0, codes_l, state_l, recon_l, (sse_l, sse_n)


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
    frames, _ = split_frames(signal.samples, config.frame_len)
    kind = config.predictor_kind
    hybrid = kind is PredictorKind.HYBRID

    state = initial_state(config)
    prev_recon = None
    payloads = []
    stats = []
    recon_parts = []
    for idx, frame in enumerate(frames):
        if config.adaptation is Adaptation.FORWARD:
            predictor = fit_backward(frame, kind, config, idx)
            codes, state, recon, sse = encode_frame(state, frame, predictor)
            coeffs = forward_coeff_vector(predictor, kind)
            payloads.append(FramePayload(codes=tuple(codes), forward_coeffs=coeffs))
            stats.append(FrameStat(sse=sse))
        elif hybrid and idx > 0:
            flag, codes, state, recon, branches = encode_frame_hybrid(
                state,
                frame,
                frame_predictor(config, idx, prev_recon, 0),
                frame_predictor(config, idx, prev_recon, 1),
            )
            payloads.append(FramePayload(codes=tuple(codes), hybrid_flag=flag))
            stats.append(FrameStat(sse=branches[flag], hybrid_flag=flag, branch_sses=branches))
        else:
            predictor = frame_predictor(config, idx, prev_recon)
            codes, state, recon, sse = encode_frame(state, frame, predictor)
            flag = 0 if hybrid else None
            payloads.append(FramePayload(codes=tuple(codes), hybrid_flag=flag))
            stats.append(FrameStat(sse=sse, hybrid_flag=flag))
        prev_recon = recon
        recon_parts.append(recon)

    reconstruction = np.concatenate(recon_parts)[: len(signal)]
    header = BitstreamHeader(signal.sample_rate, len(signal), config)
    bitstream = Bitstream(header=header, payloads=tuple(payloads))
    return EncodeResult(
        bitstream=bitstream,
        reconstruction=Signal(reconstruction, signal.sample_rate),
        frame_stats=tuple(stats),
    )


def decode(bitstream: Bitstream) -> Signal:
    """Reconstruct the signal, re-deriving backward predictors from the
    decoder's own output frame by frame."""
    header = bitstream.header
    config = header.config
    kind = config.predictor_kind
    if len(bitstream.payloads) != header.frame_count:
        raise BitstreamError(
            f"expected {header.frame_count} frames, got {len(bitstream.payloads)}"
        )

    state = initial_state(config)
    prev_recon = None
    parts = []
    for idx, payload in enumerate(bitstream.payloads):
        try:
            if config.adaptation is Adaptation.FORWARD:
                if payload.forward_coeffs is None:
                    raise ValueError("forward stream frame lacks coefficients")
                predictor = predictor_from_coeffs(kind, payload.forward_coeffs)
            else:
                if kind is PredictorKind.HYBRID and payload.hybrid_flag is None:
                    raise ValueError("hybrid stream frame lacks its flag bit")
                predictor = frame_predictor(config, idx, prev_recon, payload.hybrid_flag)
            recon, state = decode_frame(state, payload.codes, predictor)
        except ValueError as exc:
            raise BitstreamError(str(exc), frame_index=idx) from None
        prev_recon = recon
        parts.append(recon)

    if not parts:
        raise BitstreamError("bitstream holds no frames")
    samples = np.concatenate(parts)[: header.true_sample_count]
    return Signal(samples, header.sample_rate)
