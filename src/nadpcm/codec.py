"""Closed-loop ADPCM encoder/decoder with per-frame predictor refitting.

Per sample: predict from reconstructed history, quantize the residual,
reconstruct, adapt the quantizer step. One loop does this for both sides;
the decoder runs it on the received codes. A predictor's `predictions`
generator yields each prediction and is sent each reconstructed sample, so
it keeps the history in the form its arithmetic wants.

Each frame is one step over the `CodecState` encoder and decoder share.
One rule, `frame_predictor(state, payload)`, gives every frame's
predictor, and both sides call it, so they cannot drift. Forward frames
rebuild the predictor from the coefficients in the payload (the encoder
fits them on the current original frame). Backward frames refit on the
state's previous reconstructed frame; frame 0 has none and uses the zero
predictor. After frame 0 the payload's candidate names the refit, an
entry of `bitstream.frame_candidates`; an MLP entry is one restart, which
the decoder fits alone with the encoder's own call, `multistart_fit`,
given just that restart's index.

The encoder lists the payloads it could send for a frame with their
predictors, runs the loop from the same state with each, and commits the
state of the one with the smallest squared error, ties going to the
first. Its MLP candidate names the restart with the lowest training SSE
of one `multistart_fit` over all restarts, so the encoder codes with the
net it fitted and the decoder's fit of that restart alone reproduces it.

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
    NEURAL_KINDS,
    Adaptation,
    Bitstream,
    BitstreamError,
    BitstreamHeader,
    CodecConfig,
    FramePayload,
    PredictorKind,
    frame_candidates,
)
from .mlp import Mlp, multistart_fit

HISTORY_LEN = 25  # covers the largest predictor order

ZERO = lpc.LpcModel.zero(0)  # predicts 0.0; the frame-0 backward bootstrap


@dataclass(frozen=True)
class CodecState:
    """What encoder and decoder share before a frame: the last HISTORY_LEN
    reconstructed samples (newest last), the quantizer step, the frame's
    index, the config, and `recon`, the previous reconstructed frame as a
    read-only float64 array (None before frame 0), which backward frames
    refit on. Every candidate of a frame starts from the same state."""

    history: tuple
    step: float
    frame_index: int
    config: CodecConfig
    recon: np.ndarray | None


def initial_state(config: CodecConfig) -> CodecState:
    return CodecState((0.0,) * HISTORY_LEN, config.step_init, 0, config, None)


def fit_predictor(samples, kind: PredictorKind, config: CodecConfig, frame_index: int,
                  restarts=None):
    """Fit a predictor on one frame of samples: the previous decoded frame in
    backward mode (decoder-reproducible), the current original frame in
    forward mode (coefficients transmitted). An MLP fits the listed
    `restarts`, all of them by default."""
    if kind is PredictorKind.MLP:
        return multistart_fit(samples, config.train, config.seed ^ frame_index,
                              range(config.train.restarts) if restarts is None else restarts)
    return lpc.fit(samples, FORWARD_COEFF_COUNT[kind])


def frame_predictor(state: CodecState, payload: FramePayload):
    """Predictor of one frame, the one rule encoder and decoder share.

    Forward frames build it from `payload.forward_coeffs` alone. Backward
    frame 0 has no previous reconstruction and uses ZERO; later backward
    frames refit on `state.recon` as the `frame_candidates` entry
    `payload.candidate` names. An MLP entry is the encoder's
    `multistart_fit` call given only its restart, which gives the same
    net as that restart of the encoder's fit.
    """
    config = state.config
    if config.adaptation is Adaptation.FORWARD:
        coeffs = payload.forward_coeffs
        return Mlp(coeffs) if config.predictor_kind is PredictorKind.MLP else lpc.LpcModel(coeffs)
    if state.recon is None:
        return ZERO
    kind, restart = frame_candidates(config)[payload.candidate]
    return fit_predictor(state.recon, kind, config, state.frame_index, (restart,))


def _candidates(state: CodecState, frame) -> list:
    """The (payload, predictor) pairs, codes still empty, the encoder may
    send for a frame: the coefficients fitted on `frame` in forward mode;
    candidate 0 on backward frame 0; otherwise each non-MLP entry of
    `frame_candidates`, then, for a neural kind, the `multistart_fit`
    winner at its restart's entry. The winner is coded with the net
    already fitted, which is the one `frame_predictor` rebuilds."""
    config = state.config
    kind = config.predictor_kind
    payload = FramePayload(())
    if config.adaptation is Adaptation.FORWARD:
        fitted = fit_predictor(frame, kind, config, state.frame_index)
        payload = FramePayload((), forward_coeffs=fitted.params)
    elif state.recon is not None:
        table = frame_candidates(config)
        listed = (FramePayload((), candidate=i)
                  for i, (entry, _) in enumerate(table) if entry is not PredictorKind.MLP)
        tried = [(p, frame_predictor(state, p)) for p in listed]
        if kind in NEURAL_KINDS:
            net = fit_predictor(state.recon, PredictorKind.MLP, config, state.frame_index)
            index = table.index((PredictorKind.MLP, net.restart))
            tried.append((FramePayload((), candidate=index), net))
        return tried
    return [(payload, frame_predictor(state, payload))]


def _closed_loop(state: CodecState, frame, predictor, codes=None):
    """Run the closed loop over one frame: quantize `frame`, or follow the
    received `codes` when given. Returns (codes, new_state, sse), sse being
    0.0 when following codes. A non-finite prediction raises ValueError
    naming the sample. The predictor's arithmetic runs in its `predictions`
    generator. The new state holds the frame's reconstruction as `recon`,
    and as `history` the last HISTORY_LEN samples of the old history and it.

    The quantizer is written inline, with the operations of
    `quantizer.quantize`, `dequantize` and `next_step` in the same order;
    those functions stay the rule's reference. A code outside the range
    indexes past the multipliers and raises."""
    config = state.config
    multipliers = config.multipliers
    step_min, step_max = config.step_min, config.step_max
    half = 1 << (config.bits - 1)
    code_min, code_max = -half, half - 1
    floor, neg_inf, inf = math.floor, -math.inf, math.inf
    step = state.step
    received = codes is not None
    inputs = codes if received else np.asarray(frame, dtype=np.float64).tolist()
    out, recon, sse = codes if received else [], [], 0.0
    append = recon.append
    predictions = predictor.predictions(state.history)
    p = next(predictions)
    send = predictions.send
    for x in inputs:
        if not neg_inf < p < inf:
            sample = state.frame_index * config.frame_len + len(recon)
            raise ValueError(f"prediction {p} for sample {sample} is not finite")
        if received:
            c = x
        else:
            level = (x - p) / step
            c = code_min if level < code_min else code_max if level >= half else floor(level)
        xr = p + (c + 0.5) * step
        step = step * multipliers[c if c >= 0 else -c - 1]
        if step < step_min:
            step = step_min
        elif step > step_max:
            step = step_max
        append(xr)
        if not received:
            out.append(c)
            d = x - xr
            sse += d * d
        p = send(xr)
    history = (*state.history, *recon)[-HISTORY_LEN:]
    recon = np.array(recon, dtype=np.float64)
    recon.flags.writeable = False
    return out, CodecState(history, step, state.frame_index + 1, config, recon), float(sse)


def encode_frame(state: CodecState, frame, predictor):
    """Quantize one frame; returns (codes, new_state, sse)."""
    return _closed_loop(state, frame, predictor)


def decode_frame(state: CodecState, codes, predictor):
    """Reconstruct one frame from received codes; returns the new state."""
    return _closed_loop(state, None, predictor, codes)[1]


@dataclass(frozen=True)
class FrameStat:
    """Per-frame encoder diagnostics: the committed SSE and each tried
    candidate's coded SSE, in candidate order (one entry when one was tried)."""

    sse: float
    branch_sses: tuple


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
    state = initial_state(config)
    payloads, stats, recon_parts = [], [], []
    for frame in split_frames(signal.samples, config.frame_len):
        tried = [(payload, *encode_frame(state, frame, predictor))
                 for payload, predictor in _candidates(state, frame)]
        payload, codes, state, sse = min(tried, key=lambda t: t[3])
        payloads.append(replace(payload, codes=tuple(codes)))
        stats.append(FrameStat(sse, tuple(t[3] for t in tried)))
        recon_parts.append(state.recon)

    reconstruction = np.concatenate(recon_parts)[: len(signal)]
    bitstream = Bitstream(header=header, payloads=tuple(payloads))
    return EncodeResult(
        bitstream=bitstream,
        reconstruction=Signal(reconstruction, signal.sample_rate),
        frame_stats=tuple(stats),
    )


def decode(bitstream: Bitstream) -> Signal:
    """Reconstruct the signal, getting each frame's predictor from
    `frame_predictor` as the encoder did (an MLP frame trains one restart)."""
    header = bitstream.header
    state = initial_state(header.config)
    parts = []
    for payload in bitstream.payloads:
        try:
            state = decode_frame(state, payload.codes, frame_predictor(state, payload))
        except ValueError as exc:
            raise BitstreamError(str(exc), frame_index=state.frame_index) from None
        parts.append(state.recon)
    samples = np.concatenate(parts)[: header.true_sample_count]
    return Signal(samples, header.sample_rate)
