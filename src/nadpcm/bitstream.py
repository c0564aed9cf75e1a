"""Self-describing codec bitstream: header plus bit-packed frame payloads.

Layout (multi-byte integers little-endian, reals IEEE-754 binary64
little-endian):

  magic "NADP" | version=1 | sample_rate u32 | true_sample_count u64 |
  frame_len u16 | bits u8 | predictor_kind u8 | adaptation u8 |
  epochs u8 | restarts u8 | seed u64 | step_init f64 | step_min f64 |
  step_max f64 | multiplier_count u8 | multipliers f64[] |
  init_scale f64 | lambda_init f64 | lambda_up f64 | lambda_down f64

After sample_rate and true_sample_count the header is the `CodecConfig`
the stream was encoded with; parse rebuilds it, so a header is valid
exactly when that configuration is.

Frame payloads follow as one fixed-width bit row per frame (`frame_row`),
MSB-first within each byte: the hybrid flag bit (hybrid only), 64 bits
per forward predictor coefficient (forward only, the f64 bytes as
above), then frame_len codes of `bits` bits each (biased to unsigned by
adding 2^(bits-1)). Forward rows are zero-padded to a whole byte, so
each frame's coefficients start on a byte boundary; other rows follow
each other without padding. The rows are packed back to back and the
final byte is zero-padded. Padding bits must be zero; parse rejects a
stream with a nonzero one, so each stream has exactly one encoding.

A `Bitstream` checks its payloads against its header when it is built,
so serialize and the decoder only ever see consistent frames.
"""

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .mlp import MASK64, MIN_FRAME_LEN, N_PARAMS, TrainConfig
from .quantizer import (
    DEFAULT_STEP_INIT,
    DEFAULT_STEP_MAX,
    DEFAULT_STEP_MIN,
    check_params,
    code_range,
)

MAGIC = b"NADP"
VERSION = 1


class PredictorKind(IntEnum):
    LPC10 = 0
    LPC25 = 1
    MLP = 2
    HYBRID = 3


class Adaptation(IntEnum):
    BACKWARD = 0
    FORWARD = 1


# Coefficient count transmitted per frame in forward mode; for the LPC
# kinds it is also the predictor order.
FORWARD_COEFF_COUNT = {
    PredictorKind.LPC10: 10,
    PredictorKind.LPC25: 25,
    PredictorKind.MLP: N_PARAMS,
}


class BitstreamError(ValueError):
    """Structurally invalid bitstream; frame_index is set when known."""

    def __init__(self, message, frame_index=None):
        if frame_index is not None:
            message = f"frame {frame_index}: {message}"
        super().__init__(message)
        self.frame_index = frame_index


@dataclass(frozen=True)
class CodecConfig:
    """Everything the decoder needs to mirror the encoder; the stream header
    carries it field by field. Construction is the one place a
    configuration is validated."""

    frame_len: int = 200
    bits: int = 4
    predictor_kind: PredictorKind = PredictorKind.LPC10
    adaptation: Adaptation = Adaptation.BACKWARD
    train: TrainConfig = field(default_factory=TrainConfig)
    step_init: float = DEFAULT_STEP_INIT
    step_min: float = DEFAULT_STEP_MIN
    step_max: float = DEFAULT_STEP_MAX
    multipliers: tuple = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "multipliers", check_params(
            self.bits, self.step_init, self.step_min, self.step_max, self.multipliers))
        if self.frame_len < 1:
            raise ValueError(f"frame_len must be >= 1, got {self.frame_len}")
        needs_mlp = self.predictor_kind in (PredictorKind.MLP, PredictorKind.HYBRID)
        if needs_mlp and self.frame_len < MIN_FRAME_LEN:
            raise ValueError(f"frame_len must be >= {MIN_FRAME_LEN} for neural predictors, "
                             f"got {self.frame_len}")
        if self.predictor_kind is PredictorKind.HYBRID and self.adaptation is not Adaptation.BACKWARD:
            raise ValueError("hybrid coding is defined for backward adaptation only")
        object.__setattr__(self, "seed", self.seed & MASK64)

    def payload_bit_rate(self, sample_rate: int) -> float:
        """Payload bits/second: code bits plus the hybrid flag overhead.

        Forward coefficient overhead is excluded; forward mode is the
        unquantized reference configuration.
        """
        flag_bits, _, codes, _ = frame_row(self)
        return (flag_bits + codes.stop - codes.start) * sample_rate / self.frame_len


@dataclass(frozen=True)
class BitstreamHeader:
    sample_rate: int
    true_sample_count: int
    config: CodecConfig

    @property
    def frame_count(self) -> int:
        return -(-self.true_sample_count // self.config.frame_len)


@dataclass(frozen=True)
class FramePayload:
    codes: tuple
    hybrid_flag: int | None = None
    forward_coeffs: tuple | None = None


@dataclass(frozen=True)
class Bitstream:
    """A header and one payload per frame; construction checks that every
    payload has the shape the header's `frame_row` gives it and raises
    BitstreamError, naming the frame, where one does not."""

    header: BitstreamHeader
    payloads: tuple

    def __post_init__(self):
        payloads, frames = self.payloads, self.header.frame_count
        if not frames:
            raise BitstreamError("bitstream holds no frames")
        if len(payloads) != frames:
            raise BitstreamError(f"{len(payloads)} payloads for a {frames}-frame header")
        config = self.header.config
        flag_bits, count, _, _ = frame_row(config)
        code_min, code_max = code_range(config.bits)
        for i, p in enumerate(payloads):
            if p.hybrid_flag not in ((0, 1) if flag_bits else (None,)):
                need = "0 or 1" if flag_bits else "None"
                raise BitstreamError(f"hybrid_flag must be {need}, got {p.hybrid_flag!r}", i)
            n_coeffs = None if p.forward_coeffs is None else len(p.forward_coeffs)
            if n_coeffs != (count or None):
                raise BitstreamError(f"expected {count or 'no'} forward_coeffs, got {n_coeffs}", i)
            if len(p.codes) != config.frame_len:
                raise BitstreamError(
                    f"expected {config.frame_len} codes, got {len(p.codes)}", i)
            for c in p.codes:
                if type(c) is not int and not isinstance(c, np.integer):
                    raise BitstreamError(f"codes must be integers, got {c!r}", i)
                if not code_min <= c <= code_max:
                    raise BitstreamError(f"code {c} outside [{code_min}, {code_max}]", i)


def frame_row(config: CodecConfig) -> tuple[int, int, slice, int]:
    """The one frame row layout of the module docstring, as (flag bits,
    forward coefficient count, code columns, row bits); the coefficients
    fill the columns between the flag and the codes."""
    flag_bits = int(config.predictor_kind is PredictorKind.HYBRID)
    forward = config.adaptation is Adaptation.FORWARD
    count = FORWARD_COEFF_COUNT[config.predictor_kind] if forward else 0
    start = flag_bits + 64 * count
    codes = slice(start, start + config.frame_len * config.bits)
    row_bits = codes.stop + (-codes.stop % 8 if count else 0)
    return flag_bits, count, codes, row_bits


def serialize(bitstream: Bitstream) -> bytes:
    """Serialize header and payloads; the inverse of parse."""
    h = bitstream.header
    c = h.config
    t = c.train
    for name, value, limit in [
        ("frame_len", c.frame_len, 0xFFFF),
        ("epochs", t.epochs, 0xFF),
        ("restarts", t.restarts, 0xFF),
    ]:
        if value > limit:
            raise ValueError(f"{name} {value} not representable in header")
    payloads = bitstream.payloads
    flag_bits, count, code_cols, row_bits = frame_row(c)

    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", VERSION)
    out += struct.pack("<IQH", h.sample_rate, h.true_sample_count, c.frame_len)
    out += struct.pack(
        "<BBBBB", c.bits, int(c.predictor_kind), int(c.adaptation), t.epochs, t.restarts
    )
    out += struct.pack("<Q", c.seed)
    out += struct.pack("<ddd", c.step_init, c.step_min, c.step_max)
    out += struct.pack("<B", len(c.multipliers))
    out += struct.pack(f"<{len(c.multipliers)}d", *c.multipliers)
    out += struct.pack("<dddd", t.init_scale, t.lambda_init, t.lambda_up, t.lambda_down)

    frames = len(payloads)
    u = np.array([p.codes for p in payloads]) + (1 << (c.bits - 1))
    rows = np.zeros((frames, row_bits), dtype=np.uint8)
    if flag_bits:
        rows[:, 0] = [p.hybrid_flag for p in payloads]
    if count:
        coeffs = np.array([p.forward_coeffs for p in payloads], dtype="<f8")
        rows[:, flag_bits : code_cols.start] = np.unpackbits(
            coeffs.view(np.uint8).reshape(frames, 8 * count), axis=1)
    rows[:, code_cols] = ((u[..., None] >> np.arange(c.bits - 1, -1, -1)) & 1).reshape(frames, -1)
    out += np.packbits(rows).tobytes()
    return bytes(out)


def _read_struct(data: bytes, offset: int, fmt: str):
    size = struct.calcsize(fmt)
    if offset + size > len(data):
        raise BitstreamError("header truncated")
    return struct.unpack_from(fmt, data, offset), offset + size


def parse(data: bytes) -> Bitstream:
    """Parse serialized bytes back into a Bitstream, validating structure."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise BitstreamError(f"bad magic {data[:4]!r}")
    offset = 4
    (version,), offset = _read_struct(data, offset, "<B")
    if version != VERSION:
        raise BitstreamError(f"unsupported version {version}")
    (sample_rate, true_count, frame_len), offset = _read_struct(data, offset, "<IQH")
    (bits, kind_raw, adapt_raw, epochs, restarts), offset = _read_struct(data, offset, "<BBBBB")
    (seed,), offset = _read_struct(data, offset, "<Q")
    (step_init, step_min, step_max), offset = _read_struct(data, offset, "<ddd")
    (mult_count,), offset = _read_struct(data, offset, "<B")
    if mult_count == 0:
        raise BitstreamError("multiplier count 0; the table is always transmitted")
    multipliers, offset = _read_struct(data, offset, f"<{mult_count}d")
    (init_scale, lambda_init, lambda_up, lambda_down), offset = _read_struct(
        data, offset, "<dddd"
    )
    if true_count < 1:
        raise BitstreamError("empty stream")
    if sample_rate < 1:
        raise BitstreamError(f"sample_rate must be >= 1, got {sample_rate}")
    try:
        config = CodecConfig(
            frame_len=frame_len,
            bits=bits,
            predictor_kind=PredictorKind(kind_raw),
            adaptation=Adaptation(adapt_raw),
            train=TrainConfig(
                epochs=epochs,
                restarts=restarts,
                lambda_init=lambda_init,
                lambda_up=lambda_up,
                lambda_down=lambda_down,
                init_scale=init_scale,
            ),
            step_init=step_init,
            step_min=step_min,
            step_max=step_max,
            multipliers=multipliers,
            seed=seed,
        )
    except ValueError as exc:
        raise BitstreamError(f"invalid header: {exc}") from None
    header = BitstreamHeader(sample_rate, true_count, config)

    frames = header.frame_count
    flag_bits, count, code_cols, row_bits = frame_row(config)
    payload = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=offset))
    complete = min(frames, len(payload) // row_bits)
    rows = payload[: complete * row_bits].reshape(complete, row_bits)
    coeffs = [None] * complete
    if count:
        block = np.packbits(rows[:, flag_bits : code_cols.start], axis=1).view("<f8")
        bad = ~np.isfinite(block).all(axis=1)
        if bad.any():
            raise BitstreamError("non-finite forward coefficient", frame_index=int(bad.argmax()))
        coeffs = [tuple(c) for c in block.tolist()]
    if complete < frames:
        raise BitstreamError("payload truncated", frame_index=complete)
    trailing = (len(payload) - frames * row_bits) // 8
    if trailing > 0:
        raise BitstreamError(f"{trailing} unexpected trailing bytes")
    padded = rows[:, code_cols.stop :].any(axis=1)
    if padded.any():
        raise BitstreamError("nonzero padding bits", frame_index=int(padded.argmax()))
    if payload[frames * row_bits :].any():
        raise BitstreamError("nonzero padding bits after the last frame")

    weights = 1 << np.arange(bits - 1, -1, -1)
    codes = rows[:, code_cols].reshape(frames, frame_len, bits) @ weights - (1 << (bits - 1))
    flags = rows[:, 0].tolist() if flag_bits else [None] * frames
    return Bitstream(header=header, payloads=tuple(
        FramePayload(codes=tuple(row), hybrid_flag=flag, forward_coeffs=coeff)
        for row, flag, coeff in zip(codes.tolist(), flags, coeffs)
    ))
