"""Self-describing codec bitstream: header plus bit-packed frame payloads.

The header is magic "NADP", a u8 version (8), then the integer fields
of `HEADER_FIELDS` in table order, each little-endian with its struct
code: one fixed struct (`HEADER`) that serialize and parse both use, so
every header is 30 bytes. After sample_rate and true_sample_count the header is the
`CodecConfig` the stream was encoded with; parse rebuilds it by field
name (`config_from`), then `BitstreamHeader`, so a header is valid exactly
when those are. Their construction also refuses a non-integer or
too-large value in an integer field, so nothing the header cannot carry is coded.

Frame payloads follow as one fixed-width bit row per frame
(`frame_row`), MSB-first within each byte: the candidate field, 64 bits
per forward predictor coefficient (forward only, little-endian IEEE-754
binary64), then frame_len codes of `bits` bits each (biased to unsigned
by adding 2^(bits-1)). The candidate field names the predictor kind the
encoder chose, in the fewest bits that hold every index of
`frame_candidates`: hybrid sends 0 for LPC-10 or 1 for the MLP in 1 bit,
every other kind candidate 0 in no bits. Backward frame 0 always uses
the zero predictor and carries candidate 0. Forward rows are zero-padded
to a whole byte, so each frame's coefficients start on a byte boundary;
other rows follow each other without padding. The rows are packed back
to back and the final byte is zero-padded. Padding bits must be zero and
a candidate must be in range; parse rejects a stream otherwise, so each
stream has exactly one encoding. Every version other than 8 is refused.
Payload values are checked once, when a `Bitstream` is built.
"""

import math
import struct
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import ClassVar

import numpy as np

from .mlp import MASK64, MIN_FRAME_LEN, N_PARAMS, TOO_SHORT
from .number import as_int, as_real, as_tuple
from .quantizer import MULTIPLIERS, STEP_INIT, STEP_MAX, STEP_MIN, code_range

MAGIC = b"NADP"
VERSION = 8

# The header after magic and version: (field, struct code) in wire order.
HEADER_FIELDS = (
    ("sample_rate", "I"), ("true_sample_count", "Q"),
    ("frame_len", "H"), ("bits", "B"), ("predictor_kind", "B"), ("adaptation", "B"), ("seed", "Q"),
)
HEADER = struct.Struct("<" + "".join(code for _, code in HEADER_FIELDS))


def _check_representable(obj, *names, minimum=None):
    """Store each named unsigned header field as a Python int (`as_int`, with
    `minimum`), or raise ValueError for one too large for its header code."""
    for name in names:
        value = as_int(name, getattr(obj, name), minimum)
        if value >= 256 ** struct.calcsize("<" + dict(HEADER_FIELDS)[name]):
            raise ValueError(f"{name} {value} not representable in header")
        object.__setattr__(obj, name, value)


class PredictorKind(IntEnum):
    LPC10 = 0
    LPC25 = 1
    MLP = 2
    HYBRID = 3


NEURAL_KINDS = (PredictorKind.MLP, PredictorKind.HYBRID)  # the kinds that fit the MLP


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
    carries it field by field. Construction is the one place a configuration
    is validated. The quantizer's steps and tables, read through it, and the
    MLP fit's counts (`mlp.EPOCHS`, `RESTARTS`) are format constants, not fields."""

    frame_len: int = 200
    bits: int = 4
    predictor_kind: PredictorKind = PredictorKind.LPC10
    adaptation: Adaptation = Adaptation.BACKWARD
    seed: int = 0  # any integer; stored wrapped to 64 bits
    step_init: ClassVar[float] = STEP_INIT
    step_min: ClassVar[float] = STEP_MIN
    step_max: ClassVar[float] = STEP_MAX

    def __post_init__(self):
        object.__setattr__(self, "seed", as_int("seed", self.seed) & MASK64)
        _check_representable(self, "bits", "predictor_kind", "adaptation")
        _check_representable(self, "frame_len", minimum=1)
        if self.bits not in MULTIPLIERS:
            raise ValueError(f"bits must be in 2..5, got {self.bits}")
        object.__setattr__(self, "predictor_kind", PredictorKind(self.predictor_kind))
        object.__setattr__(self, "adaptation", Adaptation(self.adaptation))
        if self.predictor_kind in NEURAL_KINDS and self.frame_len < MIN_FRAME_LEN:
            raise ValueError(TOO_SHORT.format(self.frame_len))
        if self.predictor_kind is PredictorKind.HYBRID and self.adaptation is not Adaptation.BACKWARD:
            raise ValueError("hybrid coding is defined for backward adaptation only")

    @property
    def multipliers(self) -> tuple:  # this depth's table, innermost rank first
        return MULTIPLIERS[self.bits]

    def payload_bit_rate(self, sample_rate: int) -> float:
        """Payload bits/second: code bits plus the candidate field.

        Forward coefficient overhead is excluded; forward mode is the
        unquantized reference configuration.
        """
        candidate_bits, _, codes, _ = frame_row(self)
        return (candidate_bits + codes.stop - codes.start) * sample_rate / self.frame_len


@dataclass(frozen=True)
class BitstreamHeader:
    sample_rate: int
    true_sample_count: int
    config: CodecConfig

    def __post_init__(self):
        _check_representable(self, "true_sample_count")
        if self.true_sample_count < 1:
            raise ValueError("empty stream")
        _check_representable(self, "sample_rate", minimum=1)

    @property
    def frame_count(self) -> int:
        return -(-self.true_sample_count // self.config.frame_len)


@dataclass(frozen=True)
class FramePayload:
    codes: tuple
    candidate: int = 0
    forward_coeffs: tuple = ()


@dataclass(frozen=True)
class Bitstream:
    """A header and one payload per frame. Construction is the one check of
    payload values: each must have the shape the header's `frame_row` gives
    it, or BitstreamError names the frame. Codes and the candidate are stored
    as ints (`as_int`) and the coefficients as finite floats (`as_real`), in
    tuples, so no numpy scalar reaches the coding loop."""

    header: BitstreamHeader
    payloads: tuple

    def __post_init__(self):
        payloads, frames = self.payloads, self.header.frame_count
        if len(payloads) != frames:
            raise BitstreamError(f"{len(payloads)} payloads for a {frames}-frame header")
        config = self.header.config
        candidates, count = len(frame_candidates(config)), frame_row(config)[1]
        code_min, code_max = code_range(config.bits)
        inf = math.inf
        stored = list(payloads)
        for i, p in enumerate(payloads):
            try:
                codes, cand, coeffs = p.codes, p.candidate, p.forward_coeffs
                exact = type(codes) is tuple and type(cand) is int and type(coeffs) is tuple
                if not exact:
                    codes, coeffs = as_tuple("codes", codes), as_tuple("forward_coeffs", coeffs)
                    cand = as_int("candidate", cand)
                if not 0 <= cand < candidates:
                    raise ValueError(f"candidate {cand} outside [0, {candidates - 1}]")
                if i == 0 and cand:
                    raise ValueError(f"candidate {cand} on frame 0, which has only candidate 0")
                if len(coeffs) != count:
                    raise ValueError(f"expected {count} forward_coeffs, got {len(coeffs)}")
                if len(codes) != config.frame_len:
                    raise ValueError(f"expected {config.frame_len} codes, got {len(codes)}")
                for c in codes:
                    if type(c) is not int:
                        c, exact = as_int("codes", c), False
                    if not code_min <= c <= code_max:
                        raise ValueError(f"code {c} outside [{code_min}, {code_max}]")
                for v in coeffs:
                    if type(v) is not float or not -inf < v < inf:
                        as_real("forward_coeffs", v)  # refuses a non-finite float
                        exact = False
            except ValueError as exc:  # nothing above raises BitstreamError
                raise BitstreamError(exc, i) from None
            if not exact:
                stored[i] = FramePayload(tuple(map(int, codes)), cand, tuple(map(float, coeffs)))
        object.__setattr__(self, "payloads", tuple(stored))


def frame_candidates(config: CodecConfig) -> tuple:
    """The PredictorKind each candidate index names, in index order:
    (LPC10, MLP) for hybrid, (kind,) for every other kind and mode."""
    kind = config.predictor_kind
    if kind is PredictorKind.HYBRID:
        return (PredictorKind.LPC10, PredictorKind.MLP)
    return (kind,)


def frame_row(config: CodecConfig) -> tuple[int, int, slice, int]:
    """The one frame row layout of the module docstring, as (candidate
    bits, forward coefficient count, code columns, row bits); the
    coefficients fill the columns between the candidate and the codes."""
    candidate_bits = (len(frame_candidates(config)) - 1).bit_length()  # ceil(log2 count)
    forward = config.adaptation is Adaptation.FORWARD
    count = FORWARD_COEFF_COUNT[config.predictor_kind] if forward else 0
    start = candidate_bits + 64 * count
    codes = slice(start, start + config.frame_len * config.bits)
    row_bits = codes.stop + (-codes.stop % 8 if count else 0)
    return candidate_bits, count, codes, row_bits


def _msb_first(values: np.ndarray, width: int) -> np.ndarray:
    """The bits of each unsigned value, MSB first: (..., width) from (...)."""
    return (values[..., None] >> np.arange(width - 1, -1, -1)) & 1


def serialize(bitstream: Bitstream) -> bytes:
    """Serialize header and payloads; the inverse of parse."""
    h = bitstream.header
    c = h.config
    payloads = bitstream.payloads
    candidate_bits, count, code_cols, row_bits = frame_row(c)

    values = {**vars(c), **vars(h)}
    out = bytearray(MAGIC + struct.pack("<B", VERSION))
    out += HEADER.pack(*(values[name] for name, _ in HEADER_FIELDS))

    frames = len(payloads)
    u = np.array([p.codes for p in payloads]) + (1 << (c.bits - 1))
    rows = np.zeros((frames, row_bits), dtype=np.uint8)
    if candidate_bits:
        rows[:, :candidate_bits] = _msb_first(
            np.array([p.candidate for p in payloads]), candidate_bits)
    if count:
        coeffs = np.array([p.forward_coeffs for p in payloads], dtype="<f8")
        rows[:, candidate_bits : code_cols.start] = np.unpackbits(
            coeffs.view(np.uint8).reshape(frames, 8 * count), axis=1)
    rows[:, code_cols] = _msb_first(u, c.bits).reshape(frames, -1)
    out += np.packbits(rows).tobytes()
    return bytes(out)


def _read_struct(data: bytes, offset: int, fmt: str):
    size = struct.calcsize(fmt)
    if offset + size > len(data):
        raise BitstreamError("header truncated")
    return struct.unpack_from(fmt, data, offset), offset + size


def config_from(values) -> CodecConfig:
    """Build a CodecConfig by field name from a mapping holding each of its
    fields (a parsed header, CLI arguments)."""
    return CodecConfig(**{f.name: values[f.name] for f in fields(CodecConfig)})


def parse(data: bytes) -> Bitstream:
    """Parse serialized bytes back into a Bitstream, validating structure."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise BitstreamError(f"bad magic {data[:4]!r}")
    offset = 4
    (version,), offset = _read_struct(data, offset, "<B")
    if version != VERSION:
        raise BitstreamError(f"unsupported version {version}")
    fixed, offset = _read_struct(data, offset, HEADER.format)
    values = dict(zip((name for name, _ in HEADER_FIELDS), fixed))

    try:
        header = BitstreamHeader(values["sample_rate"], values["true_sample_count"],
                                 config_from(values))
    except ValueError as exc:
        raise BitstreamError(f"invalid header: {exc}") from None

    config = header.config
    frames = header.frame_count
    candidate_bits, count, code_cols, row_bits = frame_row(config)
    payload = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=offset))
    if len(payload) < frames * row_bits:
        raise BitstreamError("payload truncated", frame_index=len(payload) // row_bits)
    rows = payload[: frames * row_bits].reshape(frames, row_bits)
    trailing = (len(payload) - frames * row_bits) // 8
    if trailing > 0:
        raise BitstreamError(f"{trailing} unexpected trailing bytes")
    padded = rows[:, code_cols.stop :].any(axis=1)
    if padded.any():
        raise BitstreamError("nonzero padding bits", frame_index=int(padded.argmax()))
    if payload[frames * row_bits :].any():
        raise BitstreamError("nonzero padding bits after the last frame")

    codes = _from_msb_first(rows[:, code_cols].reshape(frames, config.frame_len, config.bits))
    codes -= 1 << (config.bits - 1)
    candidates, coeffs = [0] * frames, [()] * frames  # fields of no bits
    if candidate_bits:
        candidates = _from_msb_first(rows[:, :candidate_bits]).tolist()
    if count:
        block = np.packbits(rows[:, candidate_bits : code_cols.start], axis=1).view("<f8")
        coeffs = list(map(tuple, block.tolist()))
    return Bitstream(header=header, payloads=tuple(
        FramePayload(codes=tuple(row), candidate=candidate, forward_coeffs=coeff)
        for row, candidate, coeff in zip(codes.tolist(), candidates, coeffs)
    ))


def _from_msb_first(bits: np.ndarray) -> np.ndarray:
    """The unsigned values of MSB-first bit groups: (...) from (..., width)."""
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))
