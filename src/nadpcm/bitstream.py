"""Self-describing codec bitstream: header plus bit-packed frame payloads.

The header is magic "NADP", a u8 version (4), then the fields of
`HEADER_FIELDS` in table order, each little-endian with its struct code
(reals are IEEE-754 binary64). serialize and parse both walk that table.
After sample_rate and true_sample_count the header is the `CodecConfig`
the stream was encoded with; parse rebuilds `TrainConfig` and `CodecConfig`
by field name (`config_from`), then `BitstreamHeader`, so a header is valid
exactly when those are. Their construction also refuses a non-integer or
too-large value in an integer field, so nothing the header cannot carry is coded.

Frame payloads follow as one fixed-width bit row per frame (`frame_row`),
MSB-first within each byte: the candidate field, 64 bits per forward
predictor coefficient (forward only, the f64 bytes as above), then
frame_len codes of `bits` bits each (biased to unsigned by adding
2^(bits-1)). The candidate field names the predictor the encoder chose
among the frame's candidates in the fewest bits that hold every index;
`frame_candidates` is the table of what each index names. Backward MLP
sends restart i of R = restarts as i, in ceil(log2 R) bits (none when
R = 1); hybrid sends 0 for LPC-10 or i + 1 for restart i, in
ceil(log2(R + 1)) bits; other kinds send candidate 0 in no bits.
Backward frame 0 always uses the zero predictor and carries
candidate 0. The decoder refits only the named restart, so its work per
frame is epochs x (frame_len - 10) training pairs whatever `restarts` is.
Forward rows are zero-padded to a whole byte, so each frame's coefficients
start on a byte boundary; other rows follow each other without padding.
The rows are packed back to back and the final byte is zero-padded.
Padding bits must be zero and a candidate must be in range; parse rejects
a stream otherwise, so each stream has exactly one encoding. Older
versions are refused: version 1 streams sent one hybrid flag bit and no
restart index, version 2 streams summed their MLP predictions in BLAS,
and version 3 streams' MLP fits took their sigmoid from `expit` where
version 4's compute it with numpy (`mlp.forward_batch`).
Payload values are checked once, when a `Bitstream` is built.
"""

import math
import struct
from dataclasses import dataclass, field, fields
from enum import IntEnum

import numpy as np

from .mlp import MASK64, MIN_FRAME_LEN, N_PARAMS, TOO_SHORT, TrainConfig
from .number import as_int, as_real, as_tuple
from .quantizer import (
    DEFAULT_STEP_INIT,
    DEFAULT_STEP_MAX,
    DEFAULT_STEP_MIN,
    check_params,
    code_range,
)

MAGIC = b"NADP"
VERSION = 4

# The header after magic and version: (field, struct code) in wire order.
# "multipliers" is the table's u8 count, then that many f64.
HEADER_FIELDS = (
    ("sample_rate", "I"), ("true_sample_count", "Q"),
    ("frame_len", "H"), ("bits", "B"), ("predictor_kind", "B"), ("adaptation", "B"),
    ("epochs", "B"), ("restarts", "B"), ("seed", "Q"),
    ("step_init", "d"), ("step_min", "d"), ("step_max", "d"), ("multipliers", "B"),
    ("init_scale", "d"), ("lambda_init", "d"), ("lambda_up", "d"), ("lambda_down", "d"),
)


def _check_representable(obj, *names):
    """Store each named unsigned header field as a Python int (`as_int`), or
    raise ValueError for one too large for its header code."""
    for name in names:
        value = as_int(name, getattr(obj, name))
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
    seed: int = 0  # any integer; stored wrapped to 64 bits

    def __post_init__(self):
        object.__setattr__(self, "seed", as_int("seed", self.seed) & MASK64)
        _check_representable(self, "bits", "frame_len", "predictor_kind", "adaptation")
        if not isinstance(self.train, TrainConfig):
            raise ValueError(f"train must be a TrainConfig, got {self.train!r}")
        _check_representable(self.train, "epochs", "restarts")
        object.__setattr__(self, "predictor_kind", PredictorKind(self.predictor_kind))
        object.__setattr__(self, "adaptation", Adaptation(self.adaptation))
        for name in ("step_init", "step_min", "step_max"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        object.__setattr__(self, "multipliers", check_params(
            self.bits, self.step_init, self.step_min, self.step_max, self.multipliers))
        if self.frame_len < 1:
            raise ValueError(f"frame_len must be >= 1, got {self.frame_len}")
        if self.predictor_kind in NEURAL_KINDS and self.frame_len < MIN_FRAME_LEN:
            raise ValueError(TOO_SHORT.format(self.frame_len))
        if self.predictor_kind is PredictorKind.HYBRID and self.adaptation is not Adaptation.BACKWARD:
            raise ValueError("hybrid coding is defined for backward adaptation only")

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
        _check_representable(self, "sample_rate", "true_sample_count")
        if self.true_sample_count < 1:
            raise ValueError("empty stream")
        if self.sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {self.sample_rate}")

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
    """One (PredictorKind, restart) pair per candidate index, in index order:
    (MLP, i) for each restart i in backward MLP mode; (LPC10, 0), then each
    (MLP, i) for hybrid; one entry, (kind, 0), for every other kind and mode."""
    kind = config.predictor_kind
    if config.adaptation is Adaptation.FORWARD or kind not in NEURAL_KINDS:
        return ((kind, 0),)
    nets = tuple((PredictorKind.MLP, i) for i in range(config.train.restarts))
    return ((PredictorKind.LPC10, 0), *nets) if kind is PredictorKind.HYBRID else nets


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

    values = {**vars(c.train), **vars(c), **vars(h)}
    out = bytearray(MAGIC + struct.pack("<B", VERSION))
    for name, code in HEADER_FIELDS:
        value = values[name]
        if name == "multipliers":
            out += struct.pack(f"<{code}{len(value)}d", len(value), *value)
        else:
            out += struct.pack("<" + code, value)

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


def _build(cls, values):
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def config_from(values) -> CodecConfig:
    """Build a CodecConfig and its TrainConfig by field name from one flat
    mapping holding every field of both (a parsed header, CLI arguments)."""
    return _build(CodecConfig, {**values, "train": _build(TrainConfig, values)})


def parse(data: bytes) -> Bitstream:
    """Parse serialized bytes back into a Bitstream, validating structure."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise BitstreamError(f"bad magic {data[:4]!r}")
    offset = 4
    (version,), offset = _read_struct(data, offset, "<B")
    if version != VERSION:
        raise BitstreamError(f"unsupported version {version}")
    values = {}
    for name, code in HEADER_FIELDS:
        (value,), offset = _read_struct(data, offset, "<" + code)
        if name == "multipliers":
            if value == 0:
                raise BitstreamError("multiplier count 0; the table is always transmitted")
            value, offset = _read_struct(data, offset, f"<{value}d")
        values[name] = value

    try:
        header = _build(BitstreamHeader, {**values, "config": config_from(values)})
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
