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

Frame payloads follow as one continuous bit sequence, MSB-first within
each byte: an optional hybrid flag bit, an optional byte-aligned block
of forward predictor coefficients, then frame_len codes of `bits` bits
each (biased to unsigned by adding 2^(bits-1)). The final byte is
zero-padded.
"""

import math
import struct
from dataclasses import dataclass, field
from enum import IntEnum

from .mlp import MASK64, TrainConfig
from .quantizer import (
    DEFAULT_STEP_INIT,
    DEFAULT_STEP_MAX,
    DEFAULT_STEP_MIN,
    check_params,
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


# Coefficient count transmitted per frame in forward mode.
FORWARD_COEFF_COUNT = {
    PredictorKind.LPC10: 10,
    PredictorKind.LPC25: 25,
    PredictorKind.MLP: 25,
}


class BitstreamError(Exception):
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
        if needs_mlp and self.frame_len < 11:
            raise ValueError(
                f"frame_len must be >= 11 for neural predictors, got {self.frame_len}"
            )
        if self.predictor_kind is PredictorKind.HYBRID and self.adaptation is not Adaptation.BACKWARD:
            raise ValueError("hybrid coding is defined for backward adaptation only")
        object.__setattr__(self, "seed", self.seed & MASK64)

    def payload_bit_rate(self, sample_rate: int) -> float:
        """Payload bits/second: code bits plus the hybrid flag overhead.

        Forward coefficient overhead is excluded; forward mode is the
        unquantized reference configuration.
        """
        rate = float(self.bits * sample_rate)
        if self.predictor_kind is PredictorKind.HYBRID:
            rate += sample_rate / self.frame_len
        return rate


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
    header: BitstreamHeader
    payloads: tuple

    @property
    def payload_bits(self) -> int:
        """Exact payload size in bits before final byte padding."""
        total = 0
        for p in self.payloads:
            if p.hybrid_flag is not None:
                total += 1
            if p.forward_coeffs is not None:
                total += -total % 8 + 64 * len(p.forward_coeffs)
            total += len(p.codes) * self.header.config.bits
        return total


class BitWriter:
    """MSB-first bit packer."""

    def __init__(self):
        self._buf = bytearray()
        self._cur = 0
        self._ncur = 0

    def write_bits(self, value: int, n: int) -> None:
        for shift in range(n - 1, -1, -1):
            self._cur = (self._cur << 1) | ((value >> shift) & 1)
            self._ncur += 1
            if self._ncur == 8:
                self._buf.append(self._cur)
                self._cur = 0
                self._ncur = 0

    def align(self) -> None:
        if self._ncur:
            self._buf.append(self._cur << (8 - self._ncur))
            self._cur = 0
            self._ncur = 0

    def write_bytes(self, data: bytes) -> None:
        self.align()
        self._buf.extend(data)

    def getvalue(self) -> bytes:
        self.align()
        return bytes(self._buf)


class BitReader:
    """MSB-first bit unpacker over a byte buffer."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0      # byte index
        self._bit = 0      # bits consumed within current byte

    def read_bits(self, n: int) -> int:
        value = 0
        for _ in range(n):
            if self._pos >= len(self._data):
                raise BitstreamError("payload truncated")
            byte = self._data[self._pos]
            value = (value << 1) | ((byte >> (7 - self._bit)) & 1)
            self._bit += 1
            if self._bit == 8:
                self._bit = 0
                self._pos += 1
        return value

    def align(self) -> None:
        if self._bit:
            self._bit = 0
            self._pos += 1

    def read_bytes(self, n: int) -> bytes:
        self.align()
        if self._pos + n > len(self._data):
            raise BitstreamError("payload truncated")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def whole_bytes_left(self) -> int:
        used = self._pos + (1 if self._bit else 0)
        return len(self._data) - used


def serialize(bitstream: Bitstream) -> bytes:
    """Serialize header and payloads; inverse of parse up to final-byte padding."""
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

    bias = 1 << (c.bits - 1)
    writer = BitWriter()
    for i, payload in enumerate(bitstream.payloads):
        if payload.hybrid_flag is not None:
            writer.write_bits(payload.hybrid_flag & 1, 1)
        if payload.forward_coeffs is not None:
            writer.write_bytes(
                struct.pack(f"<{len(payload.forward_coeffs)}d", *payload.forward_coeffs)
            )
        if len(payload.codes) != c.frame_len:
            raise ValueError(f"frame {i}: expected {c.frame_len} codes, got {len(payload.codes)}")
        for code in payload.codes:
            u = code + bias
            if not 0 <= u < (1 << c.bits):
                raise ValueError(f"frame {i}: code {code} out of range for {c.bits} bits")
            writer.write_bits(u, c.bits)
    out += writer.getvalue()
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

    kind = config.predictor_kind
    bias = 1 << (bits - 1)
    reader = BitReader(data[offset:])
    payloads = []
    for i in range(header.frame_count):
        try:
            flag = reader.read_bits(1) if kind is PredictorKind.HYBRID else None
            coeffs = None
            if config.adaptation is Adaptation.FORWARD:
                count = FORWARD_COEFF_COUNT[kind]
                coeffs = struct.unpack(f"<{count}d", reader.read_bytes(8 * count))
                if not all(map(math.isfinite, coeffs)):
                    raise BitstreamError("non-finite forward coefficient")
            codes = tuple(reader.read_bits(bits) - bias for _ in range(frame_len))
        except BitstreamError as exc:
            raise BitstreamError(str(exc), frame_index=i) from None
        payloads.append(FramePayload(codes=codes, hybrid_flag=flag, forward_coeffs=coeffs))

    if reader.whole_bytes_left() > 0:
        raise BitstreamError(f"{reader.whole_bytes_left()} unexpected trailing bytes")
    return Bitstream(header=header, payloads=tuple(payloads))
