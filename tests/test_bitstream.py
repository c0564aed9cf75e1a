"""Bitstream serialization: header fields, bit packing, validation."""

import struct

import numpy as np
import pytest

from nadpcm.bitstream import (
    Adaptation,
    Bitstream,
    BitstreamError,
    BitstreamHeader,
    BitReader,
    BitWriter,
    CodecConfig,
    FramePayload,
    PredictorKind,
    parse,
    serialize,
)
from nadpcm.mlp import TrainConfig
from nadpcm.quantizer import DEFAULT_MULTIPLIERS

TRAIN_FIELDS = ("epochs", "restarts", "init_scale", "lambda_init", "lambda_up", "lambda_down")


def make_header(sample_rate=8000, true_sample_count=400, seed=1234567890123456789,
                **overrides):
    """Header over a default CodecConfig; TrainConfig fields may be given flat."""
    train = TrainConfig(**{k: overrides.pop(k) for k in TRAIN_FIELDS if k in overrides})
    config = CodecConfig(seed=seed, train=train, **overrides)
    return BitstreamHeader(sample_rate, true_sample_count, config)


def serialized(header):
    """Wire bytes of a stream of all-zero codes under this header."""
    payload = FramePayload(codes=codes_for(header))
    return serialize(Bitstream(header, (payload,) * header.frame_count))


def codes_for(header, value=0):
    return tuple([value] * header.config.frame_len)


class TestBitPacking:
    def test_writer_msb_first(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b00011, 5)
        assert w.getvalue() == bytes([0b10100011])

    def test_final_byte_zero_padded(self):
        w = BitWriter()
        w.write_bits(0b11, 2)
        assert w.getvalue() == bytes([0b11000000])

    def test_reader_inverts_writer(self):
        rng = np.random.default_rng(0)
        w = BitWriter()
        fields = [(int(rng.integers(0, 2 ** n)), n) for n in rng.integers(1, 17, 50)]
        for value, n in fields:
            w.write_bits(value, int(n))
        r = BitReader(w.getvalue())
        for value, n in fields:
            assert r.read_bits(int(n)) == value

    def test_reader_truncation(self):
        r = BitReader(b"\xff")
        r.read_bits(8)
        with pytest.raises(BitstreamError):
            r.read_bits(1)

    def test_byte_alignment(self):
        w = BitWriter()
        w.write_bits(1, 1)
        w.write_bytes(b"\xaa")
        data = w.getvalue()
        assert data == bytes([0b10000000, 0xAA])
        r = BitReader(data)
        assert r.read_bits(1) == 1
        assert r.read_bytes(1) == b"\xaa"


class TestHeaderRoundTrip:
    def test_all_fields_survive(self):
        header = make_header(bits=5, predictor_kind=PredictorKind.MLP,
                             adaptation=Adaptation.FORWARD, true_sample_count=999,
                             frame_len=111, epochs=17, restarts=9, seed=2**64 - 1,
                             step_init=0.033, init_scale=0.25, lambda_init=0.02)
        n_frames = header.frame_count
        payloads = tuple(
            FramePayload(codes=(0,) * 111, forward_coeffs=tuple(np.linspace(-1, 1, 25)))
            for _ in range(n_frames)
        )
        back = parse(serialize(Bitstream(header, payloads)))
        assert back.header == header

    def test_frame_count_is_ceil(self):
        assert make_header(true_sample_count=400, frame_len=200).frame_count == 2
        assert make_header(true_sample_count=401, frame_len=200).frame_count == 3


class TestPayloadRoundTrip:
    def test_backward_codes_only(self):
        header = make_header(bits=3, true_sample_count=600, frame_len=200)
        rng = np.random.default_rng(1)
        payloads = tuple(
            FramePayload(codes=tuple(int(c) for c in rng.integers(-4, 4, 200)))
            for _ in range(3)
        )
        back = parse(serialize(Bitstream(header, payloads)))
        assert back.payloads == payloads

    def test_hybrid_flags_survive(self):
        header = make_header(predictor_kind=PredictorKind.HYBRID,
                             true_sample_count=600, frame_len=200, bits=3)
        payloads = tuple(
            FramePayload(codes=codes_for(header), hybrid_flag=flag)
            for flag in (0, 1, 1)
        )
        back = parse(serialize(Bitstream(header, payloads)))
        assert [p.hybrid_flag for p in back.payloads] == [0, 1, 1]

    def test_forward_coefficients_bit_exact(self):
        header = make_header(adaptation=Adaptation.FORWARD,
                             predictor_kind=PredictorKind.LPC10,
                             true_sample_count=200, frame_len=200)
        coeffs = tuple(np.random.default_rng(2).standard_normal(10))
        stream = Bitstream(header, (FramePayload(codes=codes_for(header),
                                                 forward_coeffs=coeffs),))
        back = parse(serialize(stream))
        assert back.payloads[0].forward_coeffs == coeffs  # f64 verbatim

    def test_biased_code_wire_format(self):
        header = make_header(bits=2, true_sample_count=4, frame_len=4,
                             multipliers=DEFAULT_MULTIPLIERS[2])
        stream = Bitstream(header, (FramePayload(codes=(-2, -1, 0, 1)),))
        data = serialize(stream)
        # biased codes 0,1,2,3 at 2 bits each, MSB-first: 00 01 10 11
        assert data[-1] == 0b00011011


class TestBitAccounting:
    # magic, version, rate, count, frame_len, five u8 fields, seed,
    # three step reals, multiplier count, four multipliers, four train reals
    HEADER_BYTES = 4 + 1 + 4 + 8 + 2 + 5 + 8 + 24 + 1 + 32 + 32

    def test_hybrid_three_frames(self):
        header = make_header(predictor_kind=PredictorKind.HYBRID, bits=3,
                             true_sample_count=600, frame_len=200)
        payloads = tuple(FramePayload(codes=codes_for(header), hybrid_flag=0)
                         for _ in range(3))
        stream = Bitstream(header, payloads)
        assert stream.payload_bits == 3 * (1 + 200 * 3)
        # on the wire: header plus the padded payload, nothing else
        expected_payload_bytes = -(-stream.payload_bits // 8)
        assert len(serialize(stream)) == self.HEADER_BYTES + expected_payload_bytes

    def test_backward_codes_accounting(self):
        header = make_header(bits=5, true_sample_count=400, frame_len=200)
        payloads = tuple(FramePayload(codes=codes_for(header)) for _ in range(2))
        assert Bitstream(header, payloads).payload_bits == 2 * 200 * 5


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(BitstreamError):
            parse(b"RIFF" + b"\x00" * 60)

    def test_bad_version(self):
        header = make_header()
        data = bytearray(serialize(Bitstream(
            header, tuple(FramePayload(codes=codes_for(header))
                          for _ in range(header.frame_count)))))
        data[4] = 9
        with pytest.raises(BitstreamError):
            parse(bytes(data))

    def test_truncated_stream_names_frame(self):
        header = make_header(bits=4, true_sample_count=600, frame_len=200)
        data = serialize(Bitstream(
            header, tuple(FramePayload(codes=codes_for(header)) for _ in range(3))))
        with pytest.raises(BitstreamError) as info:
            parse(data[:-30])
        assert info.value.frame_index is not None
        assert "frame" in str(info.value)

    def test_trailing_garbage_rejected(self):
        header = make_header()
        data = serialize(Bitstream(
            header, tuple(FramePayload(codes=codes_for(header))
                          for _ in range(header.frame_count))))
        with pytest.raises(BitstreamError):
            parse(data + b"\x00\x00")

    def test_serialize_rejects_out_of_range_code(self):
        header = make_header(bits=2, true_sample_count=4, frame_len=4,
                             multipliers=DEFAULT_MULTIPLIERS[2])
        with pytest.raises(ValueError):
            serialize(Bitstream(header, (FramePayload(codes=(0, 0, 0, 2)),)))

    def test_serialize_rejects_wrong_code_count(self):
        header = make_header()
        with pytest.raises(ValueError):
            serialize(Bitstream(header, (FramePayload(codes=(0,) * 3),
                                         FramePayload(codes=codes_for(header)))))

    def test_parse_rejects_hybrid_forward(self):
        # forge kind=HYBRID adaptation=FORWARD directly in the header bytes
        header = make_header(predictor_kind=PredictorKind.HYBRID)
        data = bytearray(serialize(Bitstream(
            header, tuple(FramePayload(codes=codes_for(header), hybrid_flag=0)
                          for _ in range(header.frame_count)))))
        adaptation_offset = 4 + 1 + 4 + 8 + 2 + 1 + 1  # through predictor_kind
        data[adaptation_offset] = 1
        with pytest.raises(BitstreamError):
            parse(bytes(data))

    def test_parse_rejects_non_finite_header_reals(self):
        # step_init, step_min, step_max, then after the count byte the eight
        # 4-bit multipliers, init_scale and the three damping reals
        base = serialized(make_header(bits=4))
        offsets = [32, 40, 48] + [57 + 8 * k for k in range(8 + 4)]
        for offset in offsets:
            for bad in (float("nan"), float("inf")):
                data = bytearray(base)
                data[offset : offset + 8] = struct.pack("<d", bad)
                with pytest.raises(BitstreamError, match="invalid header"):
                    parse(bytes(data))

    def test_parse_rejects_non_finite_forward_coefficient(self):
        header = make_header(adaptation=Adaptation.FORWARD, true_sample_count=600)
        good = (0.5,) + (0.0,) * 9
        payloads = tuple(
            FramePayload(codes=codes_for(header), forward_coeffs=coeffs)
            for coeffs in (good, (0.5, float("inf")) + (0.0,) * 8, good)
        )
        with pytest.raises(BitstreamError, match="non-finite") as info:
            parse(serialize(Bitstream(header, payloads)))
        assert info.value.frame_index == 1

    def test_parse_rejects_wrong_multiplier_count(self):
        # a config with the wrong count cannot be built, so forge the count
        # byte of a 4-bit stream (8 multipliers); 0 would mean "default table"
        data = bytearray(serialized(make_header(bits=4)))
        count_offset = 4 + 1 + 4 + 8 + 2 + 5 + 8 + 24
        assert data[count_offset] == 8
        for count in (4, 0):
            data[count_offset] = count
            with pytest.raises(BitstreamError, match="multiplier"):
                parse(bytes(data))

    def test_parse_rejects_zero_sample_rate(self):
        data = bytearray(serialized(make_header()))
        assert struct.unpack_from("<I", data, 5) == (8000,)
        struct.pack_into("<I", data, 5, 0)
        with pytest.raises(BitstreamError, match="sample_rate"):
            parse(bytes(data))
