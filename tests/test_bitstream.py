"""Bitstream serialization: header fields, bit packing, validation."""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest

from nadpcm.bitstream import (
    FORWARD_COEFF_COUNT,
    HEADER_FIELDS,
    Adaptation,
    Bitstream,
    BitstreamError,
    BitstreamHeader,
    CodecConfig,
    FramePayload,
    PredictorKind,
    frame_candidates,
    frame_row,
    parse,
    serialize,
)


def make_header(sample_rate=8000, true_sample_count=400, seed=1234567890123456789,
                **overrides):
    """Header over a default CodecConfig with the given fields overridden."""
    return BitstreamHeader(sample_rate, true_sample_count, CodecConfig(seed=seed, **overrides))


def serialized(header):
    """Wire bytes of a stream of all-zero codes under this header."""
    payload = FramePayload(codes=codes_for(header))
    return serialize(Bitstream(header, (payload,) * header.frame_count))


def codes_for(header, value=0):
    return tuple([value] * header.config.frame_len)


class TestHeaderRoundTrip:
    def test_all_fields_survive(self):
        header = make_header(bits=5, predictor_kind=PredictorKind.MLP,
                             adaptation=Adaptation.FORWARD, true_sample_count=999,
                             frame_len=111, seed=2**64 - 1)
        n_frames = header.frame_count
        payloads = tuple(
            FramePayload(codes=(0,) * 111, forward_coeffs=tuple(np.linspace(-1, 1, 25)))
            for _ in range(n_frames)
        )
        back = parse(serialize(Bitstream(header, payloads)))
        assert back.header == header

    def test_header_carries_exactly_the_config(self):
        # the header is the config: a config field it did not carry could
        # not reach the decoder, and a header field must name a config field
        config_fields = [f.name for f in fields(CodecConfig)]
        assert sorted(name for name, _ in HEADER_FIELDS) == \
            sorted(["sample_rate", "true_sample_count", *config_fields])

    def test_header_field_bounds(self):
        # sample_rate is a u32 and true_sample_count a u64 in the header
        config = CodecConfig()
        assert BitstreamHeader(8000, 2**64 - 1, config).frame_count == -(-(2**64 - 1) // 200)
        header = BitstreamHeader(2**32 - 1, 200, config)
        assert parse(serialized(header)).header == header
        with pytest.raises(ValueError, match="^sample_rate 4294967296 not representable"):
            BitstreamHeader(2**32, 1, config)
        with pytest.raises(ValueError, match="^true_sample_count 18446744073709551616 not"):
            BitstreamHeader(8000, 2**64, config)

    def test_frame_count_is_ceil(self):
        assert make_header(true_sample_count=400, frame_len=200).frame_count == 2
        assert make_header(true_sample_count=401, frame_len=200).frame_count == 3


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("bits", [2, 3, 4, 5])
    @pytest.mark.parametrize("frame_len", [200, 201])
    def test_codes_round_trip_every_depth(self, bits, frame_len):
        # every code value at every depth, with rows that end mid-byte
        header = make_header(bits=bits, true_sample_count=3 * frame_len,
                             frame_len=frame_len)
        rng = np.random.default_rng(bits)
        half = 1 << (bits - 1)
        payloads = tuple(
            FramePayload(codes=tuple(int(c) for c in rng.integers(-half, half, frame_len)))
            for _ in range(3)
        )
        back = parse(serialize(Bitstream(header, payloads)))
        assert back.payloads == payloads

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
        # hybrid candidates: 0 is LPC-10, 1 is the MLP
        header = make_header(predictor_kind=PredictorKind.HYBRID,
                             true_sample_count=800, frame_len=200, bits=3)
        candidates = [0, 1, 1, 0]
        payloads = tuple(
            FramePayload(codes=codes_for(header), candidate=candidate)
            for candidate in candidates
        )
        back = parse(serialize(Bitstream(header, payloads)))
        assert [p.candidate for p in back.payloads] == candidates

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
        header = make_header(bits=2, true_sample_count=4, frame_len=4)
        stream = Bitstream(header, (FramePayload(codes=(-2, -1, 0, 1)),))
        data = serialize(stream)
        # biased codes 0,1,2,3 at 2 bits each, MSB-first: 00 01 10 11
        assert data[-1] == 0b00011011
        # three codes end mid-byte; the rest of the final byte is zero
        header = make_header(bits=2, true_sample_count=3, frame_len=3)
        data = serialize(Bitstream(header, (FramePayload(codes=(-2, 1, 0)),)))
        assert data[-1] == 0b00111000

    def test_forward_rows_byte_aligned(self):
        # 9 code bits per frame: each frame's coefficients start on a byte
        header = make_header(adaptation=Adaptation.FORWARD, bits=3, frame_len=3,
                             true_sample_count=6)
        c1 = tuple(float(k) for k in range(10))
        c2 = tuple(-0.5 * k for k in range(10))
        stream = Bitstream(header, (
            FramePayload(codes=(-4, 3, 0), forward_coeffs=c1),
            FramePayload(codes=(1, -1, 2), forward_coeffs=c2),
        ))
        data = serialize(stream)
        # biased codes 0,7,4 -> 000 111 100 and 5,3,6 -> 101 011 110
        payload = (struct.pack("<10d", *c1) + bytes([0x1E, 0x00])
                   + struct.pack("<10d", *c2) + bytes([0xAF, 0x00]))
        assert len(payload) == 164
        assert data[-164:] == payload
        assert parse(data) == stream


class TestBitAccounting:
    # magic, version, rate, count, frame_len, three u8 fields, seed
    HEADER_BYTES = 4 + 1 + 4 + 8 + 2 + 3 + 8

    def test_header_is_30_integer_bytes_at_every_depth(self):
        assert self.HEADER_BYTES == 30
        assert len(HEADER_FIELDS) == 7
        assert {code for _, code in HEADER_FIELDS} <= set("BHIQ")  # no real, no table
        methods = [(k, a) for k in PredictorKind for a in Adaptation
                   if (k, a) != (PredictorKind.HYBRID, Adaptation.FORWARD)]
        for bits in (2, 3, 4, 5):
            for kind, adaptation in methods:
                header = make_header(bits=bits, predictor_kind=kind, adaptation=adaptation,
                                     true_sample_count=200)
                _, count, _, row_bits = frame_row(header.config)
                payload = FramePayload(codes_for(header), forward_coeffs=(0.0,) * count)
                data = serialize(Bitstream(header, (payload,)))
                assert len(data) == 30 + math.ceil(row_bits / 8)  # one frame
                assert parse(data).header == header

    def test_hybrid_three_frames(self):
        header = make_header(predictor_kind=PredictorKind.HYBRID, bits=3,
                             true_sample_count=600, frame_len=200)
        payloads = tuple(FramePayload(codes=codes_for(header), candidate=0)
                         for _ in range(3))
        # header, then 1 candidate bit (LPC-10 or the MLP) and
        # 600 code bits per frame, padded once
        expected = self.HEADER_BYTES + math.ceil(3 * (1 + 200 * 3) / 8)
        assert len(serialize(Bitstream(header, payloads))) == expected

    def test_backward_codes_accounting(self):
        header = make_header(bits=5, true_sample_count=400, frame_len=200)
        payloads = tuple(FramePayload(codes=codes_for(header)) for _ in range(2))
        expected = self.HEADER_BYTES + 2 * 200 * 5 // 8
        assert len(serialize(Bitstream(header, payloads))) == expected


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

    @staticmethod
    def check_version_refused(version):
        header = make_header()
        data = bytearray(serialize(Bitstream(
            header, tuple(FramePayload(codes=codes_for(header))
                          for _ in range(header.frame_count)))))
        assert data[4] == 8
        parse(bytes(data))
        data[4] = version
        with pytest.raises(BitstreamError, match=f"unsupported version {version}"):
            parse(bytes(data))

    def test_version_2_refused(self):
        # version 2 had the same layout; its MLP predictions came from BLAS
        self.check_version_refused(2)

    def test_version_3_refused(self):
        # version 3 had the same layout; its MLP fits used scipy's expit
        self.check_version_refused(3)

    def test_version_4_refused(self):
        # version 4 carried init_scale and the three LM damping reals after
        # the multipliers, where version 5 fixes them as `mlp` constants
        self.check_version_refused(4)

    def test_version_5_refused(self):
        # version 5 carried the three quantizer steps and the multiplier
        # table, where version 6 fixes them as `quantizer` constants
        self.check_version_refused(5)

    def test_version_6_refused(self):
        # version 6 carried the MLP fit's epoch and restart counts, where
        # version 7 fixes them as `mlp` constants
        self.check_version_refused(6)

    def test_version_7_refused(self):
        # version 7 had the same layout at 4 restarts; its MLP fit was plain
        # LM, 6 epochs on each, where version 8 solves the output layer
        self.check_version_refused(7)

    def test_truncated_stream_names_frame(self):
        header = make_header(bits=4, true_sample_count=600, frame_len=200)
        data = serialize(Bitstream(
            header, tuple(FramePayload(codes=codes_for(header)) for _ in range(3))))
        with pytest.raises(BitstreamError, match="payload truncated") as info:
            parse(data[:-30])
        assert info.value.frame_index == 2
        assert str(info.value).startswith("frame 2:")

    @pytest.mark.parametrize("cut, frame_index", [(1, 2), (180, 2), (190, 1), (330, 1)])
    def test_truncated_forward_stream_names_frame(self, cut, frame_index):
        # 180-byte rows: 80 coefficient bytes then 100 code bytes; a cut of
        # 330 leaves frame 1 with part of its coefficients, 190 with part
        # of its codes
        header = make_header(adaptation=Adaptation.FORWARD, bits=4,
                             true_sample_count=600, frame_len=200)
        payloads = tuple(FramePayload(codes=codes_for(header), forward_coeffs=(0.5,) * 10)
                         for _ in range(3))
        data = serialize(Bitstream(header, payloads))
        with pytest.raises(BitstreamError, match="payload truncated") as info:
            parse(data[:-cut])
        assert info.value.frame_index == frame_index

    @pytest.mark.parametrize("cut, frame_index", [(75, 2), (76, 1)])
    def test_truncated_hybrid_stream_names_frame(self, cut, frame_index):
        # a 1-bit candidate and 300 2-bit codes: 601-bit rows, 226 payload
        # bytes: 150 bytes (1200 bits) end two bits short of frame 1, 151
        # bytes (1208 bits) hold it
        header = make_header(predictor_kind=PredictorKind.HYBRID, bits=2,
                             true_sample_count=900, frame_len=300)
        assert frame_row(header.config)[3] == 601
        payloads = tuple(FramePayload(codes=codes_for(header), candidate=1 if k else 0)
                         for k in range(3))
        data = serialize(Bitstream(header, payloads))
        with pytest.raises(BitstreamError, match="payload truncated") as info:
            parse(data[:-cut])
        assert info.value.frame_index == frame_index

    def test_trailing_garbage_rejected(self):
        header = make_header()
        data = serialize(Bitstream(
            header, tuple(FramePayload(codes=codes_for(header))
                          for _ in range(header.frame_count))))
        with pytest.raises(BitstreamError, match="^2 unexpected trailing bytes$"):
            parse(data + b"\x00\x00")

    def test_parse_rejects_nonzero_final_padding(self):
        # 6 code bits 001110 then two pad bits in the one payload byte
        header = make_header(bits=2, true_sample_count=3, frame_len=3)
        data = bytearray(serialize(Bitstream(header, (FramePayload(codes=(-2, 1, 0)),))))
        assert data[-1] == 0x38
        for forged in (0x39, 0x3A, 0x3B):
            data[-1] = forged
            with pytest.raises(BitstreamError, match="nonzero padding") as info:
                parse(bytes(data))
            assert info.value.frame_index is None

    @pytest.mark.parametrize("offset, frame_index", [(-83, 0), (-1, 1)])
    def test_parse_rejects_nonzero_forward_row_padding(self, offset, frame_index):
        # 82-byte rows: 80 coefficient bytes, 9 code bits, 7 pad bits
        header = make_header(adaptation=Adaptation.FORWARD, bits=3, frame_len=3,
                             true_sample_count=6)
        payload = FramePayload(codes=(0, 0, 1), forward_coeffs=(0.5,) * 10)
        data = bytearray(serialize(Bitstream(header, (payload, payload))))
        assert data[offset] == 0x80  # the last bit of code 1 (biased 101), then padding
        data[offset] |= 0x01
        with pytest.raises(BitstreamError, match="nonzero padding") as info:
            parse(bytes(data))
        assert info.value.frame_index == frame_index

    def test_serialize_rejects_out_of_range_code(self):
        header = make_header(bits=2, true_sample_count=4, frame_len=4)
        with pytest.raises(ValueError):
            serialize(Bitstream(header, (FramePayload(codes=(0, 0, 0, 2)),)))
        # a fractional code is not truncated into range
        with pytest.raises(ValueError, match="^frame 0: codes must be an integer, got 0.5$"):
            serialize(Bitstream(header, (FramePayload(codes=(0, 0, 0, 0.5)),)))

    def test_serialize_rejects_wrong_code_count(self):
        header = make_header()
        with pytest.raises(ValueError):
            serialize(Bitstream(header, (FramePayload(codes=(0,) * 3),
                                         FramePayload(codes=codes_for(header)))))

    @pytest.mark.parametrize("kind, adaptation, payload, match", [
        pytest.param(PredictorKind.HYBRID, Adaptation.BACKWARD, {"candidate": None},
                     "frame 1:.*candidate", id="hybrid-without-flag"),
        pytest.param(PredictorKind.HYBRID, Adaptation.BACKWARD, {"candidate": 5},
                     "frame 1:.*candidate", id="hybrid-flag-5"),
        pytest.param(PredictorKind.LPC10, Adaptation.BACKWARD, {"candidate": 1},
                     "frame 1:.*candidate", id="backward-with-flag"),
        pytest.param(PredictorKind.LPC10, Adaptation.BACKWARD,
                     {"forward_coeffs": (0.0,) * 10}, "frame 1:.*forward_coeffs",
                     id="backward-with-coeffs"),
        pytest.param(PredictorKind.LPC10, Adaptation.FORWARD, {},
                     "frame 1:.*forward_coeffs", id="forward-without-coeffs"),
        pytest.param(PredictorKind.LPC10, Adaptation.FORWARD,
                     {"forward_coeffs": (0.0,) * 3}, "frame 1:.*forward_coeffs",
                     id="forward-3-coeffs"),
        pytest.param(PredictorKind.LPC10, Adaptation.BACKWARD, None,
                     "2 payloads for a 3-frame header", id="2-payloads"),
        pytest.param(PredictorKind.LPC10, Adaptation.BACKWARD, "extra",
                     "4 payloads for a 3-frame header", id="4-payloads"),
    ])
    def test_serialize_rejects_payload_header_mismatch(self, kind, adaptation, payload, match):
        # frames 0 and 2 are valid; frame 1 is `payload`, missing, or
        # followed by a 4th; hybrid candidates are 0 and 1. An omitted
        # field is candidate 0 or no coefficients, `()`.
        header = make_header(predictor_kind=kind, adaptation=adaptation,
                             true_sample_count=600, frame_len=200)
        good = FramePayload(
            codes=codes_for(header),
            forward_coeffs=(0.0,) * 10 if adaptation is Adaptation.FORWARD else (),
        )
        if payload is None:
            payloads = (good, good)
        elif payload == "extra":
            payloads = (good,) * 4
        else:
            payloads = (good, FramePayload(codes=codes_for(header), **payload), good)
        with pytest.raises(ValueError, match=match):
            serialize(Bitstream(header, payloads))

    def test_parse_rejects_hybrid_forward(self):
        # forge kind=HYBRID adaptation=FORWARD directly in the header bytes
        header = make_header(predictor_kind=PredictorKind.HYBRID)
        data = bytearray(serialize(Bitstream(
            header, tuple(FramePayload(codes=codes_for(header), candidate=0)
                          for _ in range(header.frame_count)))))
        adaptation_offset = 4 + 1 + 4 + 8 + 2 + 1 + 1  # through predictor_kind
        data[adaptation_offset] = 1
        with pytest.raises(BitstreamError):
            parse(bytes(data))

    def test_parse_rejects_non_finite_forward_coefficient(self):
        # a Bitstream cannot hold one, so forge frame 1's second coefficient
        header = make_header(adaptation=Adaptation.FORWARD, true_sample_count=600)
        payload = FramePayload(codes=codes_for(header), forward_coeffs=(0.5,) * 10)
        data = serialize(Bitstream(header, (payload,) * 3))
        _, _, _, row_bits = frame_row(header.config)
        offset = TestBitAccounting.HEADER_BYTES + row_bits // 8 + 8
        assert struct.unpack_from("<d", data, offset) == (0.5,)
        for bad in (math.inf, -math.inf, math.nan):
            forged = bytearray(data)
            struct.pack_into("<d", forged, offset, bad)
            with pytest.raises(BitstreamError,
                               match="^frame 1: forward_coeffs must be finite, got ") as info:
                parse(bytes(forged))
            assert info.value.frame_index == 1

    @pytest.mark.parametrize("kind, adaptation", [
        (PredictorKind.LPC10, Adaptation.FORWARD),
        (PredictorKind.HYBRID, Adaptation.BACKWARD),
    ])
    def test_every_header_prefix_rejected(self, kind, adaptation):
        header = make_header(predictor_kind=kind, adaptation=adaptation, bits=3)
        payload = FramePayload(
            codes=codes_for(header),
            forward_coeffs=(0.5,) * 10 if adaptation is Adaptation.FORWARD else (),
        )
        data = serialize(Bitstream(header, (payload,) * header.frame_count))
        for n in range(TestBitAccounting.HEADER_BYTES):
            match = "^bad magic" if n < 4 else "^header truncated$"
            with pytest.raises(BitstreamError, match=match) as info:
                parse(data[:n])
            assert info.value.frame_index is None

    # byte offsets: sample_rate 5, true_sample_count 9, frame_len 17, then
    # bits, predictor_kind, adaptation at 19..21, seed 22
    @pytest.mark.parametrize("code, offset, value, match", [
        pytest.param("B", 20, 4, "invalid header", id="predictor_kind-4"),
        pytest.param("B", 21, 2, "invalid header", id="adaptation-2"),
        pytest.param("B", 19, 1, "invalid header", id="bits-1"),
        pytest.param("B", 19, 6, "invalid header", id="bits-6"),
        pytest.param("<H", 17, 0, "invalid header", id="frame_len-0"),
        pytest.param("<Q", 9, 0, "empty stream", id="true_sample_count-0"),
    ])
    def test_parse_rejects_forged_header_field(self, code, offset, value, match):
        data = bytearray(serialized(make_header()))
        struct.pack_into(code, data, offset, value)
        with pytest.raises(BitstreamError, match=match) as info:
            parse(bytes(data))
        assert info.value.frame_index is None

    def test_parse_rejects_zero_sample_rate(self):
        data = bytearray(serialized(make_header()))
        assert struct.unpack_from("<I", data, 5) == (8000,)
        struct.pack_into("<I", data, 5, 0)
        with pytest.raises(BitstreamError, match="sample_rate"):
            parse(bytes(data))


MLP_WIDTH = 0  # backward MLP sends no candidate
HYBRID_WIDTH = 1


class TestCandidateField:
    """Hybrid rows start with 0 (LPC-10) or 1 (the MLP) in one bit, and
    backward MLP rows send no candidate; every other value, and a nonzero
    one on frame 0, is refused."""

    @staticmethod
    def header(kind, frames, frame_len=11, bits=2):
        return make_header(predictor_kind=kind, bits=bits,
                           true_sample_count=frames * frame_len, frame_len=frame_len)

    @staticmethod
    def payloads(header, candidates):
        return tuple(FramePayload(codes=codes_for(header), candidate=c) for c in candidates)

    @pytest.mark.parametrize("kind, adaptation, table", [
        (PredictorKind.LPC10, Adaptation.BACKWARD, (PredictorKind.LPC10,)),
        (PredictorKind.LPC10, Adaptation.FORWARD, (PredictorKind.LPC10,)),
        (PredictorKind.LPC25, Adaptation.BACKWARD, (PredictorKind.LPC25,)),
        (PredictorKind.LPC25, Adaptation.FORWARD, (PredictorKind.LPC25,)),
        (PredictorKind.MLP, Adaptation.BACKWARD, (PredictorKind.MLP,)),
        (PredictorKind.MLP, Adaptation.FORWARD, (PredictorKind.MLP,)),
        (PredictorKind.HYBRID, Adaptation.BACKWARD, (PredictorKind.LPC10, PredictorKind.MLP)),
    ], ids=[f"{kind}-{mode}" for kind in ("lpc10", "lpc25", "mlp") for mode in ("b", "f")]
       + ["hybrid-b"])
    def test_each_candidate_names_a_kind(self, kind, adaptation, table):
        config = CodecConfig(predictor_kind=kind, adaptation=adaptation)
        assert frame_candidates(config) == table

    @pytest.mark.parametrize("kind, count, width", [
        (PredictorKind.LPC10, 1, 0), (PredictorKind.MLP, 1, MLP_WIDTH),
        (PredictorKind.HYBRID, 2, HYBRID_WIDTH),
    ], ids=["lpc10", "mlp", "hybrid"])
    def test_every_candidate_round_trips_in_its_width(self, kind, count, width):
        header = self.header(kind, count + 1)
        assert len(frame_candidates(header.config)) == count
        stream = Bitstream(header, self.payloads(header, [0, *range(count)]))
        data = serialize(stream)
        assert len(data) == (TestBitAccounting.HEADER_BYTES
                             + math.ceil((count + 1) * (width + 11 * 2) / 8))
        assert parse(data) == stream

    def test_candidate_wire_format(self):
        # hybrid: the candidate field, MSB first, then the codes
        header = self.header(PredictorKind.HYBRID, 2)
        data = serialize(Bitstream(header, self.payloads(header, [0, 1])))
        rows = "0" + "10" * 11 + "1" + "10" * 11  # code 0 biased to 0b10
        rows += "0" * (-len(rows) % 8)
        expected = bytes(int(rows[i : i + 8], 2) for i in range(0, len(rows), 8))
        assert data[TestBitAccounting.HEADER_BYTES:] == expected

    @pytest.mark.parametrize("kind, candidate, match", [
        (PredictorKind.MLP, 4, r"candidate 4 outside \[0, 0\]"),
        (PredictorKind.MLP, 1, r"candidate 1 outside \[0, 0\]"),  # one past the last
        (PredictorKind.MLP, -1, r"candidate -1 outside \[0, 0\]"),
        (PredictorKind.HYBRID, 5, r"candidate 5 outside \[0, 1\]"),
        (PredictorKind.HYBRID, 2, r"candidate 2 outside \[0, 1\]"),
        (PredictorKind.MLP, None, "candidate must be an integer, got None"),
        (PredictorKind.HYBRID, True, "candidate must be an integer, got True"),
        (PredictorKind.HYBRID, 1.0, "candidate must be an integer, got 1.0"),
    ])
    def test_out_of_range_candidate_names_frame(self, kind, candidate, match):
        header = self.header(kind, 3)
        with pytest.raises(BitstreamError, match=f"^frame 1: {match}$") as info:
            Bitstream(header, self.payloads(header, [0, candidate, 0]))
        assert info.value.frame_index == 1

    @pytest.mark.parametrize("kind, adaptation", [
        (PredictorKind.LPC10, Adaptation.BACKWARD), (PredictorKind.LPC25, Adaptation.BACKWARD),
        (PredictorKind.LPC10, Adaptation.FORWARD), (PredictorKind.LPC25, Adaptation.FORWARD),
        (PredictorKind.MLP, Adaptation.FORWARD), (PredictorKind.MLP, Adaptation.BACKWARD),
    ])
    def test_kinds_without_candidates_refuse_one(self, kind, adaptation):
        header = make_header(predictor_kind=kind, adaptation=adaptation,
                             true_sample_count=200, frame_len=200)
        forward = adaptation is Adaptation.FORWARD
        coeffs = (0.0,) * FORWARD_COEFF_COUNT[kind] if forward else ()
        # their one candidate is 0, in a field of no bits
        with pytest.raises(BitstreamError, match=r"^frame 0: candidate 1 outside \[0, 0\]$"):
            Bitstream(header, (FramePayload(codes_for(header), 1, coeffs),))
        payload = FramePayload(codes_for(header), forward_coeffs=coeffs)
        assert payload.candidate == 0
        assert parse(serialize(Bitstream(header, (payload,)))).payloads == (payload,)

    @pytest.mark.parametrize("kind", [PredictorKind.MLP, PredictorKind.HYBRID])
    def test_nonzero_candidate_on_frame_0_refused(self, kind):
        # frame 0 always uses the zero predictor, so candidate 1 there
        # would be a second encoding of the same stream; backward MLP has
        # no candidate 1 at all
        header = self.header(kind, 2)
        match = ("candidate 1 on frame 0, which has only candidate 0"
                 if len(frame_candidates(header.config)) > 1 else r"candidate 1 outside \[0, 0\]")
        with pytest.raises(BitstreamError, match=f"^frame 0: {match}$") as info:
            Bitstream(header, self.payloads(header, [1, 1]))
        assert info.value.frame_index == 0

    # every value of the 1-bit hybrid field is a candidate, so the one
    # forgery left is candidate 1 on frame 0
    @pytest.mark.parametrize("kind, frame, value, frame_index, match", [
        (PredictorKind.HYBRID, 0, 1, 0, "candidate 1 on frame 0"),
    ])
    def test_parse_refuses_forged_candidate(self, kind, frame, value, frame_index, match):
        header = self.header(kind, 3)
        data = bytearray(serialize(Bitstream(header, self.payloads(header, [0, 0, 0]))))
        width = HYBRID_WIDTH if kind is PredictorKind.HYBRID else MLP_WIDTH
        start = 8 * TestBitAccounting.HEADER_BYTES + frame * (width + 22)
        for i in range(width):
            if value >> (width - 1 - i) & 1:
                data[(start + i) // 8] |= 0x80 >> ((start + i) % 8)
        with pytest.raises(BitstreamError, match=f"^frame {frame_index}: {match}") as info:
            parse(bytes(data))
        assert info.value.frame_index == frame_index

    def test_numpy_integer_candidate_stored_as_int(self):
        header = self.header(PredictorKind.HYBRID, 2)
        stream = Bitstream(header, self.payloads(header, [np.int64(0), np.uint8(1)]))
        assert [type(p.candidate) for p in stream.payloads] == [int, int]
        assert [p.candidate for p in stream.payloads] == [0, 1]
