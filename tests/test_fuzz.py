"""Mutated backward-MLP and hybrid streams: decode or name the frame.

Each case starts from a valid stream (4 frames of 40 samples; backward
MLP sends no candidate bits, the hybrid a 1-bit one) at 2 and 5 bits,
and changes its payload only.
The header stays valid, so the decode work per input stays that of the
original stream. Every mutated input must decode to finite samples or
raise BitstreamError with `frame_index` set. Bit flips are drawn over the
frame rows; the zero padding after the last row is covered by
`test_bitstream.py::TestValidation::test_parse_rejects_nonzero_final_padding`.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import formant_utterance
from nadpcm import BitstreamError, CodecConfig, PredictorKind, decode, encode, parse, serialize
from nadpcm.bitstream import frame_candidates, frame_row

FRAME_LEN, FRAMES = 40, 4
STREAMS = [(kind, bits) for kind in (PredictorKind.MLP, PredictorKind.HYBRID) for bits in (2, 5)]


@functools.cache
def stream(kind, bits):
    """(bytes, header length, config) of a valid stream."""
    config = CodecConfig(bits=bits, frame_len=FRAME_LEN, predictor_kind=kind)
    data = serialize(encode(formant_utterance(11, FRAMES * FRAME_LEN), config).bitstream)
    _, _, _, row_bits = frame_row(config)
    return data, len(data) - -(-FRAMES * row_bits // 8), config


def flip(data: bytes, bit: int) -> bytes:
    """`data` with bit `bit` flipped, counting MSB first from byte 0."""
    out = bytearray(data)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


def decoded_or_frame_error(data: bytes):
    """The decoded samples, or None after a BitstreamError naming a frame."""
    try:
        samples = decode(parse(data)).samples
    except BitstreamError as exc:
        assert exc.frame_index is not None, str(exc)
        return None
    assert np.isfinite(samples).all()
    return samples


@pytest.mark.parametrize("kind, bits", STREAMS)
@settings(max_examples=40, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_single_payload_bit_flip(kind, bits, data):
    original, header_len, config = stream(kind, bits)
    _, _, _, row_bits = frame_row(config)
    bit = data.draw(st.integers(0, FRAMES * row_bits - 1), label="payload bit")
    decoded_or_frame_error(flip(original, 8 * header_len + bit))


@pytest.mark.parametrize("kind, bits", STREAMS)
def test_every_candidate_value(kind, bits):
    original, header_len, config = stream(kind, bits)
    width, _, _, row_bits = frame_row(config)
    valid = len(frame_candidates(config))
    for frame, payload in enumerate(parse(original).payloads):
        start = 8 * header_len + frame * row_bits
        for value in range(1 << width):
            forged = original
            for i in range(width):  # flip the bits where `value` differs
                if (value ^ payload.candidate) >> (width - 1 - i) & 1:
                    forged = flip(forged, start + i)
            if value < valid and (frame or not value):
                assert parse(forged).payloads[frame].candidate == value
                decoded_or_frame_error(forged)
            else:
                with pytest.raises(BitstreamError) as info:
                    parse(forged)
                assert info.value.frame_index == frame
