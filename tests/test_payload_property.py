"""Payload values are checked and stored once, by `Bitstream` construction.

For every method at 2 and 5 bits, a drawn stream of valid payloads, built
from Python and numpy integers and floats in tuples, lists and 1-D arrays,
is stored as a tuple of int codes, an int candidate and a tuple of finite
float coefficients, equal in value to what was drawn, and
`parse(serialize(b)) == b`. A stream with one frame corrupted (None, NaN,
an infinity, a string, a wrong count, a value out of range) raises
BitstreamError naming that frame.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nadpcm import Bitstream, BitstreamError, BitstreamHeader, CodecConfig, parse, serialize
from nadpcm.bitstream import FramePayload, frame_candidates, frame_row
from nadpcm.harness import METHODS, method_config
from nadpcm.mlp import MIN_FRAME_LEN
from nadpcm.quantizer import code_range

FRAMES = 2
INT_TYPES = (int, np.int64, np.int16)
FLOAT_TYPES = (float, np.float64, np.float32)
CONTAINERS = (tuple, list, np.array)
# refused wherever they stand; a code or a candidate is also refused as
# 1.5 or True, a coefficient as True, a sequence field as any scalar
BAD_VALUES = (None, math.nan, math.inf, -math.inf, "0", "x")
BAD_INTS = BAD_VALUES + (1.5, True)
BAD_REALS = BAD_VALUES + (True,)
FIELDS = ("codes", "candidate", "forward_coeffs")


def typed(data, types, values):
    """`values` cast in turn to a drawn cycle of `types`, so that one
    sequence may mix Python and numpy scalars."""
    cycle = data.draw(st.lists(st.sampled_from(types), min_size=1, max_size=3))
    return [cycle[k % len(cycle)](v) for k, v in enumerate(values)]


def draw_valid(data, config, frame_index):
    """A valid payload's fields, of drawn Python and numpy types."""
    code_min, code_max = code_range(config.bits)
    _, count, _, _ = frame_row(config)
    n = config.frame_len
    codes = data.draw(st.lists(st.integers(code_min, code_max), min_size=n, max_size=n))
    top = len(frame_candidates(config)) - 1 if frame_index else 0
    coeffs = data.draw(st.lists(st.floats(-1e30, 1e30), min_size=count, max_size=count))
    return {"codes": typed(data, INT_TYPES, codes),
            "candidate": typed(data, INT_TYPES, [data.draw(st.integers(0, top))])[0],
            "forward_coeffs": typed(data, FLOAT_TYPES, coeffs)}


def corrupt(data, config, fields, frame_index):
    """`fields` with one made invalid: a whole field, one element, the
    length, or a candidate out of range (nonzero on frame 0)."""
    name = data.draw(st.sampled_from(FIELDS))
    value = fields[name]
    how = data.draw(st.sampled_from(("field", "element", "length", "range")))
    if name == "candidate":
        top = len(frame_candidates(config)) - 1 if frame_index else 0
        value = data.draw(st.sampled_from(BAD_INTS + (-1, top + 1)))
    elif how == "field" or not value:
        value = data.draw(st.sampled_from(BAD_VALUES + (0, 1.5)))
    elif how == "length":
        value = value + value[:1] if data.draw(st.booleans()) else value[1:]
    elif how == "range" and name == "codes":
        code_min, code_max = code_range(config.bits)
        value = [code_max + 1 if v else code_min - 1 for v in value]
    else:
        value = list(value)
        bad = BAD_INTS if name == "codes" else BAD_REALS
        value[data.draw(st.integers(0, len(value) - 1))] = data.draw(st.sampled_from(bad))
        if bool in map(type, value):
            value = tuple(value)  # `contained` would put it in an array, which casts a bool
    return {**fields, name: value}


def contained(data, fields):
    """`fields` with codes and coefficients in drawn sequence types."""
    out = dict(fields)
    for name in ("codes", "forward_coeffs"):
        if isinstance(out[name], list):
            out[name] = data.draw(st.sampled_from(CONTAINERS))(out[name])
    return out


@pytest.mark.parametrize("bits", [2, 5])
@pytest.mark.parametrize("method", sorted(METHODS))
@settings(max_examples=30, deadline=1000, derandomize=True, database=None)
@given(data=st.data())
def test_constructed_payloads_round_trip(method, bits, data):
    config = method_config(CodecConfig(frame_len=MIN_FRAME_LEN), method, bits)
    header = BitstreamHeader(8000, FRAMES * MIN_FRAME_LEN - 1, config)
    drawn = [draw_valid(data, config, k) for k in range(FRAMES)]
    bad = data.draw(st.one_of(st.none(), st.integers(0, FRAMES - 1)), label="corrupt frame")
    if bad is not None:
        drawn[bad] = corrupt(data, config, drawn[bad], bad)
    payloads = tuple(FramePayload(**contained(data, fields)) for fields in drawn)
    if bad is not None:
        with pytest.raises(BitstreamError) as info:
            Bitstream(header, payloads)
        assert info.value.frame_index == bad, str(info.value)
        return
    stream = Bitstream(header, payloads)
    for fields, p in zip(drawn, stream.payloads):
        assert type(p.codes) is tuple and type(p.forward_coeffs) is tuple
        assert set(map(type, p.codes)) == {int} and type(p.candidate) is int
        assert set(map(type, p.forward_coeffs)) <= {float}
        assert p.codes == tuple(map(int, fields["codes"]))
        assert p.candidate == fields["candidate"]
        assert p.forward_coeffs == tuple(map(float, fields["forward_coeffs"]))
        assert all(map(math.isfinite, p.forward_coeffs))
    assert parse(serialize(stream)) == stream


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("name", FIELDS)
def test_explicit_none_refused(method, name):
    # an omitted field is candidate 0 or no coefficients; None is refused
    config = method_config(CodecConfig(frame_len=MIN_FRAME_LEN), method, 2)
    header = BitstreamHeader(8000, 2 * MIN_FRAME_LEN, config)
    _, count, _, _ = frame_row(config)
    good = FramePayload((0,) * MIN_FRAME_LEN, forward_coeffs=(0.0,) * count)
    with pytest.raises(BitstreamError, match="^frame 1: ") as info:
        Bitstream(header, (good, FramePayload(**{**vars(good), name: None})))
    assert info.value.frame_index == 1
