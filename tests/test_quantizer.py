"""Adaptive midrise quantizer: the rule functions the codec loop calls."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nadpcm import Bitstream, BitstreamError, BitstreamHeader, CodecConfig, FramePayload, encode
from nadpcm.quantizer import (
    MULTIPLIERS,
    STEP_INIT,
    STEP_MAX,
    STEP_MIN,
    code_range,
    dequantize,
    next_step,
    quantize,
)


class TestQuantize:
    def test_known_codes_at_2_bits(self):
        assert quantize(0.05, 0.1, 2) == 0
        assert quantize(-0.12, 0.1, 2) == -2
        assert quantize(0.30, 0.1, 2) == 1  # clamped from floor(3.0) = 3

    def test_midrise_has_no_zero_output(self):
        lo, hi = code_range(2)
        for code in range(lo, hi + 1):
            assert dequantize(code, 0.1) != 0.0

    def test_dequantize_cell_midpoints(self):
        assert dequantize(0, 0.1) == pytest.approx(0.05)
        assert dequantize(-2, 0.1) == pytest.approx(-0.15)
        assert dequantize(1, 0.1) == pytest.approx(0.15)

    def test_dequantize_rejects_out_of_range(self):
        # the decoder refuses a code outside the range before dequantizing it
        assert code_range(2) == (-2, 1)
        header = BitstreamHeader(8000, 1, CodecConfig(frame_len=1, bits=2))
        for code in (-2, 1):
            Bitstream(header, (FramePayload(codes=(code,)),))
        for code in (2, -3):
            with pytest.raises(BitstreamError, match=rf"code {code} outside \[-2, 1\]"):
                Bitstream(header, (FramePayload(codes=(code,)),))

    def test_code_range_per_bits(self):
        for bits in (2, 3, 4, 5):
            half = 2 ** (bits - 1)
            assert code_range(bits) == (-half, half - 1)
            assert quantize(1e9, 0.1, bits) == half - 1
            assert quantize(-1e9, 0.1, bits) == -half
            assert quantize(half * 0.125, 0.125, bits) == half - 1  # top edge clamps
            assert quantize(-half * 0.125, 0.125, bits) == -half

    def test_granular_error_bounded(self):
        rng = np.random.default_rng(6)
        step = 0.02
        lo, hi = -8 * step, 8 * step
        for e in rng.uniform(lo, hi - 1e-12, size=2000):
            code = quantize(e, step, 4)
            assert abs(e - dequantize(code, step)) <= step / 2 + 1e-15


class TestAdapt:
    def test_magnitude_rank(self):
        multipliers = (0.5, 0.6, 0.7, 0.8)  # 3 bits, one per rank
        for code, m in ((0, 0.5), (-1, 0.5), (1, 0.6), (-2, 0.6),
                        (2, 0.7), (-3, 0.7), (3, 0.8), (-4, 0.8)):
            assert next_step(0.1, code, multipliers, 0.01, 0.5) == 0.1 * m

    def test_small_codes_shrink_step(self):
        assert next_step(0.1, 0, MULTIPLIERS[2], 0.01, 0.5) == pytest.approx(0.08)

    def test_large_codes_grow_step(self):
        assert next_step(0.1, -2, MULTIPLIERS[2], 0.01, 0.5) == pytest.approx(0.16)

    def test_step_clamped_to_bounds(self):
        assert next_step(0.011, 0, MULTIPLIERS[2], 0.01, 0.5) == 0.01
        assert next_step(0.4, 1, MULTIPLIERS[2], 0.01, 0.5) == 0.5

    def test_zero_input_decays_to_floor(self):
        step = STEP_INIT
        for _ in range(200):
            step = next_step(step, quantize(0.0, step, 4), MULTIPLIERS[4], STEP_MIN, STEP_MAX)
        assert step == STEP_MIN


@settings(derandomize=True, database=None)
@given(bits=st.integers(2, 5), step=st.floats(STEP_MIN, STEP_MAX))
def test_every_code_round_trips_and_scales_the_step(bits, step):
    """The decoder and the benchmark's replay re-quantize a cell midpoint to
    its own code, overload codes included; the next step is the rank's
    multiplier times the step, clamped."""
    config = CodecConfig(bits=bits)
    lo, hi = code_range(bits)
    for code in range(lo, hi + 1):
        assert quantize(dequantize(code, step), step, bits) == code
        rank = abs(2 * code + 1) // 2
        expected = min(max(step * config.multipliers[rank], config.step_min), config.step_max)
        assert next_step(step, code, config.multipliers, config.step_min,
                         config.step_max) == expected


def test_benchmark_shim_replays_the_rule_bit_for_bit(speech_like):
    """perfbench times `AdaptiveQuantizer` over encoded streams' codes in
    place of the loop's rule functions, so the two must agree exactly."""
    from nadpcm.quantizer import AdaptiveQuantizer

    for bits in (2, 3, 4, 5):
        config = CodecConfig(bits=bits)
        codes = [c for p in encode(speech_like, config).bitstream.payloads for c in p.codes]
        q = AdaptiveQuantizer(bits=bits, step=config.step_init, step_min=config.step_min,
                              step_max=config.step_max, multipliers=config.multipliers)
        step = config.step_init
        steps = set()
        for c in codes:
            assert q.step.hex() == step.hex()
            x = dequantize(c, step)
            assert q.quantize((c + 0.5) * q.step) == quantize(x, step, bits) == c
            assert q.dequantize(c).hex() == x.hex()
            before, q = q, q.adapt(c)
            assert before.step == step and q is not before  # adapt returns a new state
            step = next_step(step, c, config.multipliers, config.step_min, config.step_max)
            steps.add(step)
        assert q.step.hex() == step.hex()
        assert len(codes) == len(speech_like.samples) and len(steps) > 100


class TestMultiplierTables:
    def test_constants(self):
        # the format's constants, which no config can change
        assert (STEP_INIT, STEP_MIN, STEP_MAX) == (0.02, 2.0**-12, 0.5)
        config = CodecConfig()
        assert (config.step_init, config.step_min, config.step_max) == (STEP_INIT, STEP_MIN,
                                                                        STEP_MAX)
        assert len(fields(CodecConfig)) == 5 and config.multipliers == MULTIPLIERS[config.bits]
        for name in ("step_init", "step_min", "step_max", "multipliers"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                CodecConfig(**{name: getattr(config, name)})

    def test_table_sizes(self):
        for bits in (2, 3, 4, 5):
            assert len(MULTIPLIERS[bits]) == 2 ** (bits - 1)
            assert CodecConfig(bits=bits).multipliers == MULTIPLIERS[bits]

    def test_known_tables(self):
        assert MULTIPLIERS[2] == (0.8, 1.6)
        assert MULTIPLIERS[3] == (0.9, 0.9, 1.25, 1.75)
        assert MULTIPLIERS[4] == (0.9, 0.9, 0.9, 0.9, 1.2, 1.6, 2.0, 2.4)
        assert MULTIPLIERS[5][:8] == (0.9,) * 8
        assert MULTIPLIERS[5][8:] == (1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6)

    def test_inner_shrink_outer_grow(self):
        for bits in (2, 3, 4, 5):
            table = MULTIPLIERS[bits]
            assert table[0] < 1.0 < table[-1]


class TestValidation:
    def test_bits_out_of_range(self):
        for bits in (1, 6):
            with pytest.raises(ValueError, match=f"^bits must be in 2..5, got {bits}$"):
                CodecConfig(bits=bits)

    @pytest.mark.parametrize("bits", [3.0, np.float64(3.0), "3", True])
    def test_bits_must_be_an_integer(self, bits):
        with pytest.raises(ValueError, match="bits must be an integer"):
            CodecConfig(bits=bits)

    def test_numpy_integer_bits_accepted(self):
        assert CodecConfig(bits=np.int64(3)).multipliers == MULTIPLIERS[3]
