"""Adaptive uniform midrise quantizer for the prediction residual.

After every sample the step is multiplied by a factor indexed by the
magnitude rank of the emitted code (small codes shrink it, overload codes
grow it) and clamped to [STEP_MIN, STEP_MAX]: Jayant's one-word-memory
rule. The steps and each depth's table are constants of the format, as
in G.726; the stream's version names them. `quantize`, `dequantize` and
`next_step` are the rule's reference, taking them as arguments;
`codec._closed_loop` writes the same three steps inline, with the same
operations in the same order, and a test replays these functions over its
output bit for bit. `AdaptiveQuantizer` is a benchmark shim that only
forwards to them.
"""

import math
from dataclasses import dataclass, replace

# Step multipliers per code magnitude rank, innermost first, per depth.
MULTIPLIERS = {
    2: (0.8, 1.6),
    3: (0.9, 0.9, 1.25, 1.75),
    4: (0.9, 0.9, 0.9, 0.9, 1.2, 1.6, 2.0, 2.4),
    5: (0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9,
        1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6),
}

STEP_INIT = 0.02
STEP_MIN = 2.0**-12
STEP_MAX = 0.5


def code_range(bits: int) -> tuple:
    """(code_min, code_max) of the bits-bit midrise quantizer."""
    half = 1 << (bits - 1)
    return -half, half - 1


def quantize(e: float, step: float, bits: int) -> int:
    """Midrise code for residual e: floor(e/step) clamped to the code range.
    A cell boundary goes to the upper cell; an infinite ratio clamps."""
    half = 1 << (bits - 1)
    level = e / step
    if level < -half:
        return -half
    if level >= half:
        return half - 1
    return math.floor(level)


def dequantize(code: int, step: float) -> float:
    """Cell midpoint (code + 0.5) * step."""
    return (code + 0.5) * step


def next_step(step: float, code: int, multipliers, step_min: float, step_max: float) -> float:
    """Step after `code`: times the multiplier of the code's magnitude rank,
    clamped to [step_min, step_max]. The rank runs from 0 for the innermost
    cells (codes 0 and -1) to 2^(bits-1)-1 for the overload cells."""
    step = step * multipliers[code if code >= 0 else -code - 1]
    if step < step_min:
        return step_min
    if step > step_max:
        return step_max
    return step


@dataclass(frozen=True)
class AdaptiveQuantizer:
    """Benchmark shim over the rule functions, kept only for the import in
    `perfbench/tracing.py`; the benchmark change in ROADMAP item 1 deletes it.
    It checks nothing: its caller passes the values of a built `CodecConfig`."""

    bits: int
    step: float
    step_min: float
    step_max: float
    multipliers: tuple

    def quantize(self, e: float) -> int:
        return quantize(e, self.step, self.bits)

    def dequantize(self, code: int) -> float:
        return dequantize(code, self.step)

    def adapt(self, code: int) -> "AdaptiveQuantizer":
        """Next state with the step multiplied and clamped; all else unchanged."""
        step = next_step(self.step, code, self.multipliers, self.step_min, self.step_max)
        return replace(self, step=step)
