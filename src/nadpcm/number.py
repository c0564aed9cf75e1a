"""The one number rule: `as_int`, `as_real` and `as_tuple` check and
store every integer, real and sequence field, argument and seed of the
package. A bool is neither an integer nor a real. No other module tests
for an integer, a real or a sequence itself.

This module imports only the standard library and numpy, so every other
module, `lpc` included, can use the rule.
"""

import math
import numbers
from collections.abc import Sequence

import numpy as np


def as_int(name: str, value, minimum=None) -> int:
    """A Python int or subclass (not a bool) or numpy integer as a Python int;
    ValueError names the field if it is not one, or is below `minimum` when given."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def as_real(name: str, value) -> float:
    """A finite Python or numpy real (not a bool) as a Python float, or
    ValueError naming the field. A numpy scalar left in place would compute
    in its own precision (float32 stays float32) in the coding loop and fit."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int or a fraction beyond binary64
        value = math.inf
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def as_tuple(name: str, values) -> tuple:
    """A tuple, list or 1-D array as a tuple, or ValueError naming the field."""
    if isinstance(values, (Sequence, np.ndarray)) and getattr(values, "ndim", 1) == 1:
        return tuple(values)
    raise ValueError(f"{name} must be a sequence, got {values!r}")
