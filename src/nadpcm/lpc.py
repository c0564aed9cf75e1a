"""All-pole linear prediction via the autocorrelation method.

The predictor form is x_hat(n) = sum_i a_i * x(n - i), i = 1..order,
with coefficients solved from the Toeplitz normal equations by the
Levinson-Durbin recursion. Frames are used as-is (rectangular window,
biased autocorrelation estimate).

`LpcModel.predictions` gives the codec's closed loop one prediction per
sample, and its arithmetic is normative: starting from 0.0 it adds
a_i * x(n - i) for i = 1, 2, ..., order, newest history sample first,
one multiply and one add per tap, uncompensated, on Python floats. Plain
binary64 operations in a fixed order give the same bits on every host;
`math.fsum`, `np.dot` and Python 3.12's compensated `sum()` can give
other bits. The taps are cached and the history is kept as Python floats
so that no numpy scalar enters the loop, and `levinson` runs its
recursion on Python floats as well.
"""

from dataclasses import dataclass

import numpy as np

ZERO_ENERGY_FLOOR = 1e-12
REFLECTION_CLAMP = 0.999


@dataclass(frozen=True)
class LpcModel:
    """All-pole predictor coefficients of a given order.

    `reflection` holds the recursion's reflection coefficients (zeros for
    stages that never ran); `halted` marks a recursion cut short by a
    non-positive prediction-error power. Two models are equal, and hash
    alike, when their order, `halted` flag and the bytes of their
    coefficients and reflection coefficients are.
    """

    order: int
    coeffs: np.ndarray
    reflection: np.ndarray
    halted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        object.__setattr__(self, "reflection", np.asarray(self.reflection, dtype=np.float64))
        if len(self.coeffs) != self.order:
            raise ValueError(f"need {self.order} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "_taps", tuple(self.coeffs.tolist()))

    def _key(self) -> tuple:
        return (self.order, self.coeffs.tobytes(), self.reflection.shape,
                self.reflection.tobytes(), bool(self.halted))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def predictions(self, history, n: int):
        """Yield the prediction after reconstructed `history` (newest last),
        then one after each of the n samples sent: n + 1 predictions, each
        summed in the module docstring's order."""
        if len(history) < self.order:
            raise ValueError(f"history of {len(history)} too short for order {self.order}")
        taps = self._taps
        window = [float(x) for x in history[len(history) - self.order :]]
        for _ in range(n + 1):
            acc = 0.0
            for a, x in zip(taps, reversed(window)):
                acc += a * x
            window.append((yield acc))

    def predict(self, history) -> float:
        """Predict the next sample from reconstructed history, newest last."""
        return next(self.predictions(history, 0))

    @classmethod
    def zero(cls, order: int) -> "LpcModel":
        return cls(order, np.zeros(order), np.zeros(order))


def autocorrelation(frame, order: int) -> np.ndarray:
    """Biased autocorrelation r[0..order] of a frame.

    r[k] = sum_{n=k}^{L-1} s(n) s(n-k); lags beyond the frame length are 0.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    s = np.asarray(frame, dtype=np.float64)
    n = len(s)
    r = np.zeros(order + 1)
    for k in range(min(order, n - 1) + 1 if n else 0):
        r[k] = float(np.dot(s[k:], s[: n - k]))
    return r


def levinson(r) -> LpcModel:
    """Solve the normal equations R a = r by the Levinson-Durbin recursion.

    Near-zero r[0] yields the all-zero predictor. Reflection coefficients
    that numerical noise pushes past magnitude 1 are clamped to 0.999 to
    keep the synthesis filter stable; a non-positive error power halts
    the recursion with the remaining coefficients at zero.
    """
    r = np.asarray(r, dtype=np.float64).tolist()
    order = len(r) - 1
    if order < 1:
        raise ValueError("need at least r[0] and r[1]")
    if r[0] < ZERO_ENERGY_FLOOR:
        return LpcModel.zero(order)

    a = [0.0] * order
    refl = [0.0] * order
    err = r[0]
    halted = False
    for m in range(1, order + 1):
        if err <= 0.0:
            halted = True
            break
        acc = r[m]
        for j in range(1, m):
            acc -= a[j - 1] * r[m - j]
        k = acc / err
        if k > REFLECTION_CLAMP:
            k = REFLECTION_CLAMP
        elif k < -REFLECTION_CLAMP:
            k = -REFLECTION_CLAMP
        refl[m - 1] = k
        prev = a[: m - 1]
        for j in range(1, m):
            a[j - 1] = prev[j - 1] - k * prev[m - 1 - j]
        a[m - 1] = k
        err *= 1.0 - k * k
    return LpcModel(order, a, refl, halted=halted)


def fit(frame, order: int) -> LpcModel:
    """Autocorrelation analysis followed by Levinson-Durbin."""
    return levinson(autocorrelation(frame, order))
