"""All-pole linear prediction via the autocorrelation method.

The predictor form is x_hat(n) = sum_i a_i * x(n - i), i = 1..order,
with coefficients solved from the Toeplitz normal equations by the
Levinson-Durbin recursion. Frames are used as-is (rectangular window,
biased autocorrelation estimate).

Every predictor, `LpcModel` here and `mlp.Mlp`, is a `Predictor`: its
`predictions(history)` gives the codec's closed loop one prediction per
sample. An LPC prediction's arithmetic is normative: starting from 0.0
it adds a_i * x(n - i) for i = 1, 2, ..., order, newest history sample
first, one multiply and one add per tap, uncompensated, on Python
floats. Plain binary64 operations in a fixed order give the same bits on
every host; `math.fsum`, `np.dot` and Python 3.12's compensated `sum()`
can give other bits.

The sum runs in a tap kernel generated once per order, the way
`dataclasses` generates `__init__`: a generator whose taps a0..a{K-1}
and last K samples x0..x{K-1} (x0 newest) are locals. It yields
`0.0 + a0 * x0 + a1 * x1 + ...`, which Python evaluates left to right:
the same multiplies and adds in the same order from the same 0.0 as the
normative sum above, so the same bits, with no per-tap interpreter loop. The
leading `0.0 +` matters: it turns a sum of -0.0 products into +0.0, as
the loop's 0.0 start does. Large orders are summed in statements of
KERNEL_CHUNK taps (`acc = acc + ...`), the same left fold, because one
expression thousands of terms deep overflows the compiler's recursion
limit. The taps are a predictor's `params`, and its history is passed as
Python floats, so that no numpy scalar enters the sum.

The kernel yields a prediction before each sample it is sent, without
end. Its loop is unrolled into passes of KERNEL_UNROLL predictions that
keep the samples sent within the pass in locals, so the window is
shifted by one tuple assignment per pass, not per sample; the sums are
the ones above, term for term. `stream_kernel` writes that generator for
any per-step sum, and the MLP's forward kernel is built by it too;
`compile_kernel` compiles every generated kernel.

`levinson` runs its recursion on Python floats in a kernel generated the
same way, once per order (`_levinson_kernel`), with the operations of a
list recursion in the same order, so its bits are as portable.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .number import as_int

ZERO_ENERGY_FLOOR = 1e-12
REFLECTION_CLAMP = 0.999
KERNEL_CHUNK = 64  # terms per statement of a generated kernel's sum
KERNEL_UNROLL = 12  # predictions per pass of an unrolled kernel's loop


def compile_kernel(signature: str, lines, label: str, **names):
    """The function `kernel` whose source is `def kernel({signature}):`
    over the body `lines`, compiled under the file name `label`, with
    `names` for globals. Every generated kernel is compiled here."""
    source = "\n".join([f"def kernel({signature}):", *(f"    {line}" for line in lines)])
    namespace = dict(names)
    exec(compile(source, label, "exec"), namespace)
    return namespace["kernel"]


def stream_kernel(params, width: int, step, label: str, **names):
    """The generator function `kernel(params, window)` of a prediction
    stream, compiled under the file name `label` with `names` for globals.
    It unpacks its argument `params` into the locals this call's `params`
    names, and `window`, the last `width` samples newest first, into
    x0..x{width-1}, then yields without end.

    `step(inputs)` gives the lines that set `acc` from `inputs`, the names
    of the `width` newest samples, newest first. A pass of the
    `while True:` loop makes KERNEL_UNROLL steps: step j reads the samples
    sent in the pass so far, s{j-1} down to s0, then the window x0, x1,
    ..., and takes the next sample with `s{j} = yield acc`. The window is
    shifted by one tuple assignment per pass."""
    x = [f"x{i}" for i in range(width)]
    s = [f"s{j}" for j in range(KERNEL_UNROLL)]
    body = [line for j in range(KERNEL_UNROLL)
            for line in [*step([*reversed(s[:j]), *x][:width]), f"{s[j]} = yield acc"]]
    if width:
        body.append(f"{', '.join(x)}, = {', '.join([*reversed(s), *x][:width])},")
    head = [f"{', '.join(v)}, = {arg}" for v, arg in ((params, "params"), (x, "window")) if v]
    body = [*head, "while True:", *(f"    {line}" for line in body)]
    return compile_kernel("params, window", body, label, **names)


@functools.cache
def _tap_kernel(order: int):
    """The prediction stream `kernel(params, window)` for one order,
    compiled on first use: `params` are a_1..a_order, `window` the last
    `order` samples newest first.

    Each step of `stream_kernel` sums a0 * (newest sample) + a1 * (next)
    + ... from 0.0. The source grows as order × KERNEL_UNROLL; it compiles
    in about 0.9 ms at order 10 and 1.6 ms at order 25."""
    a = [f"a{i}" for i in range(order)]

    def step(inputs):
        terms = [f"{ai} * {xi}" for ai, xi in zip(a, inputs)]
        return [f"acc = {' + '.join(['acc' if i else '0.0', *terms[i:i + KERNEL_CHUNK]])}"
                for i in range(0, max(order, 1), KERNEL_CHUNK)]  # order 0: acc = 0.0

    return stream_kernel(a, order, step, f"<lpc tap kernel, order {order}>")


class Predictor:
    """A prediction stream over the `order` newest reconstructed samples.
    A subclass supplies `order`, `params` (its parameters as a tuple of
    Python floats), `_key()` and `_kernel()`, its `stream_kernel`. Two
    predictors are equal, and hash alike, when their classes and keys are."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def predictions(self, history):
        """Return a generator of the prediction after reconstructed `history`
        (newest last), then one after each sample sent, without end: Python
        floats, each computed as the subclass's module docstring prescribes."""
        if len(history) < self.order:
            raise ValueError(f"history of {len(history)} too short for order {self.order}")
        window = [float(x) for x in reversed(history[len(history) - self.order :])]
        return self._kernel()(self.params, window)

    def predict(self, history) -> float:
        """Predict the next sample from reconstructed history, newest last."""
        return next(self.predictions(history))


@dataclass(frozen=True, eq=False)
class LpcModel(Predictor):
    """All-pole predictor coefficients a_1..a_order; `order` is their count.

    `reflection` holds the recursion's reflection coefficients (zeros for
    stages that never ran), and is empty for a model no fit produced;
    `halted` marks a recursion cut short by a non-positive
    prediction-error power. Two models are equal, and hash alike, when
    their `halted` flag and the bytes of their coefficients and
    reflection coefficients are.
    """

    coeffs: np.ndarray
    reflection: np.ndarray = ()
    halted: bool = False
    order: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        object.__setattr__(self, "reflection", np.asarray(self.reflection, dtype=np.float64))
        if self.coeffs.ndim != 1:
            raise ValueError(f"coefficients must be one-dimensional, got shape {self.coeffs.shape}")
        object.__setattr__(self, "order", len(self.coeffs))
        object.__setattr__(self, "params", tuple(self.coeffs.tolist()))

    def _key(self) -> tuple:
        return (self.coeffs.tobytes(), self.reflection.shape, self.reflection.tobytes(),
                bool(self.halted))

    def _kernel(self):
        return _tap_kernel(self.order)

    @classmethod
    def zero(cls, order: int) -> "LpcModel":
        return cls(np.zeros(order), np.zeros(order))


def autocorrelation(frame, order: int) -> np.ndarray:
    """Biased autocorrelation r[0..order] of a frame.

    r[k] = sum_{n=k}^{L-1} s(n) s(n-k); lags beyond the frame length are 0.
    `order` is an integer >= 1 (`as_int`).
    """
    order = as_int("order", order, minimum=1)
    s = np.asarray(frame, dtype=np.float64)
    n = len(s)
    r = np.zeros(order + 1)
    for k in range(min(order, n - 1) + 1 if n else 0):
        r[k] = float(np.dot(s[k:], s[: n - k]))
    return r


@functools.cache
def _levinson_kernel(order: int):
    """The function `kernel(r)` for one order, compiled on first use: the
    Levinson-Durbin recursion on r[0..order], returning (coefficients,
    reflection coefficients, halted) as tuples of floats and a bool.

    r0..r{order}, a1..a{order} and k1..k{order} are locals. Stage m checks
    the error power, forms `r{m} - a1 * r{m-1} - ... - a{m-1} * r1` left to
    right (in statements of KERNEL_CHUNK terms at large orders), divides by
    the error power, clamps, updates a1..a{m} in one tuple assignment and
    scales the error power by `1.0 - k{m} * k{m}`. A halt breaks to the one
    exit with the remaining entries still 0.0. The source grows as order²:
    about 4 kB at order 10 and 16 kB at order 25, the codec's orders."""
    r = [f"r{i}" for i in range(order + 1)]
    a = [f"a{i}" for i in range(1, order + 1)]
    k = [f"k{i}" for i in range(1, order + 1)]
    body = []
    for m in range(1, order + 1):
        terms = [r[m], *(f"{a[j - 1]} * {r[m - j]}" for j in range(1, m))]
        chunks = [" - ".join(terms[i:i + KERNEL_CHUNK]) for i in range(0, m, KERNEL_CHUNK)]
        km = k[m - 1]
        update = [*(f"{a[j - 1]} - {km} * {a[m - j - 1]}" for j in range(1, m)), km]
        body += ["if err <= 0.0:", "    break", f"acc = {chunks[0]}",
                 *(f"acc = acc - {chunk}" for chunk in chunks[1:]), f"{km} = acc / err",
                 f"if {km} > {REFLECTION_CLAMP!r}:", f"    {km} = {REFLECTION_CLAMP!r}",
                 f"elif {km} < {-REFLECTION_CLAMP!r}:", f"    {km} = {-REFLECTION_CLAMP!r}",
                 f"{', '.join(a[:m])}, = {', '.join(update)},", f"err = err * (1.0 - {km} * {km})"]
    result = f"({', '.join(a)},), ({', '.join(k)},)"
    lines = [f"{', '.join(r)}, = r", f"{' = '.join(a + k)} = 0.0", "err = r0", "while True:",
             *(f"    {line}" for line in body), f"    return {result}, False",
             f"return {result}, True"]
    return compile_kernel("r", lines, f"<lpc levinson kernel, order {order}>")


def levinson(r) -> LpcModel:
    """Solve the normal equations R a = r by the Levinson-Durbin recursion.

    A non-finite r is refused. Near-zero r[0] yields the all-zero
    predictor. Reflection coefficients that numerical noise pushes past
    magnitude 1 are clamped to 0.999 to keep the synthesis filter stable;
    a non-positive error power halts the recursion with the remaining
    coefficients at zero. The recursion runs in `_levinson_kernel(order)`.
    """
    r = np.asarray(r, dtype=np.float64).tolist()
    order = len(r) - 1
    if order < 1:
        raise ValueError("need at least r[0] and r[1]")
    if not all(map(math.isfinite, r)):
        raise ValueError(f"autocorrelation r is not finite: {r}")
    if r[0] < ZERO_ENERGY_FLOOR:
        return LpcModel.zero(order)
    coeffs, refl, halted = _levinson_kernel(order)(r)
    return LpcModel(coeffs, refl, halted=halted)


def fit(frame, order: int) -> LpcModel:
    """Autocorrelation analysis followed by Levinson-Durbin."""
    return levinson(autocorrelation(frame, order))
