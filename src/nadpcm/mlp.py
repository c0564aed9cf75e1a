"""Small perceptron predictor trained per frame by Levenberg-Marquardt.

The network is fixed at 10 inputs, 2 sigmoid hidden units and 1 linear
output (25 parameters). Everything here is deterministic given explicit
seeds: the same frame, config and seed always reproduce the same trained
weights, which is what lets a decoder re-derive the encoder's predictor
from decoded samples alone.

The parameter vector is the model: `Mlp` holds the 25 parameters as one
array, `theta`, in the order that is normative for seeding and
serialization: input weights row-major (hidden unit 0 then 1), hidden
biases, output weights, output bias.

Training runs on a stack of nets. The R restarts of one fit are an
(R, 25) array, one parameter vector per row, trained together by one
Levenberg-Marquardt loop. `init_mlp` draws the whole starting stack in
one pass of uint64 arithmetic (`SplitMix64.uniform_rows`): row i is, bit
for bit, the first 25 `SplitMix64(seeds[i]).uniform(-scale, scale)`
draws. For N training pairs, `residual_jacobian` gives
the (R, N, 25) Jacobians and (R, N) residuals, and `lm_epoch` takes the
stack with an (R,) damping vector and returns (theta', lambda', sse,
accepted): the (R, 25) stack after the step, the (R,) damping after it,
each row's (R,) SSE at its returned parameters, and the number of rows
whose step was accepted, as an int. Accept/reject and the damping update
are decided per row. numpy runs the matrix products and the solve slice
by slice, so every row gets the same IEEE operations, in the same order,
as it would in a stack of one: a row's result does not depend on the rows
beside it, and `lm_iterations` is that stack of one.

The Jacobian's sign rule: dr/dtheta = -dy/dtheta is written in one pass,
with each output weight v_j negated before it multiplies h_j (1 - h_j) and
the output columns written as -h_j and -1.0. IEEE rounding is symmetric,
so each entry is exactly -dy/dtheta, the sign of zero included.

Consecutive epochs share work through a carry, a dict that `lm_epoch`
fills and its next call on the same stack reads; like Madsen, Nielsen
and Tingleff (2004), Alg. 3.16, it forms J^T J and J^T r only after an
accepted step. A rejected row keeps its parameters, so its J^T J, J^T r
and SSE are reused; an accepted row's new parameters were just scored
by a forward pass, which the next call turns into its Jacobian instead
of running the pass again. `lm_stack_iterations` threads one carry
through its epochs, so the last epoch builds no Jacobian. The carry
changes no bit: every BLAS and LAPACK call keeps its per-row operand
shapes, and a carried epoch equals a cold one (`carry=None`).

The fitted nets are what the codec's closed loop evaluates once per
sample, through `Mlp.predictions`, and its arithmetic is normative, on
Python floats with the inputs x0..x9 newest sample first; w_j0..w_j9,
b_j, v_j and c are hidden unit j's input weights and bias, its output
weight and the output bias. Hidden unit j is a_j = 0.0 + w_j0 * x0 +
w_j1 * x1 + ... + w_j9 * x9 + b_j, added left to right, one multiply and
one add per term; its activation is h_j = 1.0 / (1.0 + exp(-a_j)) with
`math.exp`, and 0.0 where exp(-a_j) overflows. The output is v0 * h0 +
v1 * h1 + c, left to right. No BLAS call is made, so the predictions do
not depend on the BLAS kernel; `math.exp` is still the host libm's.

The fit's batch forward pass, `forward_batch`, computes the same sigmoid
with numpy ufuncs, in place on the (R, N, 2) pre-activations: h = 1.0 /
(1.0 + exp(min(-a, 709.0))) with `np.exp`. The clamp keeps exp finite,
so no overflow warning is raised; below a = -709.0, h stays at about
1.2e-308, where the kernel's h goes on falling and is 0.0 once exp(-a)
overflows (a < -709.78). `np.exp` can differ from `math.exp` by one ulp
of exp, so h can differ from the kernel's in its last bits. Only
training sees that difference: the decoder re-runs the same fit, and
every prediction of the closed loop comes from the kernel.

`Mlp` is an `lpc.Predictor`, as `lpc.LpcModel` is, so its `predictions`,
`predict` and equality are the LPC model's; only its kernel and key differ.
`_forward_kernel` is generated on first use by `lpc.stream_kernel`, as the
LPC tap kernel is: the 25 parameters (`params`) and the 10-sample window
are locals, and each expression above is written out term for term.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import lpc
from .number import as_int, as_real

log = logging.getLogger(__name__)

N_INPUTS = 10
N_HIDDEN = 2
N_PARAMS = N_INPUTS * N_HIDDEN + N_HIDDEN + N_HIDDEN + 1
MIN_FRAME_LEN = N_INPUTS + 1  # shortest frame that yields a training pair
TOO_SHORT = f"frame_len {{}} is below the {MIN_FRAME_LEN}-sample MLP minimum"  # .format(frame_len)

_EYE = np.eye(N_PARAMS)
_EYE.flags.writeable = False

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 generator; the full sequence is determined by the seed."""

    def __init__(self, seed: int):
        self.state = as_int("seed", seed) & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform draw in [lo, hi) from the top 53 bits of the next output."""
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        frac = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * frac

    @staticmethod
    def uniform_rows(seeds, lo: float, hi: float, n: int) -> np.ndarray:
        """(len(seeds), n) array whose row i is the first n `uniform(lo, hi)`
        draws of `SplitMix64(seeds[i])`: the same outputs, computed for all
        seeds at once in uint64 arithmetic (which wraps mod 2**64), and the
        same float operations on them."""
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        z = np.array([as_int("seed", seed) & MASK64 for seed in seeds], dtype=np.uint64)[:, None]
        z = z + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
        z ^= z >> 30
        z *= MIX1
        z ^= z >> 27
        z *= MIX2
        z ^= z >> 31
        z >>= 11
        value = z.astype(np.float64)
        value *= 2.0**-53   # exact: the top 53 bits as a fraction in [0, 1)
        value *= hi - lo
        value += lo
        return value


@dataclass(frozen=True)
class TrainConfig:
    """Per-frame training conditions for the perceptron predictor."""

    epochs: int = 6
    restarts: int = 4
    lambda_init: float = 0.01
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    init_scale: float = 0.5

    def __post_init__(self):
        for name in ("epochs", "restarts"):
            object.__setattr__(self, name, as_int(name, getattr(self, name), minimum=1))
        for name in ("lambda_init", "lambda_up", "lambda_down", "init_scale"):
            value = as_real(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True, eq=False)
class Mlp(lpc.Predictor):
    """10x2x1 perceptron: sigmoid hidden layer, linear output.

    `theta` holds the 25 parameters in the normative order and is the
    whole model; `params` holds them as Python floats, and `w_in` (2, 10)
    is a read-only view of its input weights. `restart` is not a
    parameter: it records which restart of a `multistart_fit` the net is,
    so the encoder can send that index. Two nets are equal, and hash
    alike, when their `theta` bytes and `restart` are.
    """

    theta: np.ndarray
    restart: int = 0
    order = N_INPUTS

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64)
        if theta.shape != (N_PARAMS,):
            raise ValueError(f"need {N_PARAMS} parameters, got {theta.shape}")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "w_in", theta[:20].reshape(N_HIDDEN, N_INPUTS))
        object.__setattr__(self, "params", tuple(theta.tolist()))

    @classmethod
    def zero(cls) -> "Mlp":
        """All-zero net; predicts 0.0 for any input (zero output weights)."""
        return cls(np.zeros(N_PARAMS))

    def _key(self) -> tuple:
        return self.theta.tobytes(), self.restart

    def _kernel(self):
        return _forward_kernel()


@functools.cache
def _forward_kernel():
    """The prediction stream `kernel(params, window)`, compiled on first
    use: `params` are the 25 parameters in normative order, `window` the
    last 10 samples newest first. Each step of `lpc.stream_kernel`
    computes the forward pass of the module docstring."""
    w = [[f"w{j}_{i}" for i in range(N_INPUTS)] for j in range(N_HIDDEN)]

    def step(inputs):
        lines = []
        for j in range(N_HIDDEN):
            terms = [f"{wi} * {xi}" for wi, xi in zip(w[j], inputs)]
            # exp(-a) beyond the float range raises; h is 0.0 there
            lines += [f"a = {' + '.join(['0.0', *terms, f'b{j}'])}",
                      "try:", f"    h{j} = 1.0 / (1.0 + exp(-a))",
                      "except OverflowError:", f"    h{j} = 0.0"]
        return [*lines, "acc = v0 * h0 + v1 * h1 + c"]

    params = [*w[0], *w[1], "b0", "b1", "v0", "v1", "c"]
    return lpc.stream_kernel(params, N_INPUTS, step, "<mlp forward kernel>", exp=math.exp)


def init_mlp(seeds, scale: float) -> np.ndarray:
    """The (R, 25) starting stack of R seeds: row i is seeds[i]'s 25
    parameters, in normative order, drawn uniformly in [-scale, scale)."""
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    return SplitMix64.uniform_rows(seeds, -scale, scale, N_PARAMS)


def build_training_set(frame):
    """One-step prediction pairs from within a single frame.

    For each n >= 10: inputs are the 10 preceding samples (newest first)
    and the target is frame[n]. A frame shorter than MIN_FRAME_LEN is
    refused with ValueError.
    """
    frame = np.asarray(frame, dtype=np.float64)
    n = len(frame)
    if n < MIN_FRAME_LEN:
        raise ValueError(TOO_SHORT.format(n))
    count = n - N_INPUTS
    x = np.empty((count, N_INPUTS))
    for lag in range(1, N_INPUTS + 1):
        x[:, lag - 1] = frame[N_INPUTS - lag : n - lag]
    t = frame[N_INPUTS:].copy()
    return x, t


def forward_batch(theta: np.ndarray, x: np.ndarray):
    """Hidden activations (..., N, 2) and outputs (..., N) of one net (25,)
    or a stack of nets (R, 25) on an (N, 10) input matrix.

    This is the one batch forward pass, for a single net and for the
    stacked fit alike. Its sigmoid is the module docstring's, clamped.
    """
    w_in = theta[..., :20].reshape(theta.shape[:-1] + (N_HIDDEN, N_INPUTS))
    z = x @ w_in.swapaxes(-1, -2)
    np.subtract(-theta[..., None, 20:22], z, out=z)  # -a
    np.minimum(z, 709.0, out=z)  # exp(709.0) is finite
    np.exp(z, out=z)
    z += 1.0
    h = np.reciprocal(z, out=z)
    y = (h @ theta[..., 22:24, None])[..., 0]
    y += theta[..., 24:25]
    return h, y


def residual_jacobian(theta: np.ndarray, x: np.ndarray, t: np.ndarray, forward=None):
    """Jacobians dr/dtheta (R, N, 25) and residuals r = t - y (R, N) of a
    stack of nets (R, 25).

    Columns follow the normative parameter order. Hidden derivatives use
    the logistic identity sigma' = sigma (1 - sigma) and the module's sign
    rule. `forward`, when given, is `forward_batch(theta, x)` already computed.
    """
    h, y = forward_batch(theta, x) if forward is None else forward  # (R, N, 2), (R, N)
    r = t - y
    dr_dz = h * (1.0 - h)                           # (R, N, 2)
    dr_dz *= -theta[:, None, 22:24]
    jac = np.empty(r.shape + (N_PARAMS,))
    # input weights, row-major over hidden units, through a view of jac
    np.multiply(dr_dz[..., None], x[:, None, :],
                out=jac[..., :20].reshape(r.shape + (N_HIDDEN, N_INPUTS)))
    jac[..., 20:22] = dr_dz                         # hidden biases
    np.negative(h, out=jac[..., 22:24])             # output weights
    jac[..., 24] = -1.0                             # output bias
    return jac, r


def _row_sse(r: np.ndarray) -> np.ndarray:
    """Sum of squares of each row of an (R, N) residual stack."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _normal_equations(jac: np.ndarray, r: np.ndarray):
    """J^T J (R, 25, 25) and J^T r (R, 25, 1) of a Jacobian and residual stack."""
    jac_t = jac.transpose(0, 2, 1)
    return jac_t @ jac, jac_t @ r[:, :, None]


def _solve_each(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each system of a stack; a singular system's solution is NaN.

    numpy refuses the whole stack when one matrix is singular, so only
    then is each matrix solved on its own.
    """
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        pass
    delta = np.full(rhs.shape, np.nan)
    for i in range(len(lhs)):
        try:
            delta[i] = np.linalg.solve(lhs[i], rhs[i])
        except np.linalg.LinAlgError:
            log.debug("singular LM system in row %d: step rejected", i)
    return delta


def lm_epoch(theta: np.ndarray, x: np.ndarray, t: np.ndarray, lam: np.ndarray,
             config: TrainConfig, carry=None):
    """One full-batch Levenberg-Marquardt iteration with accept/reject
    damping for each net of a stack (R, 25), with its damping lam (R,).

    Returns (theta', lam', sse, accepted): the stack after the step, the
    damping after it, each row's SSE at its returned parameters, and the
    number of accepted steps as an int. A rejected, singular or
    non-finite step leaves that row's parameters unchanged and raises
    its lambda; an accepted one lowers it.

    `carry` is None, or a dict that this call fills for the next call on
    the stack it returns (an empty dict starts cold, like None). It holds
    each row's J^T J, J^T r and SSE at its current parameters ("jtj",
    "jtr", "sse"), except that for the rows whose step was accepted
    ("moved", and their number, "accepted") it holds only the scoring
    forward pass of the new parameters ("forward"); the next call builds
    their normal equations from it. A rejected row's entries are reused
    as they are. The results are the same bits as a cold call's.
    """
    if not all(value > 0 for value in lam.tolist()):
        raise ValueError(f"lambda must be > 0, got {lam}")
    if not carry:
        jac, r = residual_jacobian(theta, x, t)
        sse0 = _row_sse(r)
        jtj, jtr = _normal_equations(jac, r)
    else:
        jtj, jtr, sse0, moved = carry["jtj"], carry["jtr"], carry["sse"], carry["moved"]
        h, y = carry["forward"]
        if carry["accepted"] == len(moved):
            jtj, jtr = _normal_equations(*residual_jacobian(theta, x, t, forward=(h, y)))
        elif carry["accepted"]:
            rows = np.flatnonzero(moved)
            jac, r = residual_jacobian(theta[rows], x, t, forward=(h[rows], y[rows]))
            jtj[rows], jtr[rows] = _normal_equations(jac, r)
    delta = _solve_each(jtj + lam[:, None, None] * _EYE, jtr)[..., 0]
    # one sum is finite exactly when every step is (short of overflow,
    # which only sends a finite stack down the per-row path)
    every_usable = math.isfinite(delta.sum())
    # r decreases along -(J^T J + lam I)^-1 J^T r since jac is d r/d theta;
    # an unusable row is scored at its own parameters and then rejected.
    if not every_usable:
        usable = np.isfinite(delta).all(axis=1)
        delta = np.where(usable[:, None], delta, 0.0)
    candidate = theta - delta
    h, y = forward_batch(candidate, x)
    sse1 = _row_sse(t - y)
    accept = sse1 < sse0
    if not every_usable:
        accept &= usable
    accepted = int(np.count_nonzero(accept))
    if accepted == len(accept):
        theta, lam, sse = candidate, lam * config.lambda_down, sse1
    elif not accepted:
        lam, sse = lam * config.lambda_up, sse0
    else:
        theta = np.where(accept[:, None], candidate, theta)
        lam = np.where(accept, lam * config.lambda_down, lam * config.lambda_up)
        sse = np.where(accept, sse1, sse0)
    if carry is not None:
        carry.update(jtj=jtj, jtr=jtr, sse=sse, moved=accept, accepted=accepted,
                     forward=(h, y))
    return theta, lam, sse, accepted


def lm_stack_iterations(frame, seeds, config: TrainConfig, epochs: int):
    """Train one net per seed on `frame`'s prediction pairs, as one stack.

    Yields (theta, lam, sse) after each of `epochs` stacked LM
    iterations: the (R, 25) parameters, the (R,) damping and the (R,)
    SSEs, row i drawn from seeds[i]. Rejected steps count as epochs, so
    each row's SSE sequence is non-increasing.
    """
    x, t = build_training_set(frame)
    theta = init_mlp(seeds, config.init_scale)
    lam = np.full(len(seeds), config.lambda_init)
    carry = {}
    for _ in range(epochs):
        theta, lam, sse, _ = lm_epoch(theta, x, t, lam, config, carry)
        yield theta, lam, sse


def lm_iterations(frame, seed: int, config: TrainConfig, epochs: int):
    """Train one net on `frame`'s prediction pairs, drawn from `seed`: the
    stack of one of `lm_stack_iterations`.

    Yields (mlp, sse) after each of `epochs` LM iterations.
    """
    for theta, _, sse in lm_stack_iterations(frame, [seed], config, epochs):
        yield Mlp(theta[0]), float(sse[0])


def restart_seed(seed: int, restart_index: int) -> int:
    """Seed for one multistart restart; restart 0 uses the base seed."""
    return (seed ^ ((restart_index * GOLDEN_GAMMA) & MASK64)) & MASK64


def multistart_fit(frame, config: TrainConfig, seed: int, restarts) -> Mlp:
    """Train the listed restarts from seeded random initializations; keep the best.

    `restarts` is a non-empty sequence of restart indices. They run
    config.epochs LM iterations as one stack, row j seeded
    `restart_seed(seed, restarts[j])`; the winner is the row with the
    lowest final SSE on the training frame (ties go to the first listed),
    and its index is the returned net's `restart`. A row does not depend
    on the others, so the decoder's fit of `(i,)` is restart i of the
    encoder's fit of `range(config.restarts)`. The seed and each index
    go through `as_int`. A frame shorter than MIN_FRAME_LEN is refused.
    """
    seed = as_int("seed", seed)
    restarts = [as_int("restart", i) for i in restarts]
    if not restarts:
        raise ValueError("restarts must list at least one restart index")
    seeds = [restart_seed(seed, i) for i in restarts]
    for theta, _, sse in lm_stack_iterations(frame, seeds, config, config.epochs):
        pass
    finals = sse.tolist()
    best = min(range(len(finals)), key=finals.__getitem__)
    return Mlp(theta[best], restarts[best])
