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
"""

import logging
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

log = logging.getLogger(__name__)

N_INPUTS = 10
N_HIDDEN = 2
N_PARAMS = N_INPUTS * N_HIDDEN + N_HIDDEN + N_HIDDEN + 1
MIN_FRAME_LEN = N_INPUTS + 1  # shortest frame that yields a training pair

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def as_float(value):
    """A real number as a Python float, anything else unchanged for the
    config checks to refuse. Real config fields are stored this way: the
    header carries them as binary64, while a numpy scalar left in place
    would compute in its own precision (float32 stays float32) in the
    coding loop and the fit."""
    return float(value) if isinstance(value, numbers.Real) else value


class SplitMix64:
    """SplitMix64 generator; the full sequence is determined by the seed."""

    def __init__(self, seed: int):
        self.state = operator.index(seed) & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform draw in [lo, hi) from the top 53 bits of the next output."""
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        frac = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * frac


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
            value = getattr(self, name)
            if type(value) is not int and not isinstance(value, np.integer):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, int(value))
        for name in ("lambda_init", "lambda_up", "lambda_down", "init_scale"):
            value = as_float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Mlp:
    """10x2x1 perceptron: sigmoid hidden layer, linear output.

    `theta` holds the 25 parameters in the normative order and is the
    whole model; `w_in` (2, 10), `b_hid` (2,) and `w_out` (2,) are
    read-only views of it, and `b_out` is its last entry as a float.
    """

    theta: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64)
        if theta.shape != (N_PARAMS,):
            raise ValueError(f"need {N_PARAMS} parameters, got {theta.shape}")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "w_in", theta[:20].reshape(N_HIDDEN, N_INPUTS))
        object.__setattr__(self, "b_hid", theta[20:22])
        object.__setattr__(self, "w_out", theta[22:24])
        object.__setattr__(self, "b_out", float(theta[24]))

    @classmethod
    def zero(cls) -> "Mlp":
        """All-zero net; predicts 0.0 for any input (zero output weights)."""
        return cls(np.zeros(N_PARAMS))

    def forward(self, inputs) -> float:
        """Output for one input vector of the 10 most recent samples, newest first."""
        x = np.asarray(inputs, dtype=np.float64)
        h = expit(self.w_in @ x + self.b_hid)
        return float(self.w_out @ h + self.b_out)

    def forward_batch(self, x: np.ndarray):
        """Hidden activations (N, 2) and outputs (N,) for an (N, 10) input matrix."""
        h = expit(x @ self.w_in.T + self.b_hid)
        return h, h @ self.w_out + self.b_out

    def predict(self, history) -> float:
        """Predict the next sample from reconstructed history, newest last."""
        if len(history) < N_INPUTS:
            raise ValueError(f"history of {len(history)} too short for {N_INPUTS} inputs")
        return self.forward(history[-1 : -N_INPUTS - 1 : -1])


def init_mlp(rng: SplitMix64, scale: float) -> Mlp:
    """Draw all 25 parameters uniformly in [-scale, scale), in normative order."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    return Mlp([rng.uniform(-scale, scale) for _ in range(N_PARAMS)])


def build_training_set(frame):
    """One-step prediction pairs from within a single frame.

    For each n >= 10: inputs are the 10 preceding samples (newest first)
    and the target is frame[n]. Frames shorter than 11 samples yield an
    empty set.
    """
    frame = np.asarray(frame, dtype=np.float64)
    n = len(frame)
    if n < MIN_FRAME_LEN:
        log.debug("frame of %d samples too short for training pairs", n)
        return np.zeros((0, N_INPUTS)), np.zeros(0)
    count = n - N_INPUTS
    x = np.empty((count, N_INPUTS))
    for lag in range(1, N_INPUTS + 1):
        x[:, lag - 1] = frame[N_INPUTS - lag : n - lag]
    t = frame[N_INPUTS:].copy()
    return x, t


def residual_jacobian(mlp: Mlp, x: np.ndarray, t: np.ndarray):
    """Residuals r = t - y and their analytic Jacobian dr/dtheta.

    Columns follow the normative parameter order. Hidden derivatives use
    the logistic identity sigma' = sigma (1 - sigma).
    """
    h, y = mlp.forward_batch(x)              # (N, 2), (N,)
    r = t - y
    dy_dz = h * (1.0 - h) * mlp.w_out        # (N, 2)
    jac = np.empty((len(t), N_PARAMS))
    # input weights, row-major over hidden units
    for j in range(N_HIDDEN):
        jac[:, j * N_INPUTS : (j + 1) * N_INPUTS] = dy_dz[:, j : j + 1] * x
    jac[:, 20:22] = dy_dz                    # hidden biases
    jac[:, 22:24] = h                        # output weights
    jac[:, 24] = 1.0                         # output bias
    np.negative(jac, out=jac)                # d r / d theta = -(d y / d theta)
    return jac, r


def lm_epoch(mlp: Mlp, x: np.ndarray, t: np.ndarray, lam: float, config: TrainConfig):
    """One full-batch Levenberg-Marquardt iteration with accept/reject damping.

    Returns (mlp', lambda', sse_of_returned_params, accepted). A rejected
    or singular step leaves the parameters unchanged and raises lambda.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    jac, r = residual_jacobian(mlp, x, t)
    sse0 = float(r @ r)
    lhs = jac.T @ jac + lam * np.eye(N_PARAMS)
    rhs = jac.T @ r
    try:
        delta = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        delta = None
    if delta is not None and np.all(np.isfinite(delta)):
        # r decreases along -(J^T J + lam I)^-1 J^T r since jac is d r/d theta.
        candidate = Mlp(mlp.theta - delta)
        r1 = t - candidate.forward_batch(x)[1]
        sse1 = float(r1 @ r1)
        if sse1 < sse0:
            return candidate, lam * config.lambda_down, sse1, True
    return mlp, lam * config.lambda_up, sse0, False


def lm_iterations(frame, seed: int, config: TrainConfig, epochs: int):
    """Train one net on `frame`'s prediction pairs, drawn from `seed`.

    Yields (mlp, sse) after each of `epochs` LM iterations, threading
    lambda. Rejected steps count as epochs, so the SSE sequence is
    non-increasing. A frame shorter than MIN_FRAME_LEN yields nothing.
    """
    x, t = build_training_set(frame)
    if len(t) == 0:
        return
    mlp = init_mlp(SplitMix64(seed), config.init_scale)
    lam = config.lambda_init
    for _ in range(epochs):
        mlp, lam, err, _ = lm_epoch(mlp, x, t, lam, config)
        yield mlp, err


def restart_seed(seed: int, restart_index: int) -> int:
    """Seed for one multistart restart; restart 0 uses the base seed."""
    return (seed ^ ((restart_index * GOLDEN_GAMMA) & MASK64)) & MASK64


def multistart_fit(frame, config: TrainConfig, seed: int) -> Mlp:
    """Train from several seeded random initializations and keep the best.

    Each restart runs config.epochs LM iterations; the winner is the
    restart with the lowest final SSE on the training frame (ties break
    to the lowest restart index). Frames too short to form training
    pairs yield the zero-output net.
    """
    if len(frame) < MIN_FRAME_LEN:
        log.debug("multistart on short frame (%d samples): zero predictor", len(frame))
        return Mlp.zero()
    finals = [list(lm_iterations(frame, restart_seed(seed, i), config, config.epochs))[-1]
              for i in range(config.restarts)]
    return min(finals, key=lambda final: final[1])[0]
