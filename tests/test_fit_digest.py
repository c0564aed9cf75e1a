"""Fit digest: the parameters `multistart_fit` returns, beyond the golden config.

`test_golden.py` pins the codec's output at the default training config
and 200-sample frames only. This test pins the fitted parameters
themselves over the `conftest.py` corpus at frame lengths 13, 40 and 200
and (restarts, epochs) of (1, 1), (4, 6) and (7, 9): one sha256 over the
float64 bytes of every fitted `theta`, in a fixed order. A change to the
LM, the seeding or the winner rule that alters any fitted bit fails it.
If that is intended, print the new digest with
`PYTHONPATH=src python tests/test_fit_digest.py` and record why.

`SATURATED_DIGEST` pins a second set of fits on the same corpus and
frame lengths, at (restarts, epochs) of (1, 1) and (4, 6), drawn with
`init_scale=8.0`: the larger initial weights drive hidden units to
h = 1.0 exactly, where h (1 - h) is zero and the sign of each hidden
derivative follows its output weight's. (h = 0.0 needs a pre-activation
below about -745, which these fits do not reach; `test_mlp.py` builds
such stacks by hand.) Print both digests with the command above.

Over the same fits, each restart of a stacked fit must equal, bit for
bit, the one-restart fit from that restart's seed: that is the net a
decoder rebuilds from the restart index the stream carries.

Like the golden digests, it holds only for the BLAS, LAPACK and libm code
paths it was generated with (numpy 2.4 on OpenBLAS 0.3.31 with its
SkylakeX kernel, x86-64); ROADMAP open item 3 (portable bit-exactness)
is the fix.
"""

import hashlib

import numpy as np

from conftest import formant_utterance, linear_ar, nonlinear_ar, tone_noise
from nadpcm import mlp
from nadpcm.audio import split_frames
from nadpcm.mlp import TrainConfig, lm_stack_iterations, multistart_fit, restart_seed

FRAME_LENS = (13, 40, 200)
SCHEDULES = ((1, 1), (4, 6), (7, 9))  # (restarts, epochs)
FRAMES_PER_SIGNAL = 8

SATURATED_SCHEDULES = ((1, 1), (4, 6))
SATURATED_SCALE = 8.0

FIT_DIGEST = "408249281c76c4704a131931bfe8353b2f3c168772edd86d8d42ef4bdd34d005"
SATURATED_DIGEST = "fecd9d95e87c056536c9ff42ffdaff76cf171d71af44fbeeb7d95c8909b479f9"


def corpus():
    """The five `corpus` fixture signals, built directly so `__main__` can run."""
    return [formant_utterance(11, 8000), formant_utterance(29, 4000), linear_ar(5, 2000),
            nonlinear_ar(31, 3000), tone_noise(3, 2000)]


def fits(schedules=SCHEDULES, init_scale=TrainConfig.init_scale):
    """(frame, config, seed) of every pinned fit: FRAMES_PER_SIGNAL evenly
    spread frames of each signal, per frame length and schedule; frame k
    is fitted with seed k."""
    signals = corpus()
    for frame_len in FRAME_LENS:
        for signal in signals:
            frames = split_frames(signal.samples, frame_len)
            stride = max(1, len(frames) // FRAMES_PER_SIGNAL)
            for k in range(0, len(frames), stride)[:FRAMES_PER_SIGNAL]:
                for restarts, epochs in schedules:
                    config = TrainConfig(restarts=restarts, epochs=epochs, init_scale=init_scale)
                    yield frames[k], config, k


def saturated_fits():
    """The fits that `SATURATED_DIGEST` pins."""
    return fits(SATURATED_SCHEDULES, SATURATED_SCALE)


def fit_digest(pinned=fits) -> str:
    """sha256 over the thetas of every fit of `pinned()`, in order."""
    digest = hashlib.sha256()
    for frame, config, seed in pinned():
        digest.update(multistart_fit(frame, config, seed, range(config.restarts)).theta.tobytes())
    return digest.hexdigest()


def test_fit_digest():
    assert fit_digest() == FIT_DIGEST


def test_saturated_fit_digest():
    assert fit_digest(saturated_fits) == SATURATED_DIGEST


def test_saturated_fits_reach_unit_activations(monkeypatch):
    # the pinned saturated fits do run with hidden activations of exactly
    # 1.0, where h (1 - h) is a signed zero
    saturated = []
    forward_batch = mlp.forward_batch

    def counting(theta, x):
        h, y = forward_batch(theta, x)
        saturated.append(int(np.count_nonzero(h == 1.0)))
        return h, y

    monkeypatch.setattr(mlp, "forward_batch", counting)
    fit_digest(saturated_fits)
    assert sum(saturated) > 100


def assert_each_restart_is_its_own_single_fit(pinned):
    # The decoder fits only the restart the stream names, as the encoder's
    # fit given just that index; it must be bit for bit that row of the
    # encoder's stacked fit, and the winner must be the row it names.
    for frame, config, seed in pinned():
        for stacked, _, _ in lm_stack_iterations(
                frame, [restart_seed(seed, i) for i in range(config.restarts)],
                config, config.epochs):
            pass
        for i in range(config.restarts):
            alone = multistart_fit(frame, config, seed, (i,))
            assert alone.theta.tobytes() == stacked[i].tobytes(), (len(frame), config, seed, i)
        winner = multistart_fit(frame, config, seed, range(config.restarts))
        np.testing.assert_array_equal(winner.theta, stacked[winner.restart])


def test_each_restart_is_its_own_single_fit():
    assert_each_restart_is_its_own_single_fit(fits)


def test_each_saturated_restart_is_its_own_single_fit():
    assert_each_restart_is_its_own_single_fit(saturated_fits)


if __name__ == "__main__":
    print(fit_digest())
    print(fit_digest(saturated_fits))
