"""Fit digest: the parameters `multistart_fit` returns, beyond the golden config.

`test_golden.py` pins the codec's output at the default training config
and 200-sample frames only. This test pins the fitted parameters
themselves over the `conftest.py` corpus at frame lengths 13, 40 and 200
and (restarts, epochs) of (1, 1), (4, 6) and (7, 9): one sha256 over the
float64 bytes of every fitted `theta`, in a fixed order. A change to the
LM, the seeding or the winner rule that alters any fitted bit fails it.
If that is intended, print the new digest with
`PYTHONPATH=src python tests/test_fit_digest.py` and record why.

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
from nadpcm.audio import split_frames
from nadpcm.mlp import TrainConfig, lm_stack_iterations, multistart_fit, restart_seed

FRAME_LENS = (13, 40, 200)
SCHEDULES = ((1, 1), (4, 6), (7, 9))  # (restarts, epochs)
FRAMES_PER_SIGNAL = 8

FIT_DIGEST = "e76d6c929d205cceaa3af14304af47c86182309c847e64bf11c1297efdc9a37a"


def corpus():
    """The five `corpus` fixture signals, built directly so `__main__` can run."""
    return [formant_utterance(11, 8000), formant_utterance(29, 4000), linear_ar(5, 2000),
            nonlinear_ar(31, 3000), tone_noise(3, 2000)]


def fits():
    """(frame, config, seed) of every pinned fit: FRAMES_PER_SIGNAL evenly
    spread frames of each signal, per frame length and schedule; frame k
    is fitted with seed k."""
    signals = corpus()
    for frame_len in FRAME_LENS:
        for signal in signals:
            frames = split_frames(signal.samples, frame_len)
            stride = max(1, len(frames) // FRAMES_PER_SIGNAL)
            for k in range(0, len(frames), stride)[:FRAMES_PER_SIGNAL]:
                for restarts, epochs in SCHEDULES:
                    yield frames[k], TrainConfig(restarts=restarts, epochs=epochs), k


def fit_digest() -> str:
    """sha256 over the thetas of every fit of `fits`, in order."""
    digest = hashlib.sha256()
    for frame, config, seed in fits():
        digest.update(multistart_fit(frame, config, seed, range(config.restarts)).theta.tobytes())
    return digest.hexdigest()


def test_fit_digest():
    assert fit_digest() == FIT_DIGEST


def test_each_restart_is_its_own_single_fit():
    # The decoder fits only the restart the stream names, as the encoder's
    # fit given just that index; it must be bit for bit that row of the
    # encoder's stacked fit, and the winner must be the row it names.
    for frame, config, seed in fits():
        for stacked, _, _ in lm_stack_iterations(
                frame, [restart_seed(seed, i) for i in range(config.restarts)],
                config, config.epochs):
            pass
        for i in range(config.restarts):
            alone = multistart_fit(frame, config, seed, (i,))
            assert alone.theta.tobytes() == stacked[i].tobytes(), (len(frame), config, seed, i)
        winner = multistart_fit(frame, config, seed, range(config.restarts))
        np.testing.assert_array_equal(winner.theta, stacked[winner.restart])


if __name__ == "__main__":
    print(fit_digest())
