"""Fit digest: the parameters `multistart_fit` returns, beyond the golden config.

`test_golden.py` pins the codec's output at its fixed epoch and restart
counts (`mlp.EPOCHS`, `mlp.RESTARTS`) and 200-sample frames only. This test pins the fitted parameters
themselves over the `conftest.py` corpus, read from
`tests/data/fit_corpus.f64` (checked against its generators by
`test_inputs.py`), at frame lengths 13, 40 and 200 and (restarts, epochs)
of (1, 1), (4, 6) and (7, 9): one sha256 over the float64 bytes of every
fitted `theta`, in a fixed order. A change to the
LM, the seeding or the winner rule that alters any fitted bit fails it.
If that is intended, print the new digest with
`PYTHONPATH=src python tests/test_fit_digest.py` and record why.

`SATURATED_DIGEST` pins a second set of fits on the same corpus and
frame lengths, at (restarts, epochs) of (1, 1) and (4, 6), drawn with
`mlp.INIT_SCALE` patched to 8.0: the larger initial weights drive hidden units to
h = 1.0 exactly, where h (1 - h) is zero and the sign of each hidden
derivative follows its output weight's. (h = 0.0 needs a pre-activation
below about -745, which these fits do not reach; `test_mlp.py` builds
such stacks by hand.) Print both digests with the command above.

Over the same fits, each row of a stacked fit must equal, bit for bit,
the one-row fit from that row's seed, and the returned net must be the
row with the lowest final SSE: a row does not depend on the rows beside
it (ROADMAP item 8 codes every row, and C04 checks the LM per row).

Like the golden digests, it holds only for the BLAS, LAPACK and libm code
paths it was generated with (numpy 2.4 on OpenBLAS 0.3.31 with its
SkylakeX kernel, x86-64); ROADMAP open item 3 (portable bit-exactness)
is the fix.
"""

import contextlib
import hashlib

import numpy as np
import pytest

from conftest import read_input
from nadpcm import mlp
from nadpcm.audio import split_frames
from nadpcm.mlp import lm_stack_iterations, multistart_fit, restart_seed

FRAME_LENS = (13, 40, 200)
SCHEDULES = ((1, 1), (4, 6), (7, 9))  # (restarts, epochs)
FRAMES_PER_SIGNAL = 8

SATURATED_SCHEDULES = ((1, 1), (4, 6))
SATURATED_SCALE = 8.0

# the five `corpus` fixture signals, end to end in fixture order
CORPUS_SHA256 = "6580718340e8d3b890ae543cb992301ab0e2abfaf4a1b363d99db6115e7c5847"
CORPUS_LENGTHS = (8000, 4000, 2000, 3000, 2000)

FIT_DIGEST = "d13a97acfa4b2571ef74e27acd98b603162c59a66262db82f8bf469048fe20fa"
SATURATED_DIGEST = "05e737cc819c6690d567402945223de76fafd39bd37c2f1306e873a02a823f5e"


def read_corpus():
    """The five `corpus` fixture signals, from their checked-in file."""
    return read_input("fit_corpus.f64", CORPUS_SHA256, CORPUS_LENGTHS)


def fits(schedules=SCHEDULES):
    """(frame, restarts, epochs, seed) of every pinned fit: FRAMES_PER_SIGNAL
    evenly spread frames of each signal, per frame length and schedule;
    frame k is fitted with seed k."""
    signals = read_corpus()
    for frame_len in FRAME_LENS:
        for signal in signals:
            frames = split_frames(signal.samples, frame_len)
            stride = max(1, len(frames) // FRAMES_PER_SIGNAL)
            for k in range(0, len(frames), stride)[:FRAMES_PER_SIGNAL]:
                for restarts, epochs in schedules:
                    yield frames[k], restarts, epochs, k


def saturated_fits():
    """The fits that `SATURATED_DIGEST` pins; run them with `mlp.INIT_SCALE`
    patched to SATURATED_SCALE (`saturated_scale`)."""
    return fits(SATURATED_SCHEDULES)


@contextlib.contextmanager
def saturated_scale():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mlp, "INIT_SCALE", SATURATED_SCALE)
        yield


def fit_digest(pinned=fits) -> str:
    """sha256 over the thetas of every fit of `pinned()`, in order."""
    digest = hashlib.sha256()
    for frame, restarts, epochs, seed in pinned():
        digest.update(multistart_fit(frame, epochs, seed, restarts).theta.tobytes())
    return digest.hexdigest()


def test_fit_digest():
    assert fit_digest() == FIT_DIGEST


def test_saturated_fit_digest():
    with saturated_scale():
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
    with saturated_scale():
        fit_digest(saturated_fits)
    assert sum(saturated) > 100


def assert_each_restart_is_its_own_single_fit(pinned):
    # Each row of the stacked fit is, bit for bit, the fit of its seed
    # alone, and the fit returns the first row of lowest final SSE.
    for frame, restarts, epochs, seed in pinned():
        seeds = [restart_seed(seed, i) for i in range(restarts)]
        for stacked, _, sse in lm_stack_iterations(frame, seeds, epochs):
            pass
        for i in range(restarts):
            for alone, _, _ in lm_stack_iterations(frame, seeds[i : i + 1], epochs):
                pass
            assert alone.tobytes() == stacked[i].tobytes(), (len(frame), epochs, seed, i)
        winner = multistart_fit(frame, epochs, seed, restarts)
        np.testing.assert_array_equal(winner.theta, stacked[int(np.argmin(sse))])


def test_each_restart_is_its_own_single_fit():
    assert_each_restart_is_its_own_single_fit(fits)


def test_each_saturated_restart_is_its_own_single_fit():
    with saturated_scale():
        assert_each_restart_is_its_own_single_fit(saturated_fits)


if __name__ == "__main__":
    print(fit_digest())
    with saturated_scale():
        print(fit_digest(saturated_fits))
