"""The checked-in inputs of the pinned digests match their generators.

`test_golden.py`, `test_fit_digest.py` and `test_portability.py` read
their signals from raw little-endian float64 files under `tests/data/`,
written once from the `conftest.py` generators, so a digest there does
not depend on the host's libm. The test below is the only check that
depends on the generators. Write the files again with
`PYTHONPATH=src python tests/test_inputs.py`, then update the sha256
each digest test holds.
"""

import hashlib

import pytest

from conftest import DATA, formant_utterance, linear_ar, nonlinear_ar, tone_noise
from test_fit_digest import read_corpus
from test_golden import SIGNAL_LEN, SIGNAL_SEED, read_signal

# each file, as the generator calls whose samples it holds, in order, and its reader
INPUTS = {
    "golden_signal.f64": (lambda: [formant_utterance(SIGNAL_SEED, SIGNAL_LEN)],
                          lambda: [read_signal()]),
    "fit_corpus.f64": (lambda: [formant_utterance(11, 8000), formant_utterance(29, 4000),
                                linear_ar(5, 2000), nonlinear_ar(31, 3000), tone_noise(3, 2000)],
                       read_corpus),
}


def as_bytes(signals) -> list:
    return [s.samples.astype("<f8").tobytes() for s in signals]


@pytest.mark.parametrize("name", list(INPUTS))
def test_generators_still_give_the_checked_in_input(name):
    generate, read = INPUTS[name]
    assert as_bytes(generate()) == as_bytes(read()), (
        f"the conftest.py generators no longer give tests/data/{name} on this host; "
        "the pinned digests read the file, and this is the only check that depends "
        "on the generators")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, (generate, _) in INPUTS.items():
        data = b"".join(as_bytes(generate()))
        (DATA / name).write_bytes(data)
        print(name, hashlib.sha256(data).hexdigest())
