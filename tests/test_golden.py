"""Golden digests: the wire format and decoded output of every method.

Each case encodes the same short utterance, read from
`tests/data/golden_signal.f64` (`formant_utterance(11, 1100)`, checked
against its generator by `test_inputs.py`), with the default config for
one method and bit depth, and pins the sha256 of the serialized stream
and of the decoded float64 samples. A change that alters either digest
changes the codec's output; if that is intended, regenerate the table
with `PYTHONPATH=src python tests/test_golden.py` and record why.

Every digest, LPC included, holds only for the OpenBLAS kernel and the
libm code path it was generated with (numpy 2.4 on OpenBLAS 0.3.31 with
its SkylakeX kernel, x86-64): `lpc.autocorrelation` uses `np.dot`, the
MLP fit uses BLAS/LAPACK and numpy's `exp`, and the closed loop's
sigmoid uses libm `exp`. Under `OPENBLAS_CORETYPE=Haswell` all 14 cases
fail. ROADMAP open item 3 (portable bit-exactness) is the fix.
"""

import hashlib

import numpy as np
import pytest

from conftest import read_input
from nadpcm import CodecConfig, decode, encode, parse, serialize
from nadpcm.harness import METHODS

# 1100 samples: five full 200-sample frames and one padded partial frame.
SIGNAL_SEED, SIGNAL_LEN = 11, 1100
SIGNAL_SHA256 = "2b83882caf48b1050e83433a16eb0878e0e6e5981c39433e5d03597b2824b580"

GOLDEN = {
    ("ADPCMF-LPC-10", 2): (
        "a61f7188c7f058330a1641a9fd55daa2b18f1cbe76fbc73cd657ef427477f290",
        "eb5454cd82375a2ffdf4ca7571ad2a9443c23f76c6a9cf5ac741ed5e3b5a934c",
    ),
    ("ADPCMF-LPC-10", 5): (
        "f39fede9b8942b755c2e0bbdc3cad77f92696eb861b784ce7b8f04c3041f29c7",
        "7db033fbcfdee772b5ab60d7fbd629fe56b33beee1e836252fd00b496fee71b6",
    ),
    ("ADPCMF-LPC-25", 2): (
        "614cceda8918d83d206a6b75581f3532024262ce7bbfee92c31ac0eb0f678833",
        "91ccc2547230cc7f9864bcab3ffdf9d369a9284927b6dcd04158a8c51ca0f781",
    ),
    ("ADPCMF-LPC-25", 5): (
        "117505b093f47034a122d660cdbad40f5697680232aeb293f652a6e890052123",
        "4c31b3d87373806ffaf08bff3421ed61057ce60224b74cf5219993901c83cdd0",
    ),
    ("ADPCMF-MLP", 2): (
        "987167f4aaca3714c3048eee8db3414a0c65a888111213ab78085b81156b9291",
        "6eb684718d004fac8747c369b99bad03b397b281e8f98c2ca82d61899a1e9d76",
    ),
    ("ADPCMF-MLP", 5): (
        "ccc7c133c4be3487a69b23110e973e528fe9e56b29488398becbedb724bb85ca",
        "2dfba97acb901bfcbbe9e8ab124582cfb1820cd3a5395c797501bb6e3f9db297",
    ),
    ("ADPCMB-LPC-10", 2): (
        "c89add85d705ef5ed0b044318814c1188bb2bc91b124d07bbac7945c2f26e7d3",
        "42024f12a00740bef1c033b26be99490a0036680e687cd5be42e06f73ab71228",
    ),
    ("ADPCMB-LPC-10", 5): (
        "e1e0cd78da52ed39ca1b49d0617c8ea6813b41317ab5b61c340d6c8de44b9370",
        "fd896e7a84414f2a92cf133e8abb89710e69fe41886ff22d9b5b8e30d1960273",
    ),
    ("ADPCMB-LPC-25", 2): (
        "4167c1413674436ada5e65b9d4ebe8881a89ef15694740b7fd0ffe499cdf2f20",
        "b9d6fb641884c3dbedbd7056cfcaa2b7da907e0e4d0e7b16b727b6fcb1850583",
    ),
    ("ADPCMB-LPC-25", 5): (
        "18bd1487df55f1cf621e1af994b66613c32d97bcbe586ebe6c8a9a93af12ed11",
        "170eb6d3bc7953ce7145b6cfe9786eb3ef7dffc90665d1a74926312883c4b3c7",
    ),
    ("ADPCMB-MLP", 2): (
        "7286bd60afe8133269e882e6664ae8e1203d3e6c81c22217e6402af2987ff784",
        "855506b484b1d7bd92eb2416864c5cfdc7c0e49f4696ec7d394c52318bf3ce1e",
    ),
    ("ADPCMB-MLP", 5): (
        "bb407b93caf3f81d97b1a449bec80a3e94d2cb909125ed41e1b48783fda1664f",
        "cbfe77acd5405c80e4717ea31ef587cc4abb9e394da6b45a3419596f309b25ba",
    ),
    ("ADPCMB-HYBRID", 2): (
        "77f09ca5fea034dde95063d1ad5930aec29f763e3142feda00b611da98057b02",
        "af8d6be5b73a9514e63430eefdabc5fcc491f1799b40553e306dab6bcdf56b16",
    ),
    ("ADPCMB-HYBRID", 5): (
        "83c57d67b6ef836be44f2b7d53cf20321f118299fbee950cccfb278003fa305c",
        "5520a8d9a6f2f53457d27658962ee106658671cedc19d9ead1b184b9c2f5b60f",
    ),
}


def read_signal():
    """The golden utterance, from its checked-in file."""
    [signal] = read_input("golden_signal.f64", SIGNAL_SHA256)
    return signal


def golden_case(method, bits):
    kind, adaptation = METHODS[method]
    config = CodecConfig(bits=bits, predictor_kind=kind, adaptation=adaptation)
    result = encode(read_signal(), config)
    stream = serialize(result.bitstream)
    decoded = decode(parse(stream))
    return result, stream, decoded


def digests(stream, decoded):
    samples = np.ascontiguousarray(decoded.samples, dtype="<f8").tobytes()
    return hashlib.sha256(stream).hexdigest(), hashlib.sha256(samples).hexdigest()


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("bits", [2, 5])
def test_golden_digests(method, bits):
    result, stream, decoded = golden_case(method, bits)
    np.testing.assert_array_equal(decoded.samples, result.reconstruction.samples)
    assert digests(stream, decoded) == GOLDEN[method, bits]


if __name__ == "__main__":
    print("GOLDEN = {")
    for method in METHODS:
        for bits in (2, 5):
            _, stream, decoded = golden_case(method, bits)
            stream_hex, samples_hex = digests(stream, decoded)
            print(f'    ("{method}", {bits}): (\n        "{stream_hex}",\n'
                  f'        "{samples_hex}",\n    ),')
    print("}")
