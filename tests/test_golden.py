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
        "a90e12bc266066db9b169f76ed627d32e27f1b987cb48b3c060f12ccda586bf6",
        "eb5454cd82375a2ffdf4ca7571ad2a9443c23f76c6a9cf5ac741ed5e3b5a934c",
    ),
    ("ADPCMF-LPC-10", 5): (
        "73f946120f35153a2e2b3eafa2ae3dd0ca2aaa0a43decb56ad731c098f9be27c",
        "7db033fbcfdee772b5ab60d7fbd629fe56b33beee1e836252fd00b496fee71b6",
    ),
    ("ADPCMF-LPC-25", 2): (
        "bb22467779481cc832c362ebf12271e78978c88f83b82fa3bc3236f8b6e03e57",
        "91ccc2547230cc7f9864bcab3ffdf9d369a9284927b6dcd04158a8c51ca0f781",
    ),
    ("ADPCMF-LPC-25", 5): (
        "5a2a889c8d459f01c231deaa093df698e19626c904aaa5d0a7fd728ef25c714b",
        "4c31b3d87373806ffaf08bff3421ed61057ce60224b74cf5219993901c83cdd0",
    ),
    ("ADPCMF-MLP", 2): (
        "7bba24cb567e1ef81e0dee1cec67463da284501ca4d239234bc08ee7bf910776",
        "e2029d0259b2ecc8084b0140639945ee06dfc76c07e23287436bad458a431f25",
    ),
    ("ADPCMF-MLP", 5): (
        "8bab174f9eb6eb07f064182dac9f8684ca3987147a474a51bd05c72b3ed9db6a",
        "271b6d2664b104bfe32f180a4bcf69a2270a32560331d75f87cb0c5837f22c67",
    ),
    ("ADPCMB-LPC-10", 2): (
        "baac058ac59a197add62d35cc6c5e79e8e6ecb31cc83c8c004bbebc95295b9e6",
        "42024f12a00740bef1c033b26be99490a0036680e687cd5be42e06f73ab71228",
    ),
    ("ADPCMB-LPC-10", 5): (
        "d891814546abffed4b99ec027602c747b3c47b6cc6f4478a77e2a1697d757cb0",
        "fd896e7a84414f2a92cf133e8abb89710e69fe41886ff22d9b5b8e30d1960273",
    ),
    ("ADPCMB-LPC-25", 2): (
        "12952dc8fcb5b3d51c611103ac1e57219502b3d7c95e447d87e67122fe012368",
        "b9d6fb641884c3dbedbd7056cfcaa2b7da907e0e4d0e7b16b727b6fcb1850583",
    ),
    ("ADPCMB-LPC-25", 5): (
        "c8c9b5f7c5f2e331a206dd7472c731497a287adecd88f7096d78b626ecc305a3",
        "170eb6d3bc7953ce7145b6cfe9786eb3ef7dffc90665d1a74926312883c4b3c7",
    ),
    ("ADPCMB-MLP", 2): (
        "a731749d97ac63dae067969e58b40603e3bd6e7d7e080c6041b6430edca79809",
        "185ac5f8bd9a331da2a95e42c6029bae16aa7b6bc6a2ebb8756a94a4f517962d",
    ),
    ("ADPCMB-MLP", 5): (
        "e3e9abbd818cb40a5cc0b3f83247feba8b642a3cdb1c5ea61030e35e0ac3dc81",
        "15d9e61fa7054885166898757dce8ab999d1ec7f610a8e81ae8d8dd5b8dc460d",
    ),
    ("ADPCMB-HYBRID", 2): (
        "a948d4732abef75698cea3548b72e95be1ac0030a64f32f182c1bc01c9f11802",
        "e1f45d599279b807805fa16adb6375dccf0aa17f06bd36564a7654d6e93ec108",
    ),
    ("ADPCMB-HYBRID", 5): (
        "0cba1fd214580c9a7871a32791c638b7c40ec6b02151da9bf029b24ffa371580",
        "d65090ae150c8a6a26d8467cceb8c0d7877b178833fd16e2ff952bc529dbcd5a",
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
