"""Golden digests: the wire format and decoded output of every method.

Each case encodes the same short utterance with the default config for
one method and bit depth, and pins the sha256 of the serialized stream
and of the decoded float64 samples. A change that alters either digest
changes the codec's output; if that is intended, regenerate the table
with `PYTHONPATH=src python tests/test_golden.py` and record why.

Every digest, LPC included, holds only for the OpenBLAS kernel and the
libm code path it was generated with (numpy 2.4 on OpenBLAS 0.3.31 with
its SkylakeX kernel, x86-64): `lpc.autocorrelation` uses `np.dot`, the
MLP fit uses BLAS/LAPACK, and the sigmoid uses libm `exp`. Under
`OPENBLAS_CORETYPE=Haswell` all 14 cases fail. ROADMAP open item 1
(portable bit-exactness) is the fix.
"""

import hashlib

import numpy as np
import pytest

from conftest import formant_utterance
from nadpcm import CodecConfig, decode, encode, parse, serialize
from nadpcm.harness import METHODS

# 1100 samples: five full 200-sample frames and one padded partial frame.
SIGNAL_SEED, SIGNAL_LEN = 11, 1100

GOLDEN = {
    ("ADPCMF-LPC-10", 2): (
        "3e77abece6955b25b661b5c76ed947b918492e1caef1949412d4ccec729c246e",
        "eb5454cd82375a2ffdf4ca7571ad2a9443c23f76c6a9cf5ac741ed5e3b5a934c",
    ),
    ("ADPCMF-LPC-10", 5): (
        "f0615c78dd420104872fa7119c4a8878454a095760e37ff7522ed2f7818c12ac",
        "7db033fbcfdee772b5ab60d7fbd629fe56b33beee1e836252fd00b496fee71b6",
    ),
    ("ADPCMF-LPC-25", 2): (
        "f70daa789655312b422c4f388f57cd134e37ffa210df412bfd4aabb2400f622a",
        "91ccc2547230cc7f9864bcab3ffdf9d369a9284927b6dcd04158a8c51ca0f781",
    ),
    ("ADPCMF-LPC-25", 5): (
        "3659572a67a037cce11c06b8f1a900f0766837d1abcabfcdd41e645c0271e860",
        "4c31b3d87373806ffaf08bff3421ed61057ce60224b74cf5219993901c83cdd0",
    ),
    ("ADPCMF-MLP", 2): (
        "1b8c50cde39ccafacc7039ec253b185d5e6c2fdd06f57884695861fc9d21de5f",
        "b82ee2646611de075ba6ae6904b530af3540946fd627d6cbb7656c513e3c9235",
    ),
    ("ADPCMF-MLP", 5): (
        "240074e0a314b2587525d5440af2f4a4973f1ef3f188afcaf47664ff6797504e",
        "f2f2b5d11e23b0d6959f3468ae9b33f84f10802f095ff55e5ac809f3e2d3116c",
    ),
    ("ADPCMB-LPC-10", 2): (
        "277eaad39dbb6a9b695b6c9dcac24e3783022fbff9a530fe52befce8837e4402",
        "42024f12a00740bef1c033b26be99490a0036680e687cd5be42e06f73ab71228",
    ),
    ("ADPCMB-LPC-10", 5): (
        "2a1e350e3bd9a905138389f941686dcaad7f0d6779213942ad87eb6be5197891",
        "fd896e7a84414f2a92cf133e8abb89710e69fe41886ff22d9b5b8e30d1960273",
    ),
    ("ADPCMB-LPC-25", 2): (
        "70baae974488c0a24da71555cb7c48c1415e668072c7a2febc2b3523ee9cd087",
        "b9d6fb641884c3dbedbd7056cfcaa2b7da907e0e4d0e7b16b727b6fcb1850583",
    ),
    ("ADPCMB-LPC-25", 5): (
        "e7bd244e1b23e588537dd5d38d0a2ec8a79b6e497584ef3f0b688c61b7cdc7a5",
        "170eb6d3bc7953ce7145b6cfe9786eb3ef7dffc90665d1a74926312883c4b3c7",
    ),
    ("ADPCMB-MLP", 2): (
        "979108251d9a83c4c2d9dc2c216363b500aaa76bc3d5739e38f95cf538997ef9",
        "2920918ce4f450c5bc48f50fa466c955a90dfa061867e7d4bb7e577c8db53f18",
    ),
    ("ADPCMB-MLP", 5): (
        "b7c9eaed90fe09c7afd3ee00395a3de4796c3267cef5dd911cb2c09b2e4f3144",
        "43eefd2d32d8c751014f94d2264bf90e14e7db0a94cbea91014a5c8402d184d9",
    ),
    ("ADPCMB-HYBRID", 2): (
        "323abad02bc215f77882eee56ff9445571288264983547a808f15ead6bdbe99f",
        "b5e19b56dc560557602b688f003fae236f65ee4bbb8acde9a2e58a93327527ff",
    ),
    ("ADPCMB-HYBRID", 5): (
        "aae67c595cfc1a6be50e349b8c9c932257627d3686e5a007494a955b38142544",
        "1fcf4173da67b2a4f6647b40c2b81d374fd2d1514249ab141dab8a8e05faa2f8",
    ),
}


def golden_case(method, bits):
    kind, adaptation = METHODS[method]
    config = CodecConfig(bits=bits, predictor_kind=kind, adaptation=adaptation)
    result = encode(formant_utterance(SIGNAL_SEED, SIGNAL_LEN), config)
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
