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
        "e27cbb5a46e7e5315c82d4115c652873cdbefb886045ce7a13fd55024ec68a6c",
        "eb5454cd82375a2ffdf4ca7571ad2a9443c23f76c6a9cf5ac741ed5e3b5a934c",
    ),
    ("ADPCMF-LPC-10", 5): (
        "b58f6d8a522b866342c226891f3f56dcad000e0314ee32233474315bd85cdfb7",
        "7db033fbcfdee772b5ab60d7fbd629fe56b33beee1e836252fd00b496fee71b6",
    ),
    ("ADPCMF-LPC-25", 2): (
        "25732b17de04a3b3a8950740008b125f8f3220c972674a9208afc456dba3f127",
        "91ccc2547230cc7f9864bcab3ffdf9d369a9284927b6dcd04158a8c51ca0f781",
    ),
    ("ADPCMF-LPC-25", 5): (
        "20bb3030509460e306e294801e8cfeb2bd2f33a3014f4d7f795d8ac757bcccad",
        "4c31b3d87373806ffaf08bff3421ed61057ce60224b74cf5219993901c83cdd0",
    ),
    ("ADPCMF-MLP", 2): (
        "f4a3750e4a65e78e2b73c421c9e99e9a570ca0790ebc3b70cc8505ea914f4e22",
        "b82ee2646611de075ba6ae6904b530af3540946fd627d6cbb7656c513e3c9235",
    ),
    ("ADPCMF-MLP", 5): (
        "baebc94d62412ab4a143ee2a5a05d83b173fcb9c3a89cd1da674732a03fd0a50",
        "f2f2b5d11e23b0d6959f3468ae9b33f84f10802f095ff55e5ac809f3e2d3116c",
    ),
    ("ADPCMB-LPC-10", 2): (
        "8e52a2e02f0fbe7c3b6f0884d8440bc1124638f7d2d1386e5a918173040a389d",
        "42024f12a00740bef1c033b26be99490a0036680e687cd5be42e06f73ab71228",
    ),
    ("ADPCMB-LPC-10", 5): (
        "77483eed895b2820024b327386405a7260677fdbf3632c0953153f35acea1cc6",
        "fd896e7a84414f2a92cf133e8abb89710e69fe41886ff22d9b5b8e30d1960273",
    ),
    ("ADPCMB-LPC-25", 2): (
        "afe7ac3e554c3bf0c7dd29dfa283b4feec9ac8a1ec4539bf45d036af818d36ba",
        "b9d6fb641884c3dbedbd7056cfcaa2b7da907e0e4d0e7b16b727b6fcb1850583",
    ),
    ("ADPCMB-LPC-25", 5): (
        "5484081362280e42760b765a7162e8909769fda7647dea1078bcf908ff4db1ef",
        "170eb6d3bc7953ce7145b6cfe9786eb3ef7dffc90665d1a74926312883c4b3c7",
    ),
    ("ADPCMB-MLP", 2): (
        "3dd06daf80e11f6469ce6a005c7b86eafc20d2bedf86fcb9babd8cdd55b91e61",
        "2920918ce4f450c5bc48f50fa466c955a90dfa061867e7d4bb7e577c8db53f18",
    ),
    ("ADPCMB-MLP", 5): (
        "b66a92514bded4c7aca58481cdbef5abe628c58e39ae4f515f9a48d31d6b6dd9",
        "43eefd2d32d8c751014f94d2264bf90e14e7db0a94cbea91014a5c8402d184d9",
    ),
    ("ADPCMB-HYBRID", 2): (
        "7ca1bbabec0aa90558e21cfc950501f09a32c1b79223bbe5cb2407d9e1c51d7a",
        "b5e19b56dc560557602b688f003fae236f65ee4bbb8acde9a2e58a93327527ff",
    ),
    ("ADPCMB-HYBRID", 5): (
        "7aad090cc42706b82a233fa05e86c575f87fde128944c52e2d8243e6615b8c3f",
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
