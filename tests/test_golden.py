"""Golden digests: the wire format and decoded output of every method.

Each case encodes the same short utterance with the default config for
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

from conftest import formant_utterance
from nadpcm import CodecConfig, decode, encode, parse, serialize
from nadpcm.harness import METHODS

# 1100 samples: five full 200-sample frames and one padded partial frame.
SIGNAL_SEED, SIGNAL_LEN = 11, 1100

GOLDEN = {
    ("ADPCMF-LPC-10", 2): (
        "e533323b1f1c20f5ffad492a259ac3fd5296ad54a3747d27abd7d904b0d9bea3",
        "eb5454cd82375a2ffdf4ca7571ad2a9443c23f76c6a9cf5ac741ed5e3b5a934c",
    ),
    ("ADPCMF-LPC-10", 5): (
        "9ef75dcd79dd6fb44662b310f19a39330f2d7b5409e6c7dced56e8895567ffeb",
        "7db033fbcfdee772b5ab60d7fbd629fe56b33beee1e836252fd00b496fee71b6",
    ),
    ("ADPCMF-LPC-25", 2): (
        "839d9a5ba503703e479632a29180616a94c6db5293bbe953f49beb5944799cda",
        "91ccc2547230cc7f9864bcab3ffdf9d369a9284927b6dcd04158a8c51ca0f781",
    ),
    ("ADPCMF-LPC-25", 5): (
        "f0d7532963d802fa544050dad2807aea2314691217f3aadc0efdc5eb5a73d4c1",
        "4c31b3d87373806ffaf08bff3421ed61057ce60224b74cf5219993901c83cdd0",
    ),
    ("ADPCMF-MLP", 2): (
        "a3dd251b2395857375dff5159fba39db1860a7ea1803749af0c472ad0b720bfe",
        "e2029d0259b2ecc8084b0140639945ee06dfc76c07e23287436bad458a431f25",
    ),
    ("ADPCMF-MLP", 5): (
        "a5eb11858b924e00706c5c5dbcf292c468020934f8573480130e41ea9bacb4f8",
        "271b6d2664b104bfe32f180a4bcf69a2270a32560331d75f87cb0c5837f22c67",
    ),
    ("ADPCMB-LPC-10", 2): (
        "263034b12529f5023c7b588a0a37afbdb6e4aeaed94337129544f1368f0ad86a",
        "42024f12a00740bef1c033b26be99490a0036680e687cd5be42e06f73ab71228",
    ),
    ("ADPCMB-LPC-10", 5): (
        "2739f9ab55eeaa18283e52b3ed8d2b021ba690e2c6eb276a8a7a09aa73d77097",
        "fd896e7a84414f2a92cf133e8abb89710e69fe41886ff22d9b5b8e30d1960273",
    ),
    ("ADPCMB-LPC-25", 2): (
        "1fa8e8ea620c589f48838d16b2a00e9c132c26a7c2a018a01dee010de3e7d64d",
        "b9d6fb641884c3dbedbd7056cfcaa2b7da907e0e4d0e7b16b727b6fcb1850583",
    ),
    ("ADPCMB-LPC-25", 5): (
        "fffa51669c62ca7570c8d32d8bd22e71716d44ec80b9f027f573d9bc99305447",
        "170eb6d3bc7953ce7145b6cfe9786eb3ef7dffc90665d1a74926312883c4b3c7",
    ),
    ("ADPCMB-MLP", 2): (
        "6e13c4122410f15e4bccb97244ece8043ae32dd77ada92789dae726d75c1c2b2",
        "185ac5f8bd9a331da2a95e42c6029bae16aa7b6bc6a2ebb8756a94a4f517962d",
    ),
    ("ADPCMB-MLP", 5): (
        "e8f52b219aa43be173044a126739b14b74141bc6116aa8e4db6710fb1dfb2ff5",
        "15d9e61fa7054885166898757dce8ab999d1ec7f610a8e81ae8d8dd5b8dc460d",
    ),
    ("ADPCMB-HYBRID", 2): (
        "a2749bf85bce8a93b4ce058855f11060046200fb1297791e303391f8f4560e81",
        "e1f45d599279b807805fa16adb6375dccf0aa17f06bd36564a7654d6e93ec108",
    ),
    ("ADPCMB-HYBRID", 5): (
        "967d348f845233e8b41ae92afc304e2656507264ed50f988cac767175d7211c6",
        "d65090ae150c8a6a26d8467cceb8c0d7877b178833fd16e2ff952bc529dbcd5a",
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
