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
        "6743125c0d895c8682214121984236d3703e8b00cac612c4d76f7bd47191299e",
        "eb5454cd82375a2ffdf4ca7571ad2a9443c23f76c6a9cf5ac741ed5e3b5a934c",
    ),
    ("ADPCMF-LPC-10", 5): (
        "332f92c227b307765ecd661d036559b403acfec14593a1c22d4ac79e910eaa9d",
        "7db033fbcfdee772b5ab60d7fbd629fe56b33beee1e836252fd00b496fee71b6",
    ),
    ("ADPCMF-LPC-25", 2): (
        "e436eb97381c8e1a54705337266faed60a0bf95e57e4d6080735679bcbaa669f",
        "91ccc2547230cc7f9864bcab3ffdf9d369a9284927b6dcd04158a8c51ca0f781",
    ),
    ("ADPCMF-LPC-25", 5): (
        "42bc4a3c5f3ddbee136bcb3d87191ef1fa9e7ecd02841f2a8a4cbacb46bafd85",
        "4c31b3d87373806ffaf08bff3421ed61057ce60224b74cf5219993901c83cdd0",
    ),
    ("ADPCMF-MLP", 2): (
        "6d4386e416eb86bcd46039067a8dae6de0fa495de6470a1f8761ec15e528da80",
        "e2029d0259b2ecc8084b0140639945ee06dfc76c07e23287436bad458a431f25",
    ),
    ("ADPCMF-MLP", 5): (
        "fcbfe666aeb24f75cb076baa65ea6cbeb8cce0bf2a3590382c07ced078c5e9a1",
        "271b6d2664b104bfe32f180a4bcf69a2270a32560331d75f87cb0c5837f22c67",
    ),
    ("ADPCMB-LPC-10", 2): (
        "aaa9aeff87fae95671f54e58b1c9c1c4ff1b3703e99b1e52dcc90cc31b5732a9",
        "42024f12a00740bef1c033b26be99490a0036680e687cd5be42e06f73ab71228",
    ),
    ("ADPCMB-LPC-10", 5): (
        "5e133547e2e76ada634a2614ed09d23a01cf149edd82111b216ee52d734475e4",
        "fd896e7a84414f2a92cf133e8abb89710e69fe41886ff22d9b5b8e30d1960273",
    ),
    ("ADPCMB-LPC-25", 2): (
        "37ac57725d912c6cef378d2cc124fc5d25b8742fa0c2003717a3485ba8e251f2",
        "b9d6fb641884c3dbedbd7056cfcaa2b7da907e0e4d0e7b16b727b6fcb1850583",
    ),
    ("ADPCMB-LPC-25", 5): (
        "3ffe2458bb0f9d4ab9b6195e622d2b94870b1be1b3dec760cb9e7f9c904a1484",
        "170eb6d3bc7953ce7145b6cfe9786eb3ef7dffc90665d1a74926312883c4b3c7",
    ),
    ("ADPCMB-MLP", 2): (
        "6c191cb68511e4748f542c6781a500901ccb2f829bc024ff88fe3814b69a6aa4",
        "185ac5f8bd9a331da2a95e42c6029bae16aa7b6bc6a2ebb8756a94a4f517962d",
    ),
    ("ADPCMB-MLP", 5): (
        "a922cb6a5a90d987685da9d1d8898aa2b84f5e47020a90683902de8ddc9c0fae",
        "15d9e61fa7054885166898757dce8ab999d1ec7f610a8e81ae8d8dd5b8dc460d",
    ),
    ("ADPCMB-HYBRID", 2): (
        "dcade5d432a0d88ef1683e2e7ee974ab45cd36b2c448a3d412455b5a6c546e3c",
        "e1f45d599279b807805fa16adb6375dccf0aa17f06bd36564a7654d6e93ec108",
    ),
    ("ADPCMB-HYBRID", 5): (
        "b32e0aceb0fd94c7a2f57aa1d8879976307b96367c3b05d0d427c102a29f59f7",
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
