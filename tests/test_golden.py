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
        "282530b9b3ec9d6786e05f4715cf157dab9d2dfb83fa7f6f7754167eae557587",
        "eb5454cd82375a2ffdf4ca7571ad2a9443c23f76c6a9cf5ac741ed5e3b5a934c",
    ),
    ("ADPCMF-LPC-10", 5): (
        "d21add375a4b7c07be8872dd5440dd4ce5efe128733e92cf47a8dd10685ae0c8",
        "7db033fbcfdee772b5ab60d7fbd629fe56b33beee1e836252fd00b496fee71b6",
    ),
    ("ADPCMF-LPC-25", 2): (
        "a27cb51d65928b22339f05df6ecea3378eec1c07927c44bee74a66ca86c27b77",
        "91ccc2547230cc7f9864bcab3ffdf9d369a9284927b6dcd04158a8c51ca0f781",
    ),
    ("ADPCMF-LPC-25", 5): (
        "185342d9ac279a1587836aa17ec2e7cb3c73b26c945362cf2e7a9b575c8b9f38",
        "4c31b3d87373806ffaf08bff3421ed61057ce60224b74cf5219993901c83cdd0",
    ),
    ("ADPCMF-MLP", 2): (
        "76a10539fc76851589ae3655f19e895b269d4d4d5e786f786816d9f86ea38970",
        "e2029d0259b2ecc8084b0140639945ee06dfc76c07e23287436bad458a431f25",
    ),
    ("ADPCMF-MLP", 5): (
        "fb674dfadce68cce20036ebe60e9d15ce666989adb56587ef301f536d887903b",
        "271b6d2664b104bfe32f180a4bcf69a2270a32560331d75f87cb0c5837f22c67",
    ),
    ("ADPCMB-LPC-10", 2): (
        "e594a66e3dfc788925661196794797ff910d1ac292ab50ab7c938798b3add378",
        "42024f12a00740bef1c033b26be99490a0036680e687cd5be42e06f73ab71228",
    ),
    ("ADPCMB-LPC-10", 5): (
        "43648c6df7850471a2846c16b39a59fc1b413ce97d7b28ba0b20828aaf9ae1d4",
        "fd896e7a84414f2a92cf133e8abb89710e69fe41886ff22d9b5b8e30d1960273",
    ),
    ("ADPCMB-LPC-25", 2): (
        "c7882c2a7758a51a4edc9b3624d1093a8cb51f13a3bcf1a221212fa106d12834",
        "b9d6fb641884c3dbedbd7056cfcaa2b7da907e0e4d0e7b16b727b6fcb1850583",
    ),
    ("ADPCMB-LPC-25", 5): (
        "cb80c28efc48efd938da30db651fcd5c09058f01585bb743cc73d6101820d9e4",
        "170eb6d3bc7953ce7145b6cfe9786eb3ef7dffc90665d1a74926312883c4b3c7",
    ),
    ("ADPCMB-MLP", 2): (
        "3ae22f8c36a75e67d5ed20477c82efc0acf5ef2ae1144e18f408ffafc08d038e",
        "185ac5f8bd9a331da2a95e42c6029bae16aa7b6bc6a2ebb8756a94a4f517962d",
    ),
    ("ADPCMB-MLP", 5): (
        "7c67e61c518d8d3cc7796f1f68b4c910116a29cf73a55e5c5e174e71d033079f",
        "15d9e61fa7054885166898757dce8ab999d1ec7f610a8e81ae8d8dd5b8dc460d",
    ),
    ("ADPCMB-HYBRID", 2): (
        "56222deffcd75f3ce0574dbbf49f4d9f1072c272c5d7db4771a8c59f9a1f6806",
        "e1f45d599279b807805fa16adb6375dccf0aa17f06bd36564a7654d6e93ec108",
    ),
    ("ADPCMB-HYBRID", 5): (
        "9bcb5a2f47a3f1176027df7b2a7e86ce580ff4c656cef1528f11f04ee47a5124",
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
