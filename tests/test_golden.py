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
`OPENBLAS_CORETYPE=Haswell` all 14 cases fail. ROADMAP open item 3
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
        "fbeddba1431a27cedebb98aabd338280772870d808b0fa7ade3650aa58f13e75",
        "eb5454cd82375a2ffdf4ca7571ad2a9443c23f76c6a9cf5ac741ed5e3b5a934c",
    ),
    ("ADPCMF-LPC-10", 5): (
        "fa681e96682be0b9241e0b8d72eca6e8e86eaa4033da7041360951c63de8a5ed",
        "7db033fbcfdee772b5ab60d7fbd629fe56b33beee1e836252fd00b496fee71b6",
    ),
    ("ADPCMF-LPC-25", 2): (
        "795e39527e0af1de800c185ea5d244eec68af9fee4539fbcb26ec84196985f4d",
        "91ccc2547230cc7f9864bcab3ffdf9d369a9284927b6dcd04158a8c51ca0f781",
    ),
    ("ADPCMF-LPC-25", 5): (
        "b4d05b8f001023b9b0e7c51dd5aa3d09273dbf49b2ef8eccbc096b654f47a1dc",
        "4c31b3d87373806ffaf08bff3421ed61057ce60224b74cf5219993901c83cdd0",
    ),
    ("ADPCMF-MLP", 2): (
        "db67248aee13d9a4a59d303266c9aa8877f6c23576c1152b56f6d67ef8fb513a",
        "7306f8f74687b60df0b37d213a82c02ec31df6eace9eb1762f481f0589215cbe",
    ),
    ("ADPCMF-MLP", 5): (
        "daae44ef760e79b410a072dba8aeba820fffa34f8133dd0e475e0fed0a46c5fb",
        "d12b86037161a251811ce1087b26ad77d4fae33e10d52fe3fd800cc73497d5b0",
    ),
    ("ADPCMB-LPC-10", 2): (
        "45f656fa92baa02c9f807264dcd7ea8e35f8099804b66ece289b8f5bc9aaa6e4",
        "42024f12a00740bef1c033b26be99490a0036680e687cd5be42e06f73ab71228",
    ),
    ("ADPCMB-LPC-10", 5): (
        "05793250eedc66bf4a3ae92d98df278a2c1c877945be0e7db68d50264ba31867",
        "fd896e7a84414f2a92cf133e8abb89710e69fe41886ff22d9b5b8e30d1960273",
    ),
    ("ADPCMB-LPC-25", 2): (
        "26af7312f9941a1e2b0e69f1baef50dff099258a050c914330f1306406f00acc",
        "b9d6fb641884c3dbedbd7056cfcaa2b7da907e0e4d0e7b16b727b6fcb1850583",
    ),
    ("ADPCMB-LPC-25", 5): (
        "fd4eb54195ac20bd8b73380081ec088e08554b34920da2f5412f54170a9ac31c",
        "170eb6d3bc7953ce7145b6cfe9786eb3ef7dffc90665d1a74926312883c4b3c7",
    ),
    ("ADPCMB-MLP", 2): (
        "37c1f2683baa2bcde55ebb28d8fe1c1e861bb07caa280bd217e2b5b8c223f18c",
        "21f3a5ab41373409ea48a67ad34ea706641d48b3f7bd99589a7adbc0996b5018",
    ),
    ("ADPCMB-MLP", 5): (
        "e93c443cc5158c0110391c81b21c707e28e56a7415b8b9069cafe398b428474b",
        "5a8ae9244133fd93ce42676458d82bb4158412cecbf17b035fb1831de0e704be",
    ),
    ("ADPCMB-HYBRID", 2): (
        "5327fc3ca24a2c6ccb9a46ae1084ecb2f32b9049965a4d9170d798cecd406fab",
        "e3ec67482c9b5c64824cabe6ec626d56631a5d96253bb33a8d30e99fce1dc81e",
    ),
    ("ADPCMB-HYBRID", 5): (
        "ecc8b28ce03524bb4b6ce510305dd1afe71ca0b3b7463f522085d25bbb8d30ef",
        "50a495147a363869301148047a6e6be8e990f1febddce3b1ba5eff434da39473",
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
