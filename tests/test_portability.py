"""Portability: decoding gives the same bits under other OpenBLAS kernels.

A stream is encoded in this process, under whatever BLAS kernel it runs,
and decoded in fresh interpreters under `OPENBLAS_CORETYPE` = Prescott,
Haswell and Sandybridge. Each decode must give the encoder's
reconstruction byte for byte. OpenBLAS reads the variable when it loads,
so only a fresh interpreter can switch kernels.

Forward MLP is covered: its decoder fits nothing and runs only the
closed loop, whose forward pass (`mlp._forward_kernel`) makes no BLAS
call. This is the first case of ROADMAP item 3's portability test; LPC
and the backward neural methods still call BLAS on the decoder's path.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import nadpcm
from conftest import formant_utterance
from nadpcm import CodecConfig, encode, serialize
from nadpcm.harness import METHODS

CORETYPES = ("Prescott", "Haswell", "Sandybridge")

DECODE = ("import sys; from nadpcm import decode, parse; "
          "samples = decode(parse(sys.stdin.buffer.read())).samples; "
          "sys.stdout.buffer.write(samples.astype('<f8').tobytes())")


@pytest.fixture(scope="module")
def forward_mlp_streams():
    """(stream bytes, reconstruction bytes) of ADPCMF-MLP at 2 and 5 bits."""
    kind, adaptation = METHODS["ADPCMF-MLP"]
    signal = formant_utterance(11, 1100)
    cases = {}
    for bits in (2, 5):
        result = encode(signal, CodecConfig(bits=bits, predictor_kind=kind, adaptation=adaptation))
        samples = np.ascontiguousarray(result.reconstruction.samples, dtype="<f8")
        cases[bits] = serialize(result.bitstream), samples.tobytes()
    return cases


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels; "
                           f"this host is {platform.machine()}")
@pytest.mark.parametrize("bits", [2, 5])
@pytest.mark.parametrize("coretype", CORETYPES)
def test_forward_mlp_decode_is_identical_under_each_kernel(forward_mlp_streams, coretype, bits):
    stream, reconstruction = forward_mlp_streams[bits]
    src = os.path.dirname(os.path.dirname(nadpcm.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": coretype}
    out = subprocess.run([sys.executable, "-c", DECODE], input=stream, capture_output=True,
                         env=env, check=True)
    assert out.stdout == reconstruction
