"""ADPCM speech codec with linear, neural, and hybrid short-term predictors.

Encoding quantizes per-sample prediction residuals with an adaptive
Jayant quantizer at 2-5 bits per sample (16-40 kbps at 8 kHz). The
predictor is refit every frame, either forward (coefficients sent in
the stream) or backward (the decoder refits from its own output and
no predictor bits are sent); a backward hybrid mode picks the better of
the linear and neural branches per frame and sends its choice in one bit.
"""

from .audio import Signal, load_pcm16, read_wav, save_pcm16, split_frames, write_wav
from .bitstream import (
    Adaptation,
    Bitstream,
    BitstreamError,
    BitstreamHeader,
    CodecConfig,
    FramePayload,
    PredictorKind,
    parse,
    serialize,
)
from .codec import EncodeResult, decode, encode
from .harness import (
    METHODS,
    MethodRow,
    SweepCurve,
    epoch_sweep,
    evaluate_methods,
    export_csv,
    frame_length_sweep,
    optimal_epoch_histogram,
    predictor_usage,
    significance_matrix,
)
from .lpc import LpcModel
from .metrics import SegsnrReport, mean_std, segsnr, z_score
from .mlp import Mlp, multistart_fit

__version__ = "0.1.0"

__all__ = [
    "Adaptation",
    "Bitstream",
    "BitstreamError",
    "BitstreamHeader",
    "CodecConfig",
    "EncodeResult",
    "FramePayload",
    "LpcModel",
    "METHODS",
    "MethodRow",
    "Mlp",
    "PredictorKind",
    "SegsnrReport",
    "Signal",
    "SweepCurve",
    "decode",
    "encode",
    "epoch_sweep",
    "evaluate_methods",
    "export_csv",
    "frame_length_sweep",
    "load_pcm16",
    "mean_std",
    "multistart_fit",
    "optimal_epoch_histogram",
    "parse",
    "predictor_usage",
    "read_wav",
    "save_pcm16",
    "segsnr",
    "serialize",
    "significance_matrix",
    "split_frames",
    "write_wav",
    "z_score",
]
