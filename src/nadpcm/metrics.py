"""Objective evaluation: segmental SNR and the two-means z test.

Segmental SNR is the mean over fixed-length segments of the per-segment
SNR in dB. Segments whose signal energy falls below a silence floor are
skipped; per-segment values are capped at 100 dB so perfect
reconstruction stays finite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .number import as_int, as_real

SILENCE_ENERGY_FLOOR = 1e-12
ERROR_ENERGY_FLOOR = 1e-20
SNR_CEILING_DB = 100.0


@dataclass(frozen=True)
class SegsnrReport:
    """Per-segment SNRs plus their pooled mean/std (population)."""

    per_segment_db: tuple
    mean_db: float
    std_db: float
    segments_used: int
    segments_skipped: int


def mean_std(values):
    """Arithmetic mean and population standard deviation (divide by n)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("mean_std requires a non-empty sequence")
    return float(np.mean(values)), float(np.std(values))


def segment_snr_db(reference_seg, error_seg) -> float | None:
    """SNR of one segment in dB, or None when the segment is silence."""
    es = float(np.dot(reference_seg, reference_seg))
    if es < SILENCE_ENERGY_FLOOR:
        return None
    ee = float(np.dot(error_seg, error_seg))
    if ee < ERROR_ENERGY_FLOOR:
        return SNR_CEILING_DB
    return min(10.0 * math.log10(es / ee), SNR_CEILING_DB)


def segsnr(reference, decoded, segment_len: int) -> SegsnrReport:
    """Segmental SNR between a reference and a decoded sample sequence.

    Only full segments are scored; silent segments (signal energy below
    1e-12) are skipped and tallied separately. With no usable segments
    the mean/std are NaN.
    """
    ref = np.asarray(getattr(reference, "samples", reference), dtype=np.float64)
    dec = np.asarray(getattr(decoded, "samples", decoded), dtype=np.float64)
    if len(ref) != len(dec):
        raise ValueError(f"length mismatch: reference {len(ref)} vs decoded {len(dec)}")
    segment_len = as_int("segment_len", segment_len, minimum=1)

    err = ref - dec
    per_segment = []
    skipped = 0
    for k in range(len(ref) // segment_len):
        sl = slice(k * segment_len, (k + 1) * segment_len)
        snr = segment_snr_db(ref[sl], err[sl])
        if snr is None:
            skipped += 1
        else:
            per_segment.append(snr)

    if per_segment:
        mean_db, std_db = mean_std(per_segment)
    else:
        mean_db = std_db = float("nan")
    return SegsnrReport(
        per_segment_db=tuple(per_segment),
        mean_db=mean_db,
        std_db=std_db,
        segments_used=len(per_segment),
        segments_skipped=skipped,
    )


def z_score(mean1: float, std1: float, mean2: float, std2: float, n: int) -> float:
    """z statistic for a difference between two means with shared sample count n.

    z = |mean1 - mean2| / sqrt(std1^2/n + std2^2/n). The conventional
    significance threshold used alongside this codec is 2.5. The means and
    standard deviations must be finite reals (`as_real`).
    """
    n = as_int("n", n, minimum=1)
    mean1, std1 = as_real("mean1", mean1), as_real("std1", std1)
    mean2, std2 = as_real("mean2", mean2), as_real("std2", std2)
    if std1 < 0 or std2 < 0:
        raise ValueError("standard deviations must be non-negative")
    denom = math.sqrt(std1 * std1 / n + std2 * std2 / n)
    diff = abs(mean1 - mean2)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom
