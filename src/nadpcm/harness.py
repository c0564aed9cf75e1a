"""Experiment harness: method comparison tables, training sweeps, CSV export.

Method names pair an adaptation mode with a predictor: ADPCMF-* is
forward-adapted (coefficients transmitted), ADPCMB-* backward-adapted
(decoder refits), and ADPCMB-HYBRID is the per-frame linear/neural
switch. All runs are deterministic given (corpus, config, seed), so
repeated runs emit byte-identical CSVs.
"""

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .audio import Signal, split_frames
from .bitstream import (
    NEURAL_KINDS, Adaptation, Bitstream, PredictorKind, frame_candidates, parse, serialize,
)
from .codec import CodecConfig, encode, decode, encode_frame, initial_state
from .metrics import SILENCE_ENERGY_FLOOR, mean_std, segsnr, segment_snr_db, z_score
from .mlp import MIN_FRAME_LEN, TOO_SHORT, lm_iterations

SIGNIFICANCE_THRESHOLD = 2.5
SEGSNR_WINDOW = 200  # metric window, independent of the coding frame length

METHODS = {
    "ADPCMF-LPC-10": (PredictorKind.LPC10, Adaptation.FORWARD),
    "ADPCMF-LPC-25": (PredictorKind.LPC25, Adaptation.FORWARD),
    "ADPCMF-MLP": (PredictorKind.MLP, Adaptation.FORWARD),
    "ADPCMB-LPC-10": (PredictorKind.LPC10, Adaptation.BACKWARD),
    "ADPCMB-LPC-25": (PredictorKind.LPC25, Adaptation.BACKWARD),
    "ADPCMB-MLP": (PredictorKind.MLP, Adaptation.BACKWARD),
    "ADPCMB-HYBRID": (PredictorKind.HYBRID, Adaptation.BACKWARD),
}

@dataclass(frozen=True)
class MethodRow:
    method: str
    bits: int
    segsnr_mean: float
    segsnr_std: float
    frames_evaluated: int


@dataclass(frozen=True)
class SignificancePair:
    method_a: str
    method_b: str
    z: float
    significant: bool


@dataclass(frozen=True)
class SweepCurve:
    x_values: tuple
    y_train_db: tuple | None = None
    y_test_db: tuple | None = None

    def __post_init__(self):
        xs = self.x_values
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("x_values must be strictly increasing")


def _require_nonempty(**sequences):
    """Raise ValueError naming the first empty sequence."""
    for name, values in sequences.items():
        if len(values) == 0:
            raise ValueError(f"{name} must be non-empty")


def _require_trainable(frame_len: int):
    """Refuse frames too short to train the MLP on, before any training."""
    if frame_len < MIN_FRAME_LEN:
        raise ValueError(TOO_SHORT.format(frame_len))


def _method(method: str):
    """(predictor kind, adaptation) of a method; the one METHODS lookup."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    return METHODS[method]


def method_config(base: CodecConfig, method: str, bits: int, frame_len=None) -> CodecConfig:
    """The config that codes `method` at `bits` (and `frame_len`, if given)
    with base's other fields; a bit depth other than base's re-defaults the
    multiplier table."""
    kind, adaptation = _method(method)
    changes = {"predictor_kind": kind, "adaptation": adaptation}
    if bits != base.bits:
        changes.update(bits=bits, multipliers=())
    if frame_len is not None:
        changes["frame_len"] = frame_len
    return replace(base, **changes)


def _roundtrip(signal: Signal, config: CodecConfig) -> Signal:
    """Full encode -> serialize -> parse -> decode pipeline."""
    encoded = encode(signal, config)
    return decode(parse(serialize(encoded.bitstream)))


def evaluate_methods(corpus, bits_list, methods, base_config: CodecConfig):
    """Encode+decode every corpus signal per (method, bits) pair.

    Per-segment SNRs (segment length = coding frame length) are pooled
    across the corpus into one row per pair. Rows for all-silent corpora
    carry NaN means and zero frames.
    """
    corpus = list(corpus)
    _require_nonempty(corpus=corpus, methods=methods, bits_list=bits_list)
    runs = [(m, b, method_config(base_config, m, b)) for m in methods for b in bits_list]
    rows = []
    for method, bits, config in runs:
        pooled = []
        for index, signal in enumerate(corpus):
            try:
                decoded = _roundtrip(signal, config)
            except ValueError as exc:  # the codec's error type; others propagate as they are
                raise ValueError(f"{method} Nq={bits} failed on corpus[{index}]: {exc}") from exc
            report = segsnr(signal, decoded, config.frame_len)
            pooled.extend(report.per_segment_db)
        if pooled:
            mean_db, std_db = mean_std(pooled)
        else:
            mean_db = std_db = float("nan")
        rows.append(MethodRow(method, bits, mean_db, std_db, len(pooled)))
    return rows


def significance_matrix(rows, n: int):
    """Pairwise z statistics between method rows sharing a bit depth.

    Pairs with z below 2.5 are marked not significant.
    """
    if len({row.bits for row in rows}) > 1:
        raise ValueError("significance_matrix needs rows at a single bit depth")
    pairs = []
    for i, a in enumerate(rows):
        for b in rows[i:]:
            z = z_score(a.segsnr_mean, a.segsnr_std, b.segsnr_mean, b.segsnr_std, n)
            pairs.append(SignificancePair(a.method, b.method, z, z >= SIGNIFICANCE_THRESHOLD))
    return pairs


def closed_loop_frame_snr(frame, predictor, config: CodecConfig):
    """SNR (dB) of coding one frame closed-loop from a fresh codec state."""
    recon = encode_frame(initial_state(config), frame, predictor)[1].recon
    return segment_snr_db(frame, frame - recon)


def epoch_sweep(signal: Signal, frame_pair_index: int, max_epochs: int,
                restart_seed: int, base_config: CodecConfig | None = None) -> SweepCurve:
    """Trace SEGSNR against training epochs for one frame pair.

    One net is initialized from restart_seed and trained on the first
    frame of the pair; after every epoch its closed-loop SNR is measured
    on the training frame (forward-style) and on the following frame
    (backward-style). Overtraining shows up as the test curve peaking
    early and then declining.
    """
    config = base_config if base_config is not None else CodecConfig()
    frames = split_frames(signal.samples, config.frame_len)
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    if not 0 <= frame_pair_index < len(frames) - 1:
        raise ValueError(f"signal has {len(frames)} frames; pair index {frame_pair_index} "
                         f"is not in 0..{len(frames) - 2}")
    train_frame = frames[frame_pair_index]
    test_frame = frames[frame_pair_index + 1]
    if any(np.dot(f, f) < SILENCE_ENERGY_FLOOR for f in (train_frame, test_frame)):
        raise ValueError(f"frame pair {frame_pair_index} contains silence; pick another")
    _require_trainable(config.frame_len)

    y_train = []
    y_test = []
    for net, _ in lm_iterations(train_frame, restart_seed, config.train, max_epochs):
        y_train.append(closed_loop_frame_snr(train_frame, net, config))
        y_test.append(closed_loop_frame_snr(test_frame, net, config))
    return SweepCurve(
        x_values=tuple(range(1, max_epochs + 1)),
        y_train_db=tuple(y_train),
        y_test_db=tuple(y_test),
    )


def optimal_epoch_histogram(signal: Signal, max_epochs: int, config: CodecConfig):
    """Distribution of the per-frame optimal epoch count.

    For each consecutive frame pair, one net (seeded from the config seed
    XOR the frame index) is trained on the first frame; the optimum is
    the epoch count maximizing closed-loop SNR on the next frame (first
    maximum on ties). Returns {epoch: percent of frames}.
    """
    frames = split_frames(signal.samples, config.frame_len)
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    _require_trainable(config.frame_len)

    counts = {}
    total = 0
    for k in range(len(frames) - 1):
        best_epoch = best_snr = None
        run = lm_iterations(frames[k], config.seed ^ k, config.train, max_epochs)
        for epoch, (net, _) in enumerate(run, 1):
            snr = closed_loop_frame_snr(frames[k + 1], net, config)
            if snr is None:
                continue
            if best_snr is None or snr > best_snr:
                best_epoch, best_snr = epoch, snr
        if best_epoch is None:
            continue
        counts[best_epoch] = counts.get(best_epoch, 0) + 1
        total += 1
    if total == 0:
        raise ValueError("no frame pair produced a measurable optimum")
    return {epoch: 100.0 * count / total for epoch, count in sorted(counts.items())}


def frame_length_sweep(signal: Signal, lengths, bits_list, methods,
                       base_config: CodecConfig | None = None):
    """Full encode/decode per (frame length, bits, method).

    SEGSNR always uses a 200-sample analysis window regardless of the
    coding frame length. Lengths too short for the neural predictor skip
    those methods; skips are returned alongside the records as
    (method, bits, length, reason) tuples.
    """
    _require_nonempty(lengths=lengths, bits_list=bits_list, methods=methods)
    base = base_config if base_config is not None else CodecConfig()
    runs = []
    skipped = []
    for method in methods:
        neural = _method(method)[0] in NEURAL_KINDS
        for bits in bits_list:
            for length in lengths:
                if neural and length < MIN_FRAME_LEN:
                    skipped.append((method, bits, length, TOO_SHORT.format(length)))
                else:
                    runs.append((method, bits, length, method_config(base, method, bits, length)))
    records = []
    for method, bits, length, config in runs:
        decoded = _roundtrip(signal, config)
        report = segsnr(signal, decoded, SEGSNR_WINDOW)
        records.append({
            "method": method,
            "bits": bits,
            "frame_len": length,
            "segsnr_mean": report.mean_db,
            "segments": report.segments_used,
        })
    return records, skipped


def predictor_usage(bitstream: Bitstream):
    """Percentage of frames coded by each hybrid branch: (pct_mlp, pct_lpc).
    A frame is MLP when its `frame_candidates` entry is; frame 0, coded with
    the zero predictor, carries candidate 0 (LPC-10) and counts as LPC."""
    if bitstream.header.config.predictor_kind is not PredictorKind.HYBRID:
        raise ValueError("predictor usage is defined for hybrid bitstreams only")
    table = frame_candidates(bitstream.header.config)
    n = len(bitstream.payloads)
    mlp_frames = sum(1 for p in bitstream.payloads if table[p.candidate][0] is PredictorKind.MLP)
    return 100.0 * mlp_frames / n, 100.0 * (n - mlp_frames) / n


def export_csv(columns, rows) -> str:
    """Render rows as CSV with a header; reals use 6 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (np.floating,)):
        return f"{float(value):.6g}"
    return str(value)


def method_rows_csv(rows) -> str:
    return export_csv(
        ["method", "bits", "segsnr_mean", "segsnr_std", "frames"],
        [(r.method, r.bits, r.segsnr_mean, r.segsnr_std, r.frames_evaluated) for r in rows],
    )


def segsnr_report_csv(report) -> str:
    """Per-segment SNR table with a trailing summary row."""
    rows = [(i, snr) for i, snr in enumerate(report.per_segment_db)]
    rows.append(("mean", report.mean_db))
    return export_csv(["segment_index", "snr_db"], rows)
