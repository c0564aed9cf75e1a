"""Experiment harness: method comparison tables, training sweeps, CSV export.

Method names pair an adaptation mode with a predictor: ADPCMF-* is
forward-adapted (coefficients transmitted), ADPCMB-* backward-adapted
(decoder refits), and ADPCMB-HYBRID is the per-frame linear/neural
switch. Each experiment takes one CodecConfig (the method tables set its
kind and mode per method); all runs are deterministic given (corpus,
config), so repeated runs emit byte-identical CSVs.
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
from .metrics import mean_std, segsnr, segment_snr_db, z_score
from .mlp import MIN_FRAME_LEN, TOO_SHORT, lm_iterations
from .number import as_int

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
    y_train_db: tuple
    y_test_db: tuple


def _require_listed_once(**lists):
    """Raise ValueError naming the first list that is empty or repeats an entry."""
    for name, values in lists.items():
        if len(values) == 0:
            raise ValueError(f"{name} must be non-empty")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{name} repeats {value!r}")


def _method(method: str):
    """(predictor kind, adaptation) of a method; the one METHODS lookup."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    return METHODS[method]


def method_config(base: CodecConfig, method: str, bits: int, frame_len=None) -> CodecConfig:
    """The config that codes `method` at `bits` (and `frame_len`, if given)
    with base's other fields."""
    kind, adaptation = _method(method)
    changes = {"predictor_kind": kind, "adaptation": adaptation, "bits": bits}
    if frame_len is not None:
        changes["frame_len"] = frame_len
    return replace(base, **changes)


def _roundtrip(signal: Signal, config: CodecConfig) -> Signal:
    """Full encode -> serialize -> parse -> decode pipeline."""
    encoded = encode(signal, config)
    return decode(parse(serialize(encoded.bitstream)))


def _coded_snrs(runs, corpus, window=None):
    """Per run, a (method, bits[, frame_len], config) tuple, the SNRs (dB) of
    the non-silent `window`-sample segments (default: frame_len) of each corpus
    signal after `_roundtrip`, pooled. A codec ValueError is re-raised naming
    the run and the signal; other errors propagate as they are."""
    for *run, config in runs:
        pooled = []
        for index, signal in enumerate(corpus):
            try:
                decoded = _roundtrip(signal, config)
            except ValueError as exc:
                name = " ".join(f"{k}{v}" for k, v in zip(("", "Nq=", "frame_len="), run))
                raise ValueError(f"{name} failed on corpus[{index}]: {exc}") from exc
            pooled.extend(segsnr(signal, decoded, window or config.frame_len).per_segment_db)
        yield pooled


def evaluate_methods(corpus, bits_list, methods, base_config: CodecConfig):
    """Encode+decode every corpus signal per (method, bits) pair.

    Per-segment SNRs (segment length = coding frame length) are pooled
    across the corpus into one row per pair. Rows for all-silent corpora
    carry NaN means and zero frames. An empty corpus, method or bit-depth
    list, or a list that repeats an entry, is refused before coding; a
    codec refusal names the method, bit depth and signal.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must be non-empty")
    _require_listed_once(methods=methods, bits_list=bits_list)
    runs = [(m, b, method_config(base_config, m, b)) for m in methods for b in bits_list]
    rows = []
    for (method, bits, _), pooled in zip(runs, _coded_snrs(runs, corpus)):
        mean_db, std_db = mean_std(pooled) if pooled else (float("nan"), float("nan"))
        rows.append(MethodRow(method, bits, mean_db, std_db, len(pooled)))
    return rows


def significance_matrix(rows, n: int):
    """Pairwise z statistics between method rows sharing a bit depth: one
    per pair of distinct rows (rows[i], rows[j]), i < j, in row order.
    Pairs with z below 2.5 are marked not significant. A NaN or infinite
    mean or std is refused by `z_score`, naming the field."""
    if len({row.bits for row in rows}) > 1:
        raise ValueError("significance_matrix needs rows at a single bit depth")
    pairs = []
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            z = z_score(a.segsnr_mean, a.segsnr_std, b.segsnr_mean, b.segsnr_std, n)
            pairs.append(SignificancePair(a.method, b.method, z, z >= SIGNIFICANCE_THRESHOLD))
    return pairs


def closed_loop_frame_snr(frame, predictor, config: CodecConfig):
    """SNR (dB) of coding one frame closed-loop from a fresh codec state."""
    recon = encode_frame(initial_state(config), frame, predictor)[1].recon
    return segment_snr_db(frame, frame - recon)


def _epoch_frames(signal: Signal, config: CodecConfig, max_epochs: int):
    """The frames of `signal`, checked for the epoch experiments before any
    training: at least two of them, each long enough for the MLP, and
    `max_epochs` an integer >= 1 (`as_int`; a bool is refused)."""
    frames = split_frames(signal.samples, config.frame_len)
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    if config.frame_len < MIN_FRAME_LEN:
        raise ValueError(TOO_SHORT.format(config.frame_len))
    as_int("max_epochs", max_epochs, minimum=1)
    return frames


def _epoch_snrs(frames, k: int, config: CodecConfig, max_epochs: int, *scored):
    """Train one net on frames[k] from seed `config.seed ^ k` (the one seed
    rule of the epoch experiments) for `max_epochs` LM epochs; for each of
    `scored`, the tuple of its closed-loop SNRs (dB) after each epoch. A
    silent frame scores None at every epoch."""
    run = lm_iterations(frames[k], config.seed ^ k, max_epochs)
    by_epoch = [[closed_loop_frame_snr(f, net, config) for f in scored] for net, _ in run]
    return list(zip(*by_epoch))


def epoch_sweep(signal: Signal, frame_pair_index: int, max_epochs: int,
                config: CodecConfig) -> SweepCurve:
    """Trace SEGSNR against training epochs for one frame pair.

    One net, seeded `config.seed ^ frame_pair_index`, is trained on the
    first frame of the pair; after every epoch its closed-loop SNR is
    measured on the training frame (forward-style) and on the following
    frame (backward-style). Overtraining shows up as the test curve peaking
    early and then declining. Fewer than two frames, frames below the MLP
    minimum and a `max_epochs` that is not an integer >= 1 are refused
    before training; a pair with a silent frame is refused after it.
    """
    frames = _epoch_frames(signal, config, max_epochs)
    k = as_int("frame_pair_index", frame_pair_index)
    if not 0 <= k < len(frames) - 1:
        raise ValueError(f"signal has {len(frames)} frames; pair index {k} "
                         f"is not in 0..{len(frames) - 2}")
    y_train, y_test = _epoch_snrs(frames, k, config, max_epochs, frames[k], frames[k + 1])
    if None in y_train + y_test:
        raise ValueError(f"frame pair {k} contains silence; pick another")
    return SweepCurve(tuple(range(1, max_epochs + 1)), y_train, y_test)


def optimal_epoch_histogram(signal: Signal, max_epochs: int, config: CodecConfig):
    """Distribution of the per-frame optimal epoch count.

    For each consecutive frame pair k, one net is trained on the first
    frame, seeded as by `epoch_sweep(signal, k, max_epochs, config)`; the
    optimum is the epoch count maximizing closed-loop SNR on the next frame
    (first maximum on ties); a pair whose next frame is silent is skipped.
    Returns {epoch: percent of frames}. Input is refused as by `epoch_sweep`.
    """
    frames = _epoch_frames(signal, config, max_epochs)
    counts = {}
    for k in range(len(frames) - 1):
        [test_db] = _epoch_snrs(frames, k, config, max_epochs, frames[k + 1])
        if test_db[0] is not None:
            best_epoch = test_db.index(max(test_db)) + 1
            counts[best_epoch] = counts.get(best_epoch, 0) + 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no frame pair produced a measurable optimum")
    return {epoch: 100.0 * count / total for epoch, count in sorted(counts.items())}


def frame_length_sweep(signal: Signal, lengths, bits_list, methods, base_config: CodecConfig):
    """Full encode/decode per (frame length, bits, method).

    SEGSNR always uses a 200-sample analysis window regardless of the
    coding frame length. Lengths too short for the neural predictor skip
    those methods; skips are returned alongside the records as
    (method, bits, length, reason) tuples. An empty or repeating list, and
    a length that is not an integer >= 1 (`as_int`), are refused before
    coding; a codec refusal names the method, bits and length.
    """
    _require_listed_once(lengths=lengths, bits_list=bits_list, methods=methods)
    runs = []
    skipped = []
    for method in methods:
        neural = _method(method)[0] in NEURAL_KINDS
        for bits in bits_list:
            for length in (as_int("frame_len", n, minimum=1) for n in lengths):
                if neural and length < MIN_FRAME_LEN:
                    skipped.append((method, bits, length, TOO_SHORT.format(length)))
                else:
                    config = method_config(base_config, method, bits, length)
                    runs.append((method, bits, length, config))
    scored = zip(runs, _coded_snrs(runs, [signal], SEGSNR_WINDOW))
    records = [{"method": method, "bits": bits, "frame_len": length,
                "segsnr_mean": mean_std(pooled)[0] if pooled else float("nan"),
                "segments": len(pooled)}
               for (method, bits, length, _), pooled in scored]
    return records, skipped


def predictor_usage(bitstream: Bitstream):
    """Percentage of frames coded by each hybrid branch: (pct_mlp, pct_lpc).
    A frame is MLP when its `frame_candidates` entry is; frame 0, coded with
    the zero predictor, carries candidate 0 (LPC-10) and counts as LPC."""
    if bitstream.header.config.predictor_kind is not PredictorKind.HYBRID:
        raise ValueError("predictor usage is defined for hybrid bitstreams only")
    table = frame_candidates(bitstream.header.config)
    n = len(bitstream.payloads)
    mlp_frames = sum(1 for p in bitstream.payloads if table[p.candidate] is PredictorKind.MLP)
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
