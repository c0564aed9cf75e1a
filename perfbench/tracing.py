"""Span tracing by wrapping the codec's module attributes, and the per-layer
metrics computed from the spans.

A traced run replaces selected functions of the `nadpcm` modules with
wrappers that record a span (name, start, end, parent span, op) around each
call, then puts the originals back. Nothing in the codec changes: every
wrapped function is looked up as a module global at call time, so the
wrapper sees each call the codec makes. Per-sample functions (`predict`,
`quantize`, `adapt`) are not wrapped, because a wrapper per sample would
multiply the loop's time; `replay_quantizer` and `replay_mlp_predict` time
them by replaying what the traced run captured.
"""

import contextlib
import statistics
import time
from collections import defaultdict

from nadpcm import audio, bitstream, codec, harness, lpc, metrics, mlp
from nadpcm.quantizer import AdaptiveQuantizer

KINDS = ("zero", "lpc10", "lpc25", "mlp")
REPLAY_CODES = 10000      # quantizer steps timed per replay
REPLAY_PREDICTS = 4000    # MLP predictions timed per replay
REPLAYS = 3               # a replayed time is the median of this many replays
CAPTURED_NETS = 16        # trained nets kept for the predict replay
HISTORY_LEN = 25          # reconstructed samples the codec hands a predictor

PER_LAYER_UNITS = {
    **{f"codec.{fn}.us_per_sample.{kind}": "us/sample"
       for fn in ("encode_frame", "decode_frame") for kind in KINDS},
    "codec.encode_frame.calls": "count",
    "codec.decode_frame.calls": "count",
    "codec.kernel_share": "ratio",
    "quantizer.step_ns": "ns",
    "quantizer.overload_ratio": "ratio",
    "lpc.autocorrelation.us": "us",
    "lpc.levinson.us": "us",
    "lpc.fit.calls": "count",
    "lpc.halted_ratio": "ratio",
    "mlp.multistart_fit.ms": "ms",
    "mlp.multistart_fit.calls": "count",
    "mlp.lm_epoch.us": "us",
    "mlp.lm_epoch.calls": "count",
    "mlp.lm_accept_ratio": "ratio",
    "mlp.residual_jacobian.us": "us",
    "mlp.init_mlp.us": "us",
    "mlp.predict.ns": "ns",
    "mlp.fit_share": "ratio",
    "bitstream.serialize.us_per_audio_s": "us/audio-s",
    "bitstream.parse.us_per_audio_s": "us/audio-s",
    "bitstream.bytes_per_audio_s": "B/audio-s",
    "audio.read_wav.us_per_audio_s": "us/audio-s",
    "audio.write_wav.us_per_audio_s": "us/audio-s",
    "metrics.segsnr.us_per_audio_s": "us/audio-s",
    **{f"codec.{fn}.ms_per_audio_s.{method}": "ms/audio-s"
       for fn in ("encode", "decode") for method in harness.METHODS},
    "trace_overhead": "ratio",
}

# Span fields, kept as lists so a finished span is updated in place.
NAME, START, END, PARENT, OP, INFO = range(6)


def predictor_label(predictor) -> str:
    """Kind label of a predictor object, by what it carries."""
    if hasattr(predictor, "w_in"):
        return "mlp"
    order = getattr(predictor, "order", None)
    return f"lpc{order}" if order else "zero"


class Tracer:
    """In-memory span recorder; `op` tags each span with the running op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, describe):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if describe is not None:
                rec[INFO] = describe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap each (module, attribute, span name, describe) target; restore
        every original on exit, also after an error."""
        saved = []
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, describe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def targets(captured_nets: list):
    """The wrapped functions. `captured_nets` collects (frame, net) pairs
    from the first MLP fits for the predict replay."""

    def frame_info(args, result):
        return [predictor_label(args[2]), len(args[1])]

    def capture_net(args, result):
        if len(captured_nets) < CAPTURED_NETS:
            captured_nets.append((list(args[0]), result))

    return [
        (audio, "read_wav", "audio.read_wav", None),
        (audio, "write_wav", "audio.write_wav", None),
        (codec, "encode", "codec.encode", None),
        (codec, "decode", "codec.decode", None),
        (codec, "encode_frame", "codec.encode_frame", frame_info),
        (codec, "decode_frame", "codec.decode_frame", frame_info),
        (codec, "multistart_fit", "mlp.multistart_fit", capture_net),
        (bitstream, "serialize", "bitstream.serialize", None),
        (bitstream, "parse", "bitstream.parse", None),
        (lpc, "fit", "lpc.fit", None),
        (lpc, "autocorrelation", "lpc.autocorrelation", None),
        (lpc, "levinson", "lpc.levinson", lambda args, result: bool(result.halted)),
        (mlp, "lm_epoch", "mlp.lm_epoch", lambda args, result: bool(result[3])),
        (mlp, "residual_jacobian", "mlp.residual_jacobian", None),
        (mlp, "init_mlp", "mlp.init_mlp", None),
        (metrics, "segsnr", "metrics.segsnr", None),
    ]


def self_times(spans) -> list:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _median_of_replays(replay, *args) -> float:
    return statistics.median(replay(*args) for _ in range(REPLAYS))


def replay_quantizer(results) -> float:
    """ns per quantize+dequantize+adapt step over the run's own codes.

    Each op's codes are replayed from its configured initial step; the
    residual fed to `quantize` is the cell midpoint, which maps back to the
    same code.
    """
    steps = 0
    elapsed = 0.0
    for res in results:
        cfg = res.config
        q = AdaptiveQuantizer(bits=cfg.bits, step=cfg.step_init, step_min=cfg.step_min,
                              step_max=cfg.step_max, multipliers=cfg.multipliers)
        codes = [c for p in res.bitstream.payloads for c in p.codes][: REPLAY_CODES - steps]
        start = time.perf_counter()
        for c in codes:
            q.quantize((c + 0.5) * q.step)
            q.dequantize(c)
            q = q.adapt(c)
        elapsed += time.perf_counter() - start
        steps += len(codes)
        if steps >= REPLAY_CODES:
            break
    return elapsed / steps * 1e9 if steps else 0.0


def replay_mlp_predict(captured_nets) -> float:
    """ns per `Mlp.predict` over the histories of the captured training frames."""
    cases = []
    for frame, net in captured_nets:
        cases += [(net, frame[n - HISTORY_LEN : n]) for n in range(HISTORY_LEN, len(frame))]
    if not cases:
        return 0.0
    cases = (cases * (REPLAY_PREDICTS // len(cases) + 1))[:REPLAY_PREDICTS]
    start = time.perf_counter()
    for net, history in cases:
        net.predict(history)
    return (time.perf_counter() - start) / len(cases) * 1e9


def layer_metrics(spans, ops, first_pass, captured_nets, trace_overhead) -> dict:
    """Per-layer metrics of a traced run.

    Times average over every traced call; counts and ratios of counts cover
    the first traced pass over the ops only, so they repeat exactly.
    `first_pass` holds that pass's successful op results.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def mean(name, scale):
        idx = by_name[name]
        return sum(dur(i) for i in idx) / len(idx) * scale if idx else 0.0

    def first_pass_spans(name):
        return [spans[i] for i in by_name[name] if spans[i][OP][0] == 0]

    def per_audio_s(name, scale, method=None):
        idx = [i for i in by_name[name]
               if method is None or ops[spans[i][OP][1]].method == method]
        audio_s = sum(ops[spans[i][OP][1]].audio_s for i in idx)
        return sum(dur(i) for i in idx) / audio_s * scale if audio_s else 0.0

    def true_ratio(name):
        infos = [s[INFO] for s in first_pass_spans(name)]
        return sum(1 for v in infos if v) / len(infos) if infos else 0.0

    out = {}
    for fn in ("encode_frame", "decode_frame"):
        name = f"codec.{fn}"
        for kind in KINDS:
            idx = [i for i in by_name[name] if spans[i][INFO] and spans[i][INFO][0] == kind]
            samples = sum(spans[i][INFO][1] for i in idx)
            out[f"{name}.us_per_sample.{kind}"] = (
                sum(dur(i) for i in idx) / samples * 1e6 if samples else 0.0)
        out[f"{name}.calls"] = len(first_pass_spans(name))
    loop_self = sum(own[i] for n in ("codec.encode_frame", "codec.decode_frame")
                    for i in by_name[n])
    codec_time = sum(dur(i) for n in ("codec.encode", "codec.decode") for i in by_name[n])
    out["codec.kernel_share"] = loop_self / codec_time if codec_time else 0.0

    codes = [(c, r.config.bits) for r in first_pass
             for p in r.bitstream.payloads for c in p.codes]
    overload = sum(1 for c, bits in codes if c in (-(1 << (bits - 1)), (1 << (bits - 1)) - 1))
    out["quantizer.step_ns"] = _median_of_replays(replay_quantizer, first_pass)
    out["quantizer.overload_ratio"] = overload / len(codes) if codes else 0.0

    out["lpc.autocorrelation.us"] = mean("lpc.autocorrelation", 1e6)
    out["lpc.levinson.us"] = mean("lpc.levinson", 1e6)
    out["lpc.fit.calls"] = len(first_pass_spans("lpc.fit"))
    out["lpc.halted_ratio"] = true_ratio("lpc.levinson")

    out["mlp.multistart_fit.ms"] = mean("mlp.multistart_fit", 1e3)
    out["mlp.multistart_fit.calls"] = len(first_pass_spans("mlp.multistart_fit"))
    out["mlp.lm_epoch.us"] = mean("mlp.lm_epoch", 1e6)
    out["mlp.lm_epoch.calls"] = len(first_pass_spans("mlp.lm_epoch"))
    out["mlp.lm_accept_ratio"] = true_ratio("mlp.lm_epoch")
    out["mlp.residual_jacobian.us"] = mean("mlp.residual_jacobian", 1e6)
    out["mlp.init_mlp.us"] = mean("mlp.init_mlp", 1e6)
    out["mlp.predict.ns"] = _median_of_replays(replay_mlp_predict, captured_nets)
    fit_time = sum(dur(i) for i in by_name["mlp.multistart_fit"])
    out["mlp.fit_share"] = fit_time / codec_time if codec_time else 0.0

    out["bitstream.serialize.us_per_audio_s"] = per_audio_s("bitstream.serialize", 1e6)
    out["bitstream.parse.us_per_audio_s"] = per_audio_s("bitstream.parse", 1e6)
    first_audio = sum(r.op.audio_s for r in first_pass)
    out["bitstream.bytes_per_audio_s"] = (
        sum(len(r.stream) for r in first_pass) / first_audio if first_audio else 0.0)
    out["audio.read_wav.us_per_audio_s"] = per_audio_s("audio.read_wav", 1e6)
    out["audio.write_wav.us_per_audio_s"] = per_audio_s("audio.write_wav", 1e6)
    out["metrics.segsnr.us_per_audio_s"] = per_audio_s("metrics.segsnr", 1e6)

    for fn in ("encode", "decode"):
        for method in harness.METHODS:
            out[f"codec.{fn}.ms_per_audio_s.{method}"] = per_audio_s(f"codec.{fn}", 1e3, method)
    out["trace_overhead"] = trace_overhead
    return out
