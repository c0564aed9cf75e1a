"""nadpcm codec benchmark: closed-loop encode/decode throughput on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload speech-linear --seed 1 --seconds 30 --trace 0

One caller codes one op at a time (closed loop); an op is one signal coded by
one method at one bit depth, through the same public calls the CLI makes:
WAV bytes -> audio.read_wav -> codec.encode -> bitstream.serialize (encode),
then bitstream.parse -> codec.decode -> audio.write_wav (decode). The loop
repeats passes over the workload's ops for --seconds, after one full pass at
least. Every op is checked; a failed op is counted and the run goes on.

--trace 0 prints the end-to-end metrics. --trace 1 spends half the time
untraced and half with the codec's layer functions wrapped (tracing.py) and
prints the per-layer metrics. The last stdout line is one JSON object; the
full run record goes to .perfbench/<workload>-seed<seed>-trace<trace>.json.
"""

import time

SCRIPT_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SETUP_RUNS = 9  # setup_s is the median of this many set-ups, this process included
OUT_DIR = Path(".perfbench")

END_TO_END_UNITS = {
    "encode_audio_s_per_s": "audio-s/s",
    "decode_audio_s_per_s": "audio-s/s",
    "segsnr_db": "dB",
    "stream_kbps": "kbit/s",
    "ops_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_codec():
    """Import nadpcm from ./src of the checkout, never from an installed copy."""
    src = Path("src").resolve()
    if not (src / "nadpcm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nadpcm sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import nadpcm  # noqa: F401


@dataclass
class OpResult:
    op: object
    config: object
    bitstream: object
    stream: bytes
    wav_out: bytes
    encode_s: float
    decode_s: float
    errors: list


def run_op(op, config, tracer):
    """Encode and decode one op the way the CLI does, then check the outputs."""
    import numpy as np
    from nadpcm import audio, bitstream, codec

    with tracer.span("op.encode"):
        t0 = time.perf_counter()
        signal = audio.read_wav(io.BytesIO(op.wav))
        encoded = codec.encode(signal, config)
        stream = bitstream.serialize(encoded.bitstream)
        t1 = time.perf_counter()
    with tracer.span("op.decode"):
        t2 = time.perf_counter()
        parsed = bitstream.parse(stream)
        decoded = codec.decode(parsed)
        out = io.BytesIO()
        audio.write_wav(out, decoded)
        t3 = time.perf_counter()

    errors = []
    if parsed != encoded.bitstream:
        errors.append("parse(serialize(bs)) != bs")
    if decoded.samples.tobytes() != encoded.reconstruction.samples.tobytes():
        errors.append("decoded samples differ from the encoder's reconstruction")
    if not np.isfinite(decoded.samples).all():
        errors.append("non-finite decoded samples")
    result = OpResult(op, config, encoded.bitstream, stream, out.getvalue(), t1 - t0, t3 - t2, errors)
    return result, signal, decoded


class Untraced:
    """Stands in for a tracing.Tracer when nothing is traced."""

    op = None

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


@dataclass
class Phase:
    """Timings and checks of one measured loop over the ops."""

    encode_s: list          # per op: every encode time measured
    decode_s: list
    first_pass: list = field(default_factory=list)   # successful OpResults of pass 0
    segments_db: list = field(default_factory=list)  # pooled per-segment SNRs of pass 0
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    errors: list = field(default_factory=list)

    def codec_seconds(self, which: str) -> float:
        """Sum over ops of each op's best time: one pass at undisturbed speed.

        Best-of-N rather than the median, because on a shared machine whole
        stretches of a run slow down by tens of percent; README.md has the
        measurements behind this choice.
        """
        return sum(min(t) for t in getattr(self, which) if t)

    def audio_seconds(self, ops) -> float:
        return sum(op.audio_s for op, t in zip(ops, self.encode_s) if t)


def measure(ops, configs, seconds: float, tracer, between_passes=None) -> Phase:
    """Closed loop over the ops for `seconds`, after one full pass at least.

    `between_passes(fraction_of_seconds_elapsed)` runs after each pass,
    outside every timed region; its time does not count toward `seconds`.
    """
    from nadpcm import harness, metrics

    phase = Phase([[] for _ in ops], [[] for _ in ops])
    deadline = time.perf_counter() + seconds
    while phase.passes == 0 or time.perf_counter() < deadline:
        for i, (op, config) in enumerate(zip(ops, configs)):
            if phase.passes and time.perf_counter() >= deadline:
                break
            tracer.op = [phase.passes, i]
            phase.attempted += 1
            try:
                result, signal, decoded = run_op(op, config, tracer)
                if phase.passes == 0 and not result.errors:
                    report = metrics.segsnr(signal, decoded, harness.SEGSNR_WINDOW)
                    phase.segments_db += report.per_segment_db
            except Exception:
                phase.failed += 1
                phase.errors.append(f"{op.signal} {op.method} {op.bits}b: {traceback.format_exc()}")
                continue
            if result.errors:
                phase.failed += 1
                phase.errors.append(f"{op.signal} {op.method} {op.bits}b: {'; '.join(result.errors)}")
                continue
            phase.encode_s[i].append(result.encode_s)
            phase.decode_s[i].append(result.decode_s)
            if phase.passes == 0:
                phase.first_pass.append(result)
        phase.passes += 1
        if between_passes is not None:
            paused = time.perf_counter()
            between_passes(1.0 - (deadline - paused) / seconds if seconds else 1.0)
            deadline += time.perf_counter() - paused
    return phase


def build_configs(ops):
    from nadpcm import CodecConfig, harness

    configs = []
    for op in ops:
        kind, adaptation = harness.METHODS[op.method]
        configs.append(CodecConfig(frame_len=op.frame_len, bits=op.bits,
                                   predictor_kind=kind, adaptation=adaptation))
    return configs


def set_up(workload: str, seed: int):
    """Import the codec and build the workload: the work before the first op."""
    import_codec()
    import workloads

    ops = workloads.build_ops(workloads.WORKLOADS[workload], seed)
    return ops, build_configs(ops)


class SetupSampler:
    """Set-up times: this process's own, then fresh interpreters that run the
    same set-up and exit, one at a time. `due` spreads the probes over the
    measured loop, so one slow stretch of the machine cannot hold them all."""

    def __init__(self, workload: str, seed: int, own: float):
        self.cmd = [sys.executable, __file__, "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.samples = [own]

    def probe(self) -> None:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(done.stdout.split()[-1]))

    def due(self, fraction_elapsed: float) -> None:
        if len(self.samples) < SETUP_RUNS and fraction_elapsed >= len(self.samples) / SETUP_RUNS:
            self.probe()

    def all(self) -> list:
        while len(self.samples) < SETUP_RUNS:
            self.probe()
        return self.samples


def end_to_end(ops, phase: Phase, setup: list) -> dict:
    audio_s = phase.audio_seconds(ops)
    first_audio = sum(r.op.audio_s for r in phase.first_pass)
    return {
        "encode_audio_s_per_s": audio_s / phase.codec_seconds("encode_s"),
        "decode_audio_s_per_s": audio_s / phase.codec_seconds("decode_s"),
        "segsnr_db": statistics.fmean(phase.segments_db),
        "stream_kbps": sum(len(r.stream) for r in phase.first_pass) * 8 / 1000 / first_audio,
        "ops_ok_ratio": (phase.attempted - phase.failed) / phase.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_state():
    """(rev, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not Path(".git").exists():
        return None, None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=60, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=60, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return rev, bool(status.strip())


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    rev, dirty = git_state()
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        # null: the BLAS library's default thread count
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def digest(results) -> str:
    """SHA-256 over the streams and decoded WAV bytes of a pass, in op order."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.stream)
        h.update(r.wav_out)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up seconds (used for setup_s)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    ops, configs = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - SCRIPT_START
    if args.setup_probe:
        print(setup_s)
        return 0

    load_start = os.getloadavg()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops_per_pass": len(ops),
              "audio_s_per_pass": sum(op.audio_s for op in ops)}
    if args.trace:
        import tracing

        untraced = measure(ops, configs, args.seconds / 2, Untraced)
        tracer = tracing.Tracer()
        nets = []
        with tracer.installed(tracing.targets(nets)):
            traced = measure(ops, configs, args.seconds / 2, tracer)
        phases = [untraced, traced]
        overhead = traced.codec_seconds("encode_s") + traced.codec_seconds("decode_s")
        overhead /= untraced.codec_seconds("encode_s") + untraced.codec_seconds("decode_s")
        values = tracing.layer_metrics(tracer.spans, ops, traced.first_pass, nets, overhead)
        units = tracing.PER_LAYER_UNITS
    else:
        sampler = SetupSampler(args.workload, args.seed, setup_s)
        phase = measure(ops, configs, args.seconds, Untraced, sampler.due)
        phases = [phase]
        setup = sampler.all()
        record["setup_samples_s"] = setup
        values = end_to_end(ops, phase, setup)
        units = END_TO_END_UNITS

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record.update(environment())
    record.update({
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "passes": [p.passes for p in phases],
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "errors": [e for p in phases for e in p.errors][:20],
        "digest_sha256": digest(phases[-1].first_pass),
        "ops": [{"signal": op.signal, "method": op.method, "bits": op.bits,
                 "audio_s": op.audio_s, "encode_s": p_enc, "decode_s": p_dec}
                for op, p_enc, p_dec in zip(ops, phases[-1].encode_s, phases[-1].decode_s)],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")

    for name, value in values.items():
        print(f"{name:44s} {value:14.6f} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
