"""Command-line front end: encode, decode, eval, sweep, usage.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error,
3 malformed bitstream.
"""

import argparse
import statistics
import sys
from pathlib import Path

from . import audio, harness
from .bitstream import (
    Adaptation,
    BitstreamError,
    CodecConfig,
    PredictorKind,
    config_from,
    parse,
    serialize,
)
from .codec import decode, encode
from .metrics import segsnr
from .mlp import TrainConfig
from .quantizer import DEFAULT_MULTIPLIERS

PREDICTORS = {k.name.lower(): k for k in PredictorKind}
MODES = {k.name.lower(): k for k in Adaptation}


class CliError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _audio_format(path: str, explicit) -> str:
    if explicit:
        return explicit
    return "wav" if path.lower().endswith(".wav") else "raw"


def _read_signal(path: str, fmt, sample_rate: int) -> audio.Signal:
    if _audio_format(path, fmt) == "wav":
        return audio.read_wav(path)
    return audio.load_pcm16(Path(path).read_bytes(), sample_rate)


def _write_signal(path: str, signal: audio.Signal, fmt) -> None:
    if _audio_format(path, fmt) == "wav":
        audio.write_wav(path, signal)
    else:
        Path(path).write_bytes(audio.save_pcm16(signal))


def _parse_multipliers(text):
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"bad --multipliers value {text!r}; expected comma-separated reals")


def _parse_int_list(text):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"bad integer list {text!r}")


def _parse_lengths(text):
    """Frame lengths as start:step:stop (inclusive) or a comma list."""
    if ":" in text:
        try:
            start, step, stop = (int(p) for p in text.split(":"))
        except ValueError:
            raise CliError(f"bad --lengths value {text!r}; expected start:step:stop")
        if step <= 0 or stop < start:
            raise CliError(f"bad --lengths range {text!r}")
        return list(range(start, stop + 1, step))
    return _parse_int_list(text)


def _parse_methods(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_at_least(minimum):
    """argparse type: an integer no smaller than minimum."""
    def parse_int(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse_int.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse_int


_positive_int = _int_at_least(1)


def _codec_config(args) -> CodecConfig:
    """The config flags, bound to config fields by their dest names."""
    return config_from({**vars(args), "predictor_kind": PREDICTORS[args.predictor_kind],
                        "adaptation": MODES[args.adaptation]})


def _config_flags() -> _Parser:
    c, t = CodecConfig, TrainConfig  # class attributes hold the field defaults
    p = _Parser(add_help=False)
    p.add_argument("--bits", type=int, default=c.bits, choices=tuple(DEFAULT_MULTIPLIERS),
                   help="quantizer bits per sample (2-5)")
    p.add_argument("--frame-len", type=int, default=c.frame_len,
                   help="coding frame length in samples")
    p.add_argument("--predictor", dest="predictor_kind", default=c.predictor_kind.name.lower(),
                   choices=sorted(PREDICTORS), help="short-term predictor")
    p.add_argument("--mode", dest="adaptation", default=c.adaptation.name.lower(),
                   choices=sorted(MODES), help="adaptation mode")
    p.add_argument("--epochs", type=int, default=t.epochs, help="LM training epochs per fit")
    p.add_argument("--restarts", type=int, default=t.restarts,
                   help="multistart random initializations")
    p.add_argument("--seed", type=int, default=c.seed,
                   help="base seed for neural predictor training")
    p.add_argument("--delta0", dest="step_init", type=float, default=c.step_init,
                   help="initial quantizer step")
    p.add_argument("--delta-min", dest="step_min", type=float, default=c.step_min,
                   help="quantizer step floor")
    p.add_argument("--delta-max", dest="step_max", type=float, default=c.step_max,
                   help="quantizer step ceiling")
    p.add_argument("--multipliers", type=_parse_multipliers, default=c.multipliers,
                   help="comma-separated step multipliers")
    p.add_argument("--lambda-init", type=float, default=t.lambda_init, help="initial LM damping")
    p.add_argument("--lambda-up", type=float, default=t.lambda_up,
                   help="damping factor on rejection")
    p.add_argument("--lambda-down", type=float, default=t.lambda_down,
                   help="damping factor on acceptance")
    p.add_argument("--init-scale", type=float, default=t.init_scale,
                   help="weight init range half-width")
    return p


def _io_flags(p: _Parser) -> None:
    p.add_argument("--format", choices=("wav", "raw"), default=None,
                   help="audio container (default: inferred from extension)")
    p.add_argument("--sample-rate", type=int, default=8000,
                   help="sample rate in Hz for raw PCM input")


def build_parser() -> _Parser:
    parser = _Parser(prog="nadpcm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    enc = sub.add_parser("encode", parents=[_config_flags()], help="encode audio to a bitstream")
    enc.add_argument("--in", dest="infile", required=True, help="input audio path")
    enc.add_argument("--out", required=True, help="output bitstream path")
    enc.add_argument("--segment-len", type=_positive_int, default=None,
                     help="SEGSNR segment length (default: frame length)")
    _io_flags(enc)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode a bitstream to audio")
    dec.add_argument("--in", dest="infile", required=True, help="input bitstream path")
    dec.add_argument("--out", required=True, help="output audio path")
    dec.add_argument("--reference", default=None, help="original audio for SEGSNR reporting")
    dec.add_argument("--csv", default=None, help="write per-segment SNR CSV here")
    dec.add_argument("--segment-len", type=_positive_int, default=None,
                     help="SEGSNR segment length (default: frame length from header)")
    _io_flags(dec)
    dec.set_defaults(func=cmd_decode)

    ev = sub.add_parser("eval", parents=[_config_flags()],
                        help="method-comparison SEGSNR table over a corpus")
    ev.add_argument("--in", dest="infiles", required=True, nargs="+", help="corpus audio paths")
    ev.add_argument("--out", default=None, help="write the method table CSV here")
    ev.add_argument("--bits-list", default="2,3,4,5", help="comma list of quantizer depths")
    ev.add_argument("--methods", default=",".join(harness.METHODS),
                    help="comma list of method names")
    ev.add_argument("--significance-n", type=_positive_int, default=None,
                    help="sample count for the z-test (default: evaluated frames)")
    _io_flags(ev)
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", parents=[_config_flags()],
                        help="epoch, frame-length, or optimal-epoch sweeps")
    sw.add_argument("--kind", required=True, choices=("epochs", "frame-length", "histogram"))
    sw.add_argument("--in", dest="infile", required=True, help="input audio path")
    sw.add_argument("--out", default=None, help="write the sweep CSV here")
    sw.add_argument("--frame-pair-index", type=_int_at_least(0), default=0,
                    help="first frame of the train/test pair (epochs sweep)")
    sw.add_argument("--max-epochs", type=_positive_int, default=100,
                    help="epoch range for epochs/histogram sweeps")
    sw.add_argument("--restart-seed", type=int, default=0,
                    help="initialization seed for the epochs sweep")
    sw.add_argument("--lengths", default="10:10:300",
                    help="frame lengths as start:step:stop or a comma list")
    sw.add_argument("--bits-list", default=None,
                    help="comma list of depths for the frame-length sweep (default: --bits)")
    sw.add_argument("--methods", default="ADPCMB-LPC-10,ADPCMB-MLP",
                    help="comma list of methods for the frame-length sweep")
    _io_flags(sw)
    sw.set_defaults(func=cmd_sweep)

    us = sub.add_parser("usage", help="hybrid predictor usage statistics")
    us.add_argument("--in", dest="infile", required=True, help="input bitstream path")
    us.set_defaults(func=cmd_usage)
    return parser


def cmd_encode(args) -> int:
    signal = _read_signal(args.infile, args.format, args.sample_rate)
    config = _codec_config(args)
    result = encode(signal, config)
    Path(args.out).write_bytes(serialize(result.bitstream))
    rate = config.payload_bit_rate(signal.sample_rate)
    print(f"frames: {len(result.bitstream.payloads)}")
    print(f"bit rate: {rate / 1000.0:.2f} kbps")
    report = segsnr(signal, result.reconstruction, args.segment_len or config.frame_len)
    print(f"segsnr: {report.mean_db:.2f} dB over {report.segments_used} segments")
    return 0


def cmd_decode(args) -> int:
    if args.csv and not args.reference:
        raise CliError("--csv needs --reference")
    bitstream = parse(Path(args.infile).read_bytes())
    signal = decode(bitstream)
    _write_signal(args.out, signal, args.format)
    print(f"decoded: {len(signal)} samples at {signal.sample_rate} Hz")
    if args.reference:
        reference = _read_signal(args.reference, None, signal.sample_rate)
        segment_len = args.segment_len or bitstream.header.config.frame_len
        report = segsnr(reference, signal, segment_len)
        print(f"segsnr: {report.mean_db:.2f} dB over {report.segments_used} segments")
        if args.csv:
            Path(args.csv).write_text(harness.segsnr_report_csv(report))
    return 0


def cmd_eval(args) -> int:
    corpus = [_read_signal(p, args.format, args.sample_rate) for p in args.infiles]
    bits_list = _parse_int_list(args.bits_list)
    methods = _parse_methods(args.methods)
    rows = harness.evaluate_methods(corpus, bits_list, methods, _codec_config(args))
    table = harness.method_rows_csv(rows)
    sys.stdout.write(table)
    if args.out:
        Path(args.out).write_text(table)
    for bits in bits_list:
        group = [r for r in rows if r.bits == bits]
        if len(group) < 2:
            continue
        n = args.significance_n or max(1, min(r.frames_evaluated for r in group))
        for pair in harness.significance_matrix(group, n):
            if pair.method_a == pair.method_b:
                continue
            verdict = "significant" if pair.significant else "not significant"
            print(f"z[{bits} bits] {pair.method_a} vs {pair.method_b}: "
                  f"{pair.z:.3f} ({verdict})")
    return 0


def cmd_sweep(args) -> int:
    signal = _read_signal(args.infile, args.format, args.sample_rate)
    config = _codec_config(args)
    if args.kind == "epochs":
        curve = harness.epoch_sweep(signal, args.frame_pair_index, args.max_epochs,
                                    args.restart_seed, config)
        table = harness.export_csv(
            ["epoch", "train_db", "test_db"],
            zip(curve.x_values, curve.y_train_db, curve.y_test_db),
        )
        best = max(range(len(curve.y_test_db)), key=lambda i: curve.y_test_db[i])
        print(f"test curve peaks at epoch {curve.x_values[best]}")
    elif args.kind == "frame-length":
        bits_list = _parse_int_list(args.bits_list) if args.bits_list else [args.bits]
        methods = _parse_methods(args.methods)
        records, skipped = harness.frame_length_sweep(
            signal, _parse_lengths(args.lengths), bits_list, methods, config)
        table = harness.export_csv(
            ["method", "bits", "frame_len", "segsnr_mean", "segments"],
            [(r["method"], r["bits"], r["frame_len"], r["segsnr_mean"], r["segments"])
             for r in records],
        )
        for method, bits, length, reason in skipped:
            print(f"skipped {method} Nq={bits} frame_len={length}: {reason}")
    else:
        hist = harness.optimal_epoch_histogram(signal, args.max_epochs, config)
        table = harness.export_csv(["epoch", "percent"], sorted(hist.items()))
        expanded = [epoch for epoch, pct in hist.items() for _ in range(round(pct * 100))]
        print(f"median optimal epoch: {statistics.median(expanded):g}")
    sys.stdout.write(table)
    if args.out:
        Path(args.out).write_text(table)
    return 0


def cmd_usage(args) -> int:
    bitstream = parse(Path(args.infile).read_bytes())
    pct_mlp, pct_lpc = harness.predictor_usage(bitstream)
    print(f"frames: {len(bitstream.payloads)}")
    print(f"mlp: {pct_mlp:.1f}%")
    print(f"lpc: {pct_lpc:.1f}%")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BitstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
