"""Command-line front end: encode, decode, eval, the experiments, usage.

The experiments are epoch-sweep, epoch-histogram and frame-length-sweep.
Each subcommand accepts only the flags it reads. Exit codes: 0 success,
1 usage or configuration error, 2 I/O error, 3 malformed bitstream.
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
from .quantizer import MULTIPLIERS

PREDICTORS = {k.name.lower(): k for k in PredictorKind}
MODES = {k.name.lower(): k for k in Adaptation}


class CliError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kw):  # no abbreviations: `--bits` must not mean `--bits-list`
        super().__init__(allow_abbrev=False, **kw)

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


def _int_list(text):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def _lengths(text):
    """Frame lengths as start:step:stop (inclusive) or a comma list."""
    if ":" not in text:
        return _int_list(text)
    try:
        start, step, stop = (int(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}; expected start:step:stop")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return list(range(start, stop + 1, step))


def _methods(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _listed_once(name, parse, entry):
    """argparse type: `parse`'s list, refused by `harness._require_listed_once` or `entry`."""
    def parse_list(text):
        values = parse(text)
        try:
            harness._require_listed_once(**{name: values})
            for value in values:
                entry(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad list {text!r}: {exc}") from None
        return values
    return parse_list


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


def _config_flags(*unread) -> _Parser:
    """Every config field's default, and a flag for each field not named in `unread`."""
    c = CodecConfig  # class attributes hold the field defaults
    p = _Parser(add_help=False)
    p.set_defaults(predictor_kind=c.predictor_kind.name.lower(),
                   adaptation=c.adaptation.name.lower())
    def add(option, **kw):
        dest = option[2:].replace("-", "_")
        p.set_defaults(**{dest: kw["default"]})
        if dest not in unread:
            p.add_argument(option, **kw)
    add("--bits", type=int, default=c.bits, choices=tuple(MULTIPLIERS),
        help="quantizer bits per sample (2-5)")
    add("--frame-len", type=int, default=c.frame_len, help="coding frame length in samples")
    add("--seed", type=int, default=c.seed,
        help="base seed for neural predictor training (frame k: seed XOR k)")
    return p


def _io_flags(p: _Parser, raw_input=True) -> None:
    p.add_argument("--format", choices=("wav", "raw"), default=None,
                   help="audio container (default: inferred from extension)")
    if raw_input:
        p.add_argument("--sample-rate", type=int, default=8000, help="raw PCM input rate in Hz")


def build_parser() -> _Parser:
    parser = _Parser(prog="nadpcm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    bits_list = _listed_once("bits_list", _int_list, lambda bits: CodecConfig(bits=bits))
    methods = _listed_once("methods", _methods, harness._method)

    enc = sub.add_parser("encode", parents=[_config_flags()], help="encode audio to a bitstream")
    enc.add_argument("--predictor", dest="predictor_kind", choices=sorted(PREDICTORS),
                     help="short-term predictor")
    enc.add_argument("--mode", dest="adaptation", choices=sorted(MODES), help="adaptation mode")
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
    _io_flags(dec, raw_input=False)
    dec.set_defaults(func=cmd_decode)

    ev = sub.add_parser("eval", parents=[_config_flags("bits")],
                        help="method-comparison SEGSNR table over a corpus")
    ev.add_argument("--in", dest="infiles", required=True, nargs="+", help="corpus audio paths")
    ev.add_argument("--out", default=None, help="write the method table CSV here")
    ev.add_argument("--bits-list", type=bits_list, default="2,3,4,5", help="comma list of depths")
    ev.add_argument("--methods", type=methods, default=",".join(harness.METHODS),
                    help="comma list of method names")
    ev.add_argument("--significance-n", type=_positive_int, default=None,
                    help="sample count for the z-test (default: evaluated frames)")
    _io_flags(ev)
    ev.set_defaults(func=cmd_eval)

    def experiment(name, func, text, *unread):
        p = sub.add_parser(name, parents=[_config_flags(*unread)], help=text)
        p.add_argument("--in", dest="infile", required=True, help="input audio path")
        p.add_argument("--out", default=None, help="write the table CSV here")
        _io_flags(p)
        p.set_defaults(func=func)
        return p

    ep = experiment("epoch-sweep", cmd_epoch_sweep, "SEGSNR per training epoch on one frame pair")
    ep.add_argument("--frame-pair-index", type=_int_at_least(0), default=0,
                    help="first frame of the train/test pair")
    hist = experiment("epoch-histogram", cmd_epoch_histogram,
                      "optimal-epoch histogram over frame pairs")
    for p in (ep, hist):  # they train the MLP, so their config is the MLP's
        p.set_defaults(predictor_kind="mlp")
        p.add_argument("--max-epochs", type=_positive_int, default=100, help="LM epochs per net")
    fl = experiment("frame-length-sweep", cmd_frame_length_sweep,
                    "SEGSNR per coding frame length", "frame_len", "bits")
    fl.add_argument("--lengths", type=_listed_once("lengths", _lengths,
                                                   lambda n: CodecConfig(frame_len=n)),
                    default="10:10:300", help="frame lengths as start:step:stop or a comma list")
    fl.add_argument("--bits-list", type=bits_list, default=str(CodecConfig.bits),
                    help="comma list of depths")
    fl.add_argument("--methods", type=methods, default="ADPCMB-LPC-10,ADPCMB-MLP",
                    help="comma list of methods")

    us = sub.add_parser("usage", help="hybrid predictor usage statistics")
    us.add_argument("--in", dest="infile", required=True, help="input bitstream path")
    us.set_defaults(func=cmd_usage)
    return parser


def cmd_encode(args) -> int:
    config = _codec_config(args)
    signal = _read_signal(args.infile, args.format, args.sample_rate)
    result = encode(signal, config)
    Path(args.out).write_bytes(serialize(result.bitstream))
    rate = config.payload_bit_rate(signal.sample_rate)
    print(f"frames: {len(result.bitstream.payloads)}")
    print(f"bit rate: {rate / 1000.0:.2f} kbps")
    _print_segsnr(segsnr(signal, result.reconstruction, args.segment_len or config.frame_len))
    return 0


def _print_segsnr(report) -> None:
    if report.segments_used:
        print(f"segsnr: {report.mean_db:.2f} dB over {report.segments_used} segments")
    else:
        print("segsnr: no scored segments")


def cmd_decode(args) -> int:
    if (args.csv or args.segment_len) and not args.reference:
        raise CliError(f"--{'csv' if args.csv else 'segment-len'} needs --reference")
    bitstream = parse(Path(args.infile).read_bytes())
    rate = bitstream.header.sample_rate
    if args.reference:
        reference = _read_signal(args.reference, None, rate)
        if reference.sample_rate != rate:
            raise CliError(f"reference is at {reference.sample_rate} Hz, "
                           f"the stream at {rate} Hz")
        count = bitstream.header.true_sample_count
        if len(reference) != count:
            raise CliError(f"reference has {len(reference)} samples, the stream {count}")
    signal = decode(bitstream)
    _write_signal(args.out, signal, args.format)
    print(f"decoded: {len(signal)} samples at {signal.sample_rate} Hz")
    if args.reference:
        segment_len = args.segment_len or bitstream.header.config.frame_len
        report = segsnr(reference, signal, segment_len)
        _print_segsnr(report)
        if args.csv:
            Path(args.csv).write_text(harness.segsnr_report_csv(report))
    return 0


def _emit(table: str, out) -> None:
    sys.stdout.write(table)
    if out:
        Path(out).write_text(table)


def cmd_eval(args) -> int:
    config = _codec_config(args)
    # a generator: evaluate_methods builds every run's config before it reads a file
    corpus = (_read_signal(p, args.format, args.sample_rate) for p in args.infiles)
    rows = harness.evaluate_methods(corpus, args.bits_list, args.methods, config)
    _emit(harness.method_rows_csv(rows), args.out)
    for bits in args.bits_list:
        group = [r for r in rows if r.bits == bits]
        frames = group[0].frames_evaluated  # one corpus and segment length per depth
        if not frames:
            print(f"z[{bits} bits]: no evaluated frames")
            continue
        for pair in harness.significance_matrix(group, args.significance_n or frames):
            verdict = "significant" if pair.significant else "not significant"
            print(f"z[{bits} bits] {pair.method_a} vs {pair.method_b}: "
                  f"{pair.z:.3f} ({verdict})")
    return 0


def cmd_epoch_sweep(args) -> int:
    config = _codec_config(args)
    signal = _read_signal(args.infile, args.format, args.sample_rate)
    curve = harness.epoch_sweep(signal, args.frame_pair_index, args.max_epochs, config)
    peak = curve.x_values[curve.y_test_db.index(max(curve.y_test_db))]
    print(f"test curve peaks at epoch {peak}")
    _emit(harness.export_csv(["epoch", "train_db", "test_db"],
                             zip(curve.x_values, curve.y_train_db, curve.y_test_db)), args.out)
    return 0


def cmd_epoch_histogram(args) -> int:
    config = _codec_config(args)
    signal = _read_signal(args.infile, args.format, args.sample_rate)
    hist = harness.optimal_epoch_histogram(signal, args.max_epochs, config)
    expanded = [epoch for epoch, pct in hist.items() for _ in range(round(pct * 100))]
    print(f"median optimal epoch: {statistics.median(expanded):g}")
    _emit(harness.export_csv(["epoch", "percent"], sorted(hist.items())), args.out)
    return 0


def cmd_frame_length_sweep(args) -> int:
    config = _codec_config(args)
    signal = _read_signal(args.infile, args.format, args.sample_rate)
    records, skipped = harness.frame_length_sweep(
        signal, args.lengths, args.bits_list, args.methods, config)
    for method, bits, length, reason in skipped:
        print(f"skipped {method} Nq={bits} frame_len={length}: {reason}")
    columns = ["method", "bits", "frame_len", "segsnr_mean", "segments"]
    _emit(harness.export_csv(columns, [[r[c] for c in columns] for r in records]), args.out)
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
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BitstreamError) else 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
