"""Command-line interface: subcommands, output text, exit codes."""

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import MALFORMED_WAVS, formant_utterance
from nadpcm import (
    Adaptation,
    CodecConfig,
    PredictorKind,
    Signal,
    parse,
    save_pcm16,
    write_wav,
)
from nadpcm.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


@pytest.fixture
def pcm_file(tmp_path, ar_signal):
    path = tmp_path / "input.pcm"
    path.write_bytes(save_pcm16(ar_signal))
    return str(path)


@pytest.fixture
def wav_file(tmp_path, ar_signal):
    path = tmp_path / "input.wav"
    write_wav(str(path), ar_signal)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every config flag with a non-default value, and the config it must give.
CONFIG_FLAGS = [
    (["--bits", "3"], CodecConfig(bits=3)),
    (["--frame-len", "100"], CodecConfig(frame_len=100)),
    (["--predictor", "lpc25"], CodecConfig(predictor_kind=PredictorKind.LPC25)),
    (["--mode", "forward"], CodecConfig(adaptation=Adaptation.FORWARD)),
    (["--seed", "12345"], CodecConfig(seed=12345)),
    ([], CodecConfig()),
]


class TestConfigFlags:
    @pytest.mark.parametrize("flags, expected", CONFIG_FLAGS,
                             ids=[" ".join(f[:1]) or "none" for f, _ in CONFIG_FLAGS])
    def test_flag_sets_its_config_field(self, capsys, tmp_path, pcm_file, flags, expected):
        out = tmp_path / "o.nad"
        code, _, _ = run(capsys, "encode", "--in", pcm_file, "--out", str(out), *flags)
        assert code == 0
        assert parse(out.read_bytes()).header.config == expected


@pytest.mark.parametrize("argv", [
    "encode --segment-len 0",
    "encode --segment-len -3",
    "decode --segment-len 0",
    "eval --significance-n 0",
    "eval --significance-n -1",
    "epoch-sweep --max-epochs 0",
    "epoch-histogram --max-epochs -2",
    "epoch-sweep --frame-pair-index -1",
    "epoch-sweep --frame-pair-index -12",
])
def test_bad_count_refused_before_any_work(capsys, tmp_path, pcm_file, argv):
    command, *flags = argv.split()
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, command, "--in", pcm_file, "--out", str(out), *flags)
    assert code == 1
    assert stderr.startswith(f"error: argument {flags[-2]}: must be >= ")
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    "eval --predictor mlp",
    "eval --mode forward",
    "epoch-sweep --predictor hybrid",
    "frame-length-sweep --mode forward",
    "epoch-sweep --restart-seed 1",
    *[f"{command} {flag}" for command in ("epoch-sweep", "epoch-histogram")
      for flag in ("--epochs 3", "--restarts 2", "--lengths 20", "--methods ADPCMB-MLP",
                   "--bits-list 3")],
    *[f"{command} {flag}" for command in ("encode", "eval")
      for flag in ("--epochs 6", "--restarts 4")],
    "eval --bits 3",
    "epoch-histogram --frame-pair-index 1",
    "frame-length-sweep --frame-len 100",
    "frame-length-sweep --bits 3",
    "frame-length-sweep --max-epochs 2",
    "frame-length-sweep --frame-pair-index 1",
    "decode --sample-rate 8000",
])
def test_eval_and_sweep_refuse_flags_they_would_ignore(capsys, tmp_path, pcm_file, argv):
    # eval and the experiments set kind and mode per method, and eval and
    # frame-length-sweep the depth per run from --bits-list; the epoch
    # experiments train one net per frame pair for --max-epochs, --seed
    # seeds it; frame-length-sweep codes each run at a length from
    # --lengths; every MLP fit runs the constant epoch and restart counts;
    # decode reads the reference at the stream's rate
    command, *flags = argv.split()
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, command, "--in", pcm_file, "--out", str(out), *flags)
    assert code == 1
    assert stderr == f"error: unrecognized arguments: {' '.join(flags[-2:])}\n"
    assert stdout == "" and not out.exists()


# The option flags of each subcommand, -h/--help included: each one is read.
CONFIG_OPTIONS = {"--bits", "--seed"}
IO_OPTIONS = {"-h", "--help", "--in", "--out", "--format", "--sample-rate"}
SUBCOMMAND_OPTIONS = {
    "encode": CONFIG_OPTIONS | IO_OPTIONS | {"--frame-len", "--predictor", "--mode",
                                             "--segment-len"},
    "decode": {"-h", "--help", "--in", "--out", "--format", "--reference", "--csv",
               "--segment-len"},
    "eval": IO_OPTIONS | {"--seed", "--frame-len", "--bits-list", "--methods",
                          "--significance-n"},
    "epoch-sweep": CONFIG_OPTIONS | IO_OPTIONS | {"--frame-len", "--frame-pair-index",
                                                  "--max-epochs"},
    "epoch-histogram": CONFIG_OPTIONS | IO_OPTIONS | {"--frame-len", "--max-epochs"},
    "frame-length-sweep": IO_OPTIONS | {"--seed", "--lengths", "--bits-list", "--methods"},
    "usage": {"-h", "--help", "--in"},
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    [subcommands] = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = {name: {s for a in p._actions for s in a.option_strings}
               for name, p in subcommands.choices.items()}
    assert options == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv", [
    "eval --bits-list 4,x",
    "frame-length-sweep --bits-list 3,",
    "frame-length-sweep --lengths 10:x:20",
    # an empty or repeating list, an unknown method and a depth --bits refuses
    "eval --methods ,",
    "eval --bits-list 4,4",
    "eval --methods FOO",
    "eval --bits-list 7",
    "frame-length-sweep --lengths 20,20",
    "frame-length-sweep --lengths 20,65536",
    "frame-length-sweep --methods ADPCMB-MLP,ADPCMB-MLP",
])
def test_malformed_list_refused_before_reading_audio(capsys, tmp_path, argv):
    command, *flags = argv.split()
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, command, "--in", str(tmp_path / "missing.wav"),
                               "--out", str(out), *flags)
    assert code == 1  # not 2: the missing input is never opened
    assert stderr.startswith(f"error: argument {flags[-2]}: bad ") and repr(flags[-1]) in stderr
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv, message", [
    ("encode --frame-len 5 --predictor mlp", "frame_len 5 is below the 11-sample MLP minimum"),
    ("eval --frame-len 5", "frame_len 5 is below the 11-sample MLP minimum"),
    ("epoch-sweep --frame-len 5", "frame_len 5 is below the 11-sample MLP minimum"),
    ("epoch-histogram --frame-len 5", "frame_len 5 is below the 11-sample MLP minimum"),
    ("eval --frame-len 0", "frame_len must be >= 1, got 0"),
    ("epoch-sweep --frame-len 0", "frame_len must be >= 1, got 0"),
    ("epoch-histogram --frame-len 65536", "frame_len 65536 not representable in header"),
])
def test_bad_config_refused_before_reading_audio(capsys, tmp_path, argv, message):
    command, *flags = argv.split()
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, command, "--in", str(tmp_path / "missing.wav"),
                               "--out", str(out), *flags)
    assert code == 1  # not 2: the missing input is never opened
    assert stderr.startswith(f"error: {message}")
    assert stdout == "" and not out.exists()


class TestEncode:
    def test_reports_frames_rate_segsnr(self, capsys, tmp_path, pcm_file):
        out = str(tmp_path / "out.nad")
        code, stdout, _ = run(capsys, "encode", "--in", pcm_file, "--out", out)
        assert code == 0
        assert "frames: 10" in stdout
        assert "bit rate: 32.00 kbps" in stdout
        assert "segsnr:" in stdout and "10 segments" in stdout

    def test_hybrid_rate_includes_flag_bit(self, capsys, tmp_path, pcm_file):
        out = str(tmp_path / "out.nad")
        code, stdout, _ = run(capsys, "encode", "--in", pcm_file, "--out", out,
                              "--predictor", "hybrid")
        assert code == 0
        # 1 candidate bit per 200-sample frame (LPC-10 or the MLP)
        assert "bit rate: 32.04 kbps" in stdout

    def test_bits_out_of_range(self, capsys, tmp_path, pcm_file):
        code, _, stderr = run(capsys, "encode", "--in", pcm_file,
                              "--out", str(tmp_path / "o.nad"), "--bits", "7")
        assert code == 1
        assert "--bits" in stderr and "7" in stderr

    def test_sample_rate_beyond_header_refused(self, capsys, tmp_path, pcm_file):
        out = tmp_path / "o.nad"
        code, stdout, stderr = run(capsys, "encode", "--in", pcm_file, "--out", str(out),
                                   "--sample-rate", str(2**32))
        assert code == 1
        assert stderr == "error: sample_rate 4294967296 not representable in header\n"
        assert stdout == "" and not out.exists()

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "encode", "--in", str(tmp_path / "no.pcm"),
                              "--out", str(tmp_path / "o.nad"))
        assert code == 2
        assert stderr.startswith("error:")

    def test_deterministic_bitstream(self, capsys, tmp_path, pcm_file):
        a, b = str(tmp_path / "a.nad"), str(tmp_path / "b.nad")
        args = ["--in", pcm_file, "--predictor", "mlp"]
        assert run(capsys, "encode", *args, "--out", a)[0] == 0
        assert run(capsys, "encode", *args, "--out", b)[0] == 0
        assert (tmp_path / "a.nad").read_bytes() == (tmp_path / "b.nad").read_bytes()

    @pytest.mark.parametrize("flag", ["--delta0", "--delta-min", "--delta-max", "--multipliers"])
    def test_quantizer_constants_have_no_flag(self, capsys, tmp_path, pcm_file, flag):
        out = tmp_path / "o.nad"
        code, stdout, stderr = run(capsys, "encode", "--in", pcm_file, "--out", str(out),
                                   flag, "1")
        assert code == 1
        assert stderr == f"error: unrecognized arguments: {flag} 1\n"
        assert stdout == "" and not out.exists()

    def test_no_scored_segments(self, capsys, tmp_path, pcm_file):
        code, stdout, _ = run(capsys, "encode", "--in", pcm_file, "--out",
                              str(tmp_path / "o.nad"), "--segment-len", "100000")
        assert code == 0
        assert stdout.splitlines()[-1] == "segsnr: no scored segments"


class TestDecode:
    def test_reference_segsnr_matches_encoder(self, capsys, tmp_path, pcm_file):
        stream = str(tmp_path / "s.nad")
        _, enc_out, _ = run(capsys, "encode", "--in", pcm_file, "--out", stream)
        code, dec_out, _ = run(capsys, "decode", "--in", stream,
                               "--out", str(tmp_path / "round.pcm"),
                               "--reference", pcm_file)
        assert code == 0
        assert "decoded: 2000 samples at 8000 Hz" in dec_out
        enc_line = [l for l in enc_out.splitlines() if l.startswith("segsnr:")][0]
        dec_line = [l for l in dec_out.splitlines() if l.startswith("segsnr:")][0]
        assert enc_line == dec_line  # decoder tracks the encoder exactly

    def test_csv_export(self, capsys, tmp_path, pcm_file):
        stream = str(tmp_path / "s.nad")
        run(capsys, "encode", "--in", pcm_file, "--out", stream)
        csv_path = tmp_path / "segs.csv"
        code, _, _ = run(capsys, "decode", "--in", stream,
                         "--out", str(tmp_path / "r.pcm"),
                         "--reference", pcm_file, "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "segment_index,snr_db"
        assert lines[-1].startswith("mean,")

    def test_reference_at_another_rate_refused(self, capsys, tmp_path, ar_signal, pcm_file):
        # the same samples at 16 kHz, or half of them at 8 kHz: scoring either
        # against the 8 kHz decode of 2000 samples would compare two different
        # signals, so each is refused before anything is decoded or written
        stream = tmp_path / "s.nad"
        run(capsys, "encode", "--in", pcm_file, "--out", str(stream))
        for reference, error in [
                (Signal(ar_signal.samples, 16000),
                 "reference is at 16000 Hz, the stream at 8000 Hz"),
                (Signal(ar_signal.samples[:1000], 8000),
                 "reference has 1000 samples, the stream 2000")]:
            path, out = tmp_path / "ref.wav", tmp_path / "r.pcm"
            write_wav(str(path), reference)
            code, stdout, stderr = run(capsys, "decode", "--in", str(stream), "--out", str(out),
                                       "--reference", str(path))
            assert code == 1
            assert stderr == f"error: {error}\n"
            assert stdout == "" and not out.exists()

    def test_no_scored_segments(self, capsys, tmp_path, wav_file):
        stream = tmp_path / "s.nad"
        run(capsys, "encode", "--in", wav_file, "--out", str(stream))
        code, stdout, _ = run(capsys, "decode", "--in", str(stream),
                              "--out", str(tmp_path / "r.wav"), "--reference", wav_file,
                              "--segment-len", "100000")
        assert code == 0
        assert stdout == "decoded: 2000 samples at 8000 Hz\nsegsnr: no scored segments\n"

    def test_csv_without_reference_refused(self, capsys, tmp_path, pcm_file):
        stream = str(tmp_path / "s.nad")
        run(capsys, "encode", "--in", pcm_file, "--out", stream)
        csv_path, out = tmp_path / "segs.csv", tmp_path / "r.pcm"
        code, stdout, stderr = run(capsys, "decode", "--in", stream, "--out", str(out),
                                   "--csv", str(csv_path))
        assert code == 1
        assert stderr == "error: --csv needs --reference\n"
        assert stdout == "" and not csv_path.exists() and not out.exists()

    def test_segment_len_without_reference_refused_before_reading(self, capsys, tmp_path):
        # it sets only the scoring against --reference
        out = tmp_path / "r.pcm"
        code, stdout, stderr = run(capsys, "decode", "--in", str(tmp_path / "missing.nad"),
                                   "--out", str(out), "--segment-len", "100")
        assert code == 1  # not 2: the missing stream is never opened
        assert stderr == "error: --segment-len needs --reference\n"
        assert stdout == "" and not out.exists()

    def test_garbage_bitstream(self, capsys, tmp_path):
        bad = tmp_path / "bad.nad"
        bad.write_bytes(b"GARBAGE!" * 4)
        code, _, stderr = run(capsys, "decode", "--in", str(bad),
                              "--out", str(tmp_path / "r.pcm"))
        assert code == 3
        assert stderr.startswith("error:")

    def test_version_1_stream_refused(self, capsys, tmp_path, pcm_file):
        # version 1 sent a hybrid flag bit where later versions send a candidate
        stream = tmp_path / "s.nad"
        run(capsys, "encode", "--in", pcm_file, "--out", str(stream), "--predictor", "hybrid")
        data = bytearray(stream.read_bytes())
        assert data[4] == 8
        data[4] = 1
        stream.write_bytes(bytes(data))
        out = tmp_path / "r.pcm"
        code, stdout, stderr = run(capsys, "decode", "--in", str(stream), "--out", str(out))
        assert code == 3
        assert stderr == "error: unsupported version 1\n"
        assert stdout == "" and not out.exists()

    def test_zero_sample_rate_is_malformed(self, capsys, tmp_path, pcm_file):
        stream = tmp_path / "s.nad"
        run(capsys, "encode", "--in", pcm_file, "--out", str(stream))
        data = bytearray(stream.read_bytes())
        data[5:9] = bytes(4)  # sample_rate u32
        stream.write_bytes(bytes(data))
        code, _, stderr = run(capsys, "decode", "--in", str(stream),
                              "--out", str(tmp_path / "r.pcm"))
        assert code == 3
        assert "sample_rate" in stderr

    def test_wav_round_trip(self, capsys, tmp_path, wav_file, ar_signal):
        stream = str(tmp_path / "s.nad")
        run(capsys, "encode", "--in", wav_file, "--out", stream)
        out_wav = str(tmp_path / "round.wav")
        code, _, _ = run(capsys, "decode", "--in", stream, "--out", out_wav)
        assert code == 0
        from nadpcm import read_wav
        decoded = read_wav(out_wav)
        assert len(decoded) == len(ar_signal)
        assert decoded.sample_rate == 8000


class TestEval:
    def test_table_and_significance_lines(self, capsys, tmp_path, pcm_file):
        out_csv = tmp_path / "table.csv"
        code, stdout, _ = run(
            capsys, "eval", "--in", pcm_file, "--bits-list", "3",
            "--methods", "ADPCMB-LPC-10,ADPCMF-LPC-10", "--out", str(out_csv))
        assert code == 0
        assert stdout.startswith("method,bits,segsnr_mean,segsnr_std,frames\n")
        assert "ADPCMB-LPC-10,3," in stdout
        assert "z[3 bits] ADPCMB-LPC-10 vs ADPCMF-LPC-10:" in stdout
        assert out_csv.read_text().splitlines()[0] == (
            "method,bits,segsnr_mean,segsnr_std,frames")

    def test_no_verdict_without_evaluated_frames(self, capsys, tmp_path):
        # all-silent rows hold NaN means: the z-test has no data to judge
        silent = tmp_path / "silent.wav"
        write_wav(str(silent), Signal(np.zeros(400), 8000))
        code, stdout, _ = run(capsys, "eval", "--in", str(silent), "--bits-list", "3",
                              "--methods", "ADPCMB-LPC-10,ADPCMF-LPC-10")
        assert code == 0
        assert stdout == ("method,bits,segsnr_mean,segsnr_std,frames\n"
                          "ADPCMB-LPC-10,3,nan,nan,0\n"
                          "ADPCMF-LPC-10,3,nan,nan,0\n"
                          "z[3 bits]: no evaluated frames\n")

    def test_linear_methods_take_a_frame_below_the_mlp_minimum(self, capsys, pcm_file):
        # the MLP minimum binds only the methods that fit an MLP
        code, stdout, stderr = run(capsys, "eval", "--in", pcm_file, "--frame-len", "5",
                                   "--bits-list", "3", "--methods", "ADPCMB-LPC-10")
        assert (code, stderr) == (0, "")
        assert "ADPCMB-LPC-10,3," in stdout

    def test_unknown_method(self, capsys, tmp_path, pcm_file):
        out = tmp_path / "table.csv"
        code, stdout, stderr = run(capsys, "eval", "--in", pcm_file, "--out", str(out),
                                   "--methods", "ADPCMB-LPC-10,ADPCM-NOPE")
        assert code == 1
        assert stderr.startswith("error: argument --methods: bad list "
                                 "'ADPCMB-LPC-10,ADPCM-NOPE': unknown method 'ADPCM-NOPE'")
        assert stdout == "" and not out.exists()

    def test_empty_method_list(self, capsys, tmp_path, pcm_file):
        out = tmp_path / "table.csv"
        code, stdout, stderr = run(capsys, "eval", "--in", pcm_file, "--out", str(out),
                                   "--methods", ",")
        assert code == 1
        assert stderr == "error: argument --methods: bad list ',': methods must be non-empty\n"
        assert stdout == "" and not out.exists()


class TestBadInputWav:
    """A WAV the reader refuses, or a corpus the codec refuses, gives one
    `error:` line and exit 1, never a traceback."""

    COMMANDS = {
        "encode": ("encode", "--out", "x.nad"),
        "eval": ("eval", "--methods", "ADPCMB-LPC-10", "--bits-list", "3"),
        "sweep": ("epoch-sweep", "--max-epochs", "2"),
        "histogram": ("epoch-histogram", "--max-epochs", "2"),
        "frame-length": ("frame-length-sweep", "--lengths", "20"),
    }

    @staticmethod
    def bad_wav(tmp_path, wav_file, name):
        path = tmp_path / f"{name}.wav"
        path.write_bytes(MALFORMED_WAVS[name](Path(wav_file).read_bytes()))
        return str(path)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
    def test_malformed_wav(self, capsys, tmp_path, wav_file, command, name):
        verb, *flags = self.COMMANDS[command]
        code, stdout, stderr = run(capsys, verb, "--in", self.bad_wav(tmp_path, wav_file, name),
                                   *flags)
        assert code == 1
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert stdout == ""

    def test_empty_wav_in_eval(self, capsys, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(str(path), Signal(np.zeros(0), 8000))
        code, stdout, stderr = run(capsys, "eval", "--in", str(path), "--methods",
                                   "ADPCMB-LPC-10", "--bits-list", "4")
        assert code == 1
        assert stderr == ("error: ADPCMB-LPC-10 Nq=4 failed on corpus[0]: "
                          "cannot encode an empty signal\n")
        assert stdout == ""

    @pytest.mark.parametrize("make", ["cut-20", "empty"])
    def test_no_traceback_from_the_process(self, tmp_path, wav_file, make):
        if make == "empty":
            path = str(tmp_path / "empty.wav")
            write_wav(path, Signal(np.zeros(0), 8000))
            argv = ["eval", "--in", path]
        else:
            argv = ["encode", "--in", self.bad_wav(tmp_path, wav_file, make), "--out",
                    str(tmp_path / "x.nad")]
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-m", "nadpcm.cli", *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


class TestSweep:
    def test_epochs_kind(self, capsys, tmp_path, pcm_file):
        out_csv = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            capsys, "epoch-sweep", "--in", pcm_file, "--max-epochs", "5", "--seed", "7",
            "--bits", "3", "--out", str(out_csv))
        assert code == 0
        assert "test curve peaks at epoch" in stdout
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "epoch,train_db,test_db"
        assert len(lines) == 6

    def test_frame_length_kind_reports_skips(self, capsys, pcm_file):
        code, stdout, _ = run(
            capsys, "frame-length-sweep", "--in", pcm_file, "--lengths", "8,20",
            "--bits-list", "3", "--methods", "ADPCMB-LPC-10,ADPCMB-MLP")
        assert code == 0
        assert "skipped ADPCMB-MLP Nq=3 frame_len=8" in stdout
        assert "method,bits,frame_len,segsnr_mean,segments" in stdout

    def test_frame_length_kind_empty_method_list(self, capsys, tmp_path, pcm_file):
        out = tmp_path / "sweep.csv"
        code, stdout, stderr = run(capsys, "frame-length-sweep", "--in", pcm_file,
                                   "--methods", ",", "--out", str(out))
        assert code == 1
        assert stderr == "error: argument --methods: bad list ',': methods must be non-empty\n"
        assert stdout == "" and not out.exists()

    def test_histogram_kind(self, capsys, tmp_path, ar_signal):
        short = tmp_path / "short.pcm"
        short.write_bytes(save_pcm16(Signal(ar_signal.samples[:600], 8000)))
        code, stdout, _ = run(
            capsys, "epoch-histogram", "--in", str(short),
            "--max-epochs", "3", "--bits", "3")
        assert code == 0
        assert "median optimal epoch:" in stdout
        assert "epoch,percent" in stdout

    def test_histogram_kind_frames_too_short(self, capsys, pcm_file):
        code, stdout, stderr = run(capsys, "epoch-histogram", "--in", pcm_file,
                                   "--frame-len", "5")
        assert code == 1
        assert stderr == "error: frame_len 5 is below the 11-sample MLP minimum\n"
        assert stdout == ""

    def test_epochs_kind_on_one_frame(self, capsys, tmp_path, ar_signal):
        short = tmp_path / "short.wav"
        write_wav(str(short), Signal(ar_signal.samples[:5], 8000))
        code, stdout, stderr = run(capsys, "epoch-sweep", "--in", str(short))
        assert code == 1
        assert stderr == "error: need at least two frames\n"
        assert stdout == ""

    def test_bad_lengths_range(self, capsys, pcm_file):
        code, _, stderr = run(capsys, "frame-length-sweep", "--in", pcm_file,
                              "--lengths", "50:0:100")
        assert code == 1 and "--lengths" in stderr


class TestUsage:
    def test_hybrid_stream(self, capsys, tmp_path, pcm_file):
        stream = str(tmp_path / "h.nad")
        run(capsys, "encode", "--in", pcm_file, "--out", stream,
            "--predictor", "hybrid")
        code, stdout, _ = run(capsys, "usage", "--in", stream)
        assert code == 0
        assert "frames: 10" in stdout
        assert "mlp:" in stdout and "lpc:" in stdout
        pcts = [float(l.split()[1].rstrip("%")) for l in stdout.splitlines()
                if l.startswith(("mlp:", "lpc:"))]
        assert sum(pcts) == pytest.approx(100.0, abs=0.2)

    def test_percentages_count_candidate_1_as_mlp(self, capsys, tmp_path, pcm_file):
        # candidate 1 is an MLP frame, candidate 0 an LPC-10 one
        stream = str(tmp_path / "h.nad")
        run(capsys, "encode", "--in", pcm_file, "--out", stream,
            "--predictor", "hybrid")
        candidates = {p.candidate for p in parse(Path(stream).read_bytes()).payloads}
        assert candidates == {0, 1}
        code, stdout, _ = run(capsys, "usage", "--in", stream)
        assert code == 0
        assert stdout == "frames: 10\nmlp: 30.0%\nlpc: 70.0%\n"

    def test_non_hybrid_stream_rejected(self, capsys, tmp_path, pcm_file):
        stream = str(tmp_path / "l.nad")
        run(capsys, "encode", "--in", pcm_file, "--out", stream)
        code, _, stderr = run(capsys, "usage", "--in", stream)
        assert code == 1 and "hybrid" in stderr


class TestParsing:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_missing_required_flag(self, capsys):
        code, _, stderr = run(capsys, "encode", "--out", "x.nad")
        assert code == 1 and "--in" in stderr

    def test_console_script_entry_point(self, capsys):
        # The declaration in pyproject.toml is checked from the source tree,
        # so the test runs without an install; an installed distribution,
        # where present, must carry the same entry.
        from importlib import metadata
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")

        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert scripts.get("nadpcm") == "nadpcm.cli:main"

        declared = metadata.EntryPoint(
            name="nadpcm", value=scripts["nadpcm"], group="console_scripts")
        target = declared.load()
        assert target is main
        assert target([]) == 1
        capsys.readouterr()

        try:
            dist = metadata.distribution("nadpcm")
        except metadata.PackageNotFoundError:
            return
        installed = dist.entry_points.select(
            group="console_scripts", name="nadpcm")
        assert [ep.value for ep in installed] == [declared.value]


def readme_cli_commands():
    """The `nadpcm` commands of README's CLI block, in order, as argv lists."""
    block = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("nadpcm ")]


def test_readme_cli_examples_run_in_order(capsys, tmp_path, monkeypatch, speech_like):
    # usage reads the stream encode wrote; --frame-pair-index 26 needs 28 frames
    monkeypatch.chdir(tmp_path)
    write_wav("speech.wav", Signal(speech_like.samples[:5600], 8000))
    for seed, name in enumerate(("a.wav", "b.wav", "c.wav")):
        write_wav(name, formant_utterance(seed, 400))
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {"encode", "decode", "eval", "epoch-sweep",
                                              "epoch-histogram", "frame-length-sweep", "usage"}
    for argv in commands:
        code, _, stderr = run(capsys, *argv)
        assert code == 0, f"nadpcm {shlex.join(argv)}: {stderr}"
