"""Command-line interface: subcommands, output text, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import MALFORMED_WAVS
from nadpcm import (
    Adaptation,
    CodecConfig,
    PredictorKind,
    Signal,
    TrainConfig,
    parse,
    save_pcm16,
    write_wav,
)
from nadpcm.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
    (["--epochs", "3"], CodecConfig(train=TrainConfig(epochs=3))),
    (["--restarts", "2"], CodecConfig(train=TrainConfig(restarts=2))),
    (["--seed", "12345"], CodecConfig(seed=12345)),
    (["--delta0", "0.03"], CodecConfig(step_init=0.03)),
    (["--delta-min", "0.001"], CodecConfig(step_min=0.001)),
    (["--delta-max", "0.4"], CodecConfig(step_max=0.4)),
    (["--multipliers", "0.8,0.85,0.9,0.95,1.2,1.6,2.0,2.4"],
     CodecConfig(multipliers=(0.8, 0.85, 0.9, 0.95, 1.2, 1.6, 2.0, 2.4))),
    (["--lambda-init", "0.02"], CodecConfig(train=TrainConfig(lambda_init=0.02))),
    (["--lambda-up", "5"], CodecConfig(train=TrainConfig(lambda_up=5.0))),
    (["--lambda-down", "0.2"], CodecConfig(train=TrainConfig(lambda_down=0.2))),
    (["--init-scale", "0.25"], CodecConfig(train=TrainConfig(init_scale=0.25))),
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
    "sweep --kind epochs --max-epochs 0",
    "sweep --kind histogram --max-epochs -2",
    "sweep --kind epochs --frame-pair-index -1",
    "sweep --kind epochs --frame-pair-index -12",
])
def test_bad_count_refused_before_any_work(capsys, tmp_path, pcm_file, argv):
    command, *flags = argv.split()
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, command, "--in", pcm_file, "--out", str(out), *flags)
    assert code == 1
    assert stderr.startswith(f"error: argument {flags[-2]}: must be >= ")
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
                              "--predictor", "hybrid", "--epochs", "2",
                              "--restarts", "2")
        assert code == 0
        # 2 candidate bits per 200-sample frame (LPC-10 or one of 2 restarts)
        assert "bit rate: 32.08 kbps" in stdout

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
        args = ["--in", pcm_file, "--predictor", "mlp",
                "--epochs", "2", "--restarts", "2"]
        assert run(capsys, "encode", *args, "--out", a)[0] == 0
        assert run(capsys, "encode", *args, "--out", b)[0] == 0
        assert (tmp_path / "a.nad").read_bytes() == (tmp_path / "b.nad").read_bytes()

    def test_bad_multipliers_text(self, capsys, tmp_path, pcm_file):
        code, _, stderr = run(capsys, "encode", "--in", pcm_file,
                              "--out", str(tmp_path / "o.nad"),
                              "--multipliers", "0.8,oops")
        assert code == 1 and "--multipliers" in stderr

    def test_explicit_multipliers(self, capsys, tmp_path, pcm_file):
        out = str(tmp_path / "o.nad")
        code, _, _ = run(capsys, "encode", "--in", pcm_file, "--out", out,
                         "--bits", "2", "--multipliers", "0.85,1.7")
        assert code == 0
        header = parse((tmp_path / "o.nad").read_bytes()).header
        assert header.config.multipliers == (0.85, 1.7)


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

    def test_csv_without_reference_refused(self, capsys, tmp_path, pcm_file):
        stream = str(tmp_path / "s.nad")
        run(capsys, "encode", "--in", pcm_file, "--out", stream)
        csv_path, out = tmp_path / "segs.csv", tmp_path / "r.pcm"
        code, stdout, stderr = run(capsys, "decode", "--in", stream, "--out", str(out),
                                   "--csv", str(csv_path))
        assert code == 1
        assert stderr == "error: --csv needs --reference\n"
        assert stdout == "" and not csv_path.exists() and not out.exists()

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
        run(capsys, "encode", "--in", pcm_file, "--out", str(stream), "--predictor", "hybrid",
            "--epochs", "2", "--restarts", "1")
        data = bytearray(stream.read_bytes())
        assert data[4] == 4
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

    def test_unknown_method(self, capsys, tmp_path, pcm_file):
        out = tmp_path / "table.csv"
        code, stdout, stderr = run(capsys, "eval", "--in", pcm_file, "--out", str(out),
                                   "--methods", "ADPCMB-LPC-10,ADPCM-NOPE")
        assert code == 1
        assert stderr.startswith("error: unknown method 'ADPCM-NOPE'")
        assert stdout == "" and not out.exists()

    def test_empty_method_list(self, capsys, tmp_path, pcm_file):
        out = tmp_path / "table.csv"
        code, stdout, stderr = run(capsys, "eval", "--in", pcm_file, "--out", str(out),
                                   "--methods", ",")
        assert code == 1
        assert stderr == "error: methods must be non-empty\n"
        assert stdout == "" and not out.exists()


class TestBadInputWav:
    """A WAV the reader refuses, or a corpus the codec refuses, gives one
    `error:` line and exit 1, never a traceback."""

    COMMANDS = {
        "encode": ("encode", "--out", "x.nad"),
        "eval": ("eval", "--methods", "ADPCMB-LPC-10", "--bits-list", "3"),
        "sweep": ("sweep", "--kind", "epochs", "--max-epochs", "2"),
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
            capsys, "sweep", "--kind", "epochs", "--in", pcm_file,
            "--max-epochs", "5", "--restart-seed", "7", "--bits", "3",
            "--out", str(out_csv))
        assert code == 0
        assert "test curve peaks at epoch" in stdout
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "epoch,train_db,test_db"
        assert len(lines) == 6

    def test_frame_length_kind_reports_skips(self, capsys, pcm_file):
        code, stdout, _ = run(
            capsys, "sweep", "--kind", "frame-length", "--in", pcm_file,
            "--lengths", "8,20", "--bits-list", "3",
            "--methods", "ADPCMB-LPC-10,ADPCMB-MLP",
            "--epochs", "2", "--restarts", "2")
        assert code == 0
        assert "skipped ADPCMB-MLP Nq=3 frame_len=8" in stdout
        assert "method,bits,frame_len,segsnr_mean,segments" in stdout

    def test_frame_length_kind_empty_method_list(self, capsys, tmp_path, pcm_file):
        out = tmp_path / "sweep.csv"
        code, stdout, stderr = run(capsys, "sweep", "--kind", "frame-length", "--in", pcm_file,
                                   "--methods", ",", "--out", str(out))
        assert code == 1
        assert stderr == "error: methods must be non-empty\n"
        assert stdout == "" and not out.exists()

    def test_histogram_kind(self, capsys, tmp_path, ar_signal):
        short = tmp_path / "short.pcm"
        short.write_bytes(save_pcm16(Signal(ar_signal.samples[:600], 8000)))
        code, stdout, _ = run(
            capsys, "sweep", "--kind", "histogram", "--in", str(short),
            "--max-epochs", "3", "--bits", "3")
        assert code == 0
        assert "median optimal epoch:" in stdout
        assert "epoch,percent" in stdout

    def test_histogram_kind_frames_too_short(self, capsys, pcm_file):
        code, stdout, stderr = run(capsys, "sweep", "--kind", "histogram", "--in", pcm_file,
                                   "--frame-len", "5")
        assert code == 1
        assert stderr == "error: frame_len 5 is below the 11-sample MLP minimum\n"
        assert stdout == ""

    def test_epochs_kind_on_one_frame(self, capsys, tmp_path, ar_signal):
        short = tmp_path / "short.wav"
        write_wav(str(short), Signal(ar_signal.samples[:5], 8000))
        code, stdout, stderr = run(capsys, "sweep", "--kind", "epochs", "--in", str(short))
        assert code == 1
        assert stderr == "error: need at least two frames\n"
        assert stdout == ""

    def test_bad_lengths_range(self, capsys, pcm_file):
        code, _, stderr = run(capsys, "sweep", "--kind", "frame-length",
                              "--in", pcm_file, "--lengths", "50:0:100")
        assert code == 1 and "--lengths" in stderr


class TestUsage:
    def test_hybrid_stream(self, capsys, tmp_path, pcm_file):
        stream = str(tmp_path / "h.nad")
        run(capsys, "encode", "--in", pcm_file, "--out", stream,
            "--predictor", "hybrid", "--epochs", "2", "--restarts", "2")
        code, stdout, _ = run(capsys, "usage", "--in", stream)
        assert code == 0
        assert "frames: 10" in stdout
        assert "mlp:" in stdout and "lpc:" in stdout
        pcts = [float(l.split()[1].rstrip("%")) for l in stdout.splitlines()
                if l.startswith(("mlp:", "lpc:"))]
        assert sum(pcts) == pytest.approx(100.0, abs=0.2)

    def test_percentages_count_every_restart_as_mlp(self, capsys, tmp_path, pcm_file):
        # the same figures as with the one-bit hybrid flag of version 1
        stream = str(tmp_path / "h.nad")
        run(capsys, "encode", "--in", pcm_file, "--out", stream,
            "--predictor", "hybrid", "--epochs", "2", "--restarts", "2")
        assert {p.candidate for p in parse(Path(stream).read_bytes()).payloads} == {0, 1, 2}
        code, stdout, _ = run(capsys, "usage", "--in", stream)
        assert code == 0
        assert stdout == "frames: 10\nmlp: 20.0%\nlpc: 80.0%\n"

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
