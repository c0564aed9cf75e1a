"""Command-line interface: subcommands, output text, exit codes."""

import sys
from pathlib import Path

import numpy as np
import pytest

from nadpcm import Signal, parse, save_pcm16, write_wav
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

    def test_garbage_bitstream(self, capsys, tmp_path):
        bad = tmp_path / "bad.nad"
        bad.write_bytes(b"GARBAGE!" * 4)
        code, _, stderr = run(capsys, "decode", "--in", str(bad),
                              "--out", str(tmp_path / "r.pcm"))
        assert code == 3
        assert stderr.startswith("error:")

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

    def test_unknown_method(self, capsys, pcm_file):
        code, _, stderr = run(capsys, "eval", "--in", pcm_file,
                              "--methods", "ADPCM-NOPE")
        assert code == 1 and "unknown method" in stderr


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

    def test_histogram_kind(self, capsys, tmp_path, ar_signal):
        short = tmp_path / "short.pcm"
        short.write_bytes(save_pcm16(Signal(ar_signal.samples[:600], 8000)))
        code, stdout, _ = run(
            capsys, "sweep", "--kind", "histogram", "--in", str(short),
            "--max-epochs", "3", "--bits", "3")
        assert code == 0
        assert "median optimal epoch:" in stdout
        assert "epoch,percent" in stdout

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
