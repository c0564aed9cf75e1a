"""Smoke tests of the benchmark itself, on a tiny workload.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    signals=(("utterance", workloads.formant_utterance, 600),),
    methods=("ADPCMB-LPC-10", "ADPCMF-LPC-25", "ADPCMB-HYBRID"),  # every predictor kind
    bits=(3,),
    frame_len=200,
)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A scratch working directory that sees the repository's sources."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)  # set-up probes could not see "tiny"
    return tmp_path


def _run(capsys, trace):
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_benchmark_metric_is_printed_with_its_unit(checkout, capsys):
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        printed = result["metrics"]
        assert {m["name"] for m in spec[section]} == set(printed)
        for m in spec[section]:
            assert printed[m["name"]]["unit"] == m["unit"]
            assert isinstance(printed[m["name"]]["value"], (int, float))
    assert printed["mlp.multistart_fit.calls"]["value"] > 0
    assert printed["codec.encode_frame.calls"]["value"] == 3 + 3 + 1 + 2 * 2


def test_traced_spans_nest_and_self_times_are_not_negative(checkout, capsys):
    _run(capsys, 1)
    spans = [json.loads(line) for line in
             (checkout / ".perfbench" / "tiny-seed3-trace1.spans.jsonl").read_text().splitlines()]
    names = {s[tracing.NAME] for s in spans}
    assert {"op.encode", "codec.encode", "codec.encode_frame", "lpc.levinson",
            "mlp.lm_epoch", "mlp.residual_jacobian", "metrics.segsnr"} <= names
    for s in spans:
        assert s[tracing.START] <= s[tracing.END]
        if s[tracing.PARENT] is not None:
            parent = spans[s[tracing.PARENT]]
            assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]
            assert parent[tracing.OP] == s[tracing.OP]
    assert min(tracing.self_times(spans)) >= 0.0


def test_no_wrapper_is_left_installed(checkout, capsys):
    targets = tracing.targets([])
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    _run(capsys, 1)
    assert [getattr(module, attr) for module, attr, _, _ in targets] == originals

    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed(targets):
            assert getattr(targets[0][0], targets[0][1]) is not originals[0]
            raise RuntimeError("boom")
    assert [getattr(module, attr) for module, attr, _, _ in targets] == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.build_ops(workload, 5)
    assert first == workloads.build_ops(workload, 5)
    assert [op.wav for op in first] != [op.wav for op in workloads.build_ops(workload, 6)]
    assert len(first) == len(workload.signals) * len(workload.methods) * len(workload.bits)


def test_bilinear_signal_is_bounded_for_every_seed():
    for seed in range(200):
        x = workloads.nonlinear_ar([seed, 1], 1000)
        assert abs(x).max() == pytest.approx(0.45)


def test_refuses_to_run_without_the_codec_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "speech-linear",
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
