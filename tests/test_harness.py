"""Evaluation harness: method table, significance, sweeps, CSV export."""

import numpy as np
import pytest

from conftest import formant_utterance
from nadpcm import (
    Adaptation,
    CodecConfig,
    MethodRow,
    METHODS,
    PredictorKind,
    Signal,
    SweepCurve,
    encode,
    epoch_sweep,
    evaluate_methods,
    export_csv,
    frame_length_sweep,
    optimal_epoch_histogram,
    predictor_usage,
    segsnr,
    significance_matrix,
)
from nadpcm import harness
from nadpcm.harness import (
    SEGSNR_WINDOW,
    closed_loop_frame_snr,
    method_config,
    method_rows_csv,
    segsnr_report_csv,
)
from nadpcm.metrics import SILENCE_ENERGY_FLOOR
from nadpcm.quantizer import MULTIPLIERS


class TestMethods:
    def test_seven_methods_registered(self):
        assert len(METHODS) == 7
        assert METHODS["ADPCMB-HYBRID"] == (PredictorKind.HYBRID, Adaptation.BACKWARD)
        assert METHODS["ADPCMF-LPC-25"] == (PredictorKind.LPC25, Adaptation.FORWARD)
        assert METHODS["ADPCMB-MLP"] == (PredictorKind.MLP, Adaptation.BACKWARD)
        # hybrid exists only in backward form
        assert "ADPCMF-HYBRID" not in METHODS

    def test_method_config_redefaults_multipliers_on_bit_change(self):
        # the table is the depth's constant, so it follows the bits
        base = CodecConfig(bits=2)
        assert method_config(base, "ADPCMB-LPC-10", 4).multipliers == MULTIPLIERS[4]
        assert method_config(base, "ADPCMB-LPC-10", 2) == base

    def test_method_config_overrides(self):
        base = CodecConfig()
        out = method_config(base, "ADPCMF-MLP", 3, frame_len=50)
        assert (out.predictor_kind, out.adaptation, out.bits, out.frame_len) == (
            PredictorKind.MLP, Adaptation.FORWARD, 3, 50)

    def test_method_config_unknown_method(self):
        with pytest.raises(ValueError, match="^unknown method 'ADPCM-NOPE'"):
            method_config(CodecConfig(), "ADPCM-NOPE", 4)

    @pytest.mark.parametrize("sweep", [
        lambda signal, methods: evaluate_methods([signal], [3], methods, CodecConfig()),
        lambda signal, methods: frame_length_sweep(signal, [200], [3], methods, CodecConfig()),
    ], ids=["evaluate_methods", "frame_length_sweep"])
    def test_method_list_checked_before_coding(self, monkeypatch, ar_signal, sweep):
        def no_coding(*args):
            raise AssertionError("a signal was coded")

        monkeypatch.setattr(harness, "encode", no_coding)
        with pytest.raises(ValueError, match="^unknown method 'ADPCM-NOPE'"):
            sweep(ar_signal, ["ADPCMB-LPC-10", "ADPCM-NOPE"])

    @pytest.mark.parametrize("name, sweep", [
        ("methods", lambda s: evaluate_methods([s], [3], [], CodecConfig())),
        ("bits_list", lambda s: evaluate_methods([s], [], ["ADPCMB-LPC-10"], CodecConfig())),
        ("methods", lambda s: frame_length_sweep(s, [200], [3], [], CodecConfig())),
        ("bits_list",
         lambda s: frame_length_sweep(s, [200], [], ["ADPCMB-LPC-10"], CodecConfig())),
        ("lengths", lambda s: frame_length_sweep(s, [], [3], ["ADPCMB-LPC-10"], CodecConfig())),
    ], ids=["eval-methods", "eval-bits", "sweep-methods", "sweep-bits", "sweep-lengths"])
    def test_empty_list_refused_before_coding(self, monkeypatch, ar_signal, name, sweep):
        def no_coding(*args):
            raise AssertionError("a signal was coded")

        monkeypatch.setattr(harness, "encode", no_coding)
        with pytest.raises(ValueError, match=f"^{name} must be non-empty$"):
            sweep(ar_signal)

    @pytest.mark.parametrize("message, sweep", [
        ("methods repeats 'ADPCMB-LPC-10'",
         lambda s: evaluate_methods([s], [3], ["ADPCMB-LPC-10", "ADPCMB-MLP", "ADPCMB-LPC-10"],
                                    CodecConfig())),
        ("bits_list repeats 4", lambda s: evaluate_methods([s], [4, 4], ["ADPCMB-LPC-10"],
                                                           CodecConfig())),
        ("methods repeats 'ADPCMB-MLP'",
         lambda s: frame_length_sweep(s, [200], [3], ["ADPCMB-MLP"] * 2, CodecConfig())),
        ("bits_list repeats 4", lambda s: frame_length_sweep(s, [200], [3, 4, 4],
                                                             ["ADPCMB-LPC-10"], CodecConfig())),
        ("lengths repeats 10", lambda s: frame_length_sweep(s, [10, 10], [3], ["ADPCMB-LPC-10"],
                                                            CodecConfig())),
    ], ids=["eval-methods", "eval-bits", "sweep-methods", "sweep-bits", "sweep-lengths"])
    def test_repeated_entry_refused_before_coding(self, monkeypatch, ar_signal, message, sweep):
        def no_coding(*args):
            raise AssertionError("a signal was coded")

        monkeypatch.setattr(harness, "encode", no_coding)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(ar_signal)

    @pytest.mark.parametrize("lengths, method", [
        ([0, -5], "ADPCMB-MLP"),
        ([-5], "ADPCMB-HYBRID"),
        ([0], "ADPCMB-LPC-10"),
    ], ids=["mlp", "hybrid", "lpc"])
    def test_length_below_one_refused_before_coding(self, monkeypatch, ar_signal, lengths,
                                                   method):
        def no_coding(*args):
            raise AssertionError("a signal was coded")

        monkeypatch.setattr(harness, "encode", no_coding)
        with pytest.raises(ValueError, match=f"^frame_len must be >= 1, got {lengths[0]}$"):
            frame_length_sweep(ar_signal, [20, *lengths], [3], [method], CodecConfig())


class TestEvaluateMethods:
    def test_row_schema_and_pooling(self, ar_signal):
        rows = evaluate_methods([ar_signal], [2, 4], ["ADPCMB-LPC-10"], CodecConfig())
        assert [(r.method, r.bits) for r in rows] == [
            ("ADPCMB-LPC-10", 2), ("ADPCMB-LPC-10", 4)]
        for row in rows:
            assert row.frames_evaluated == 10  # 2000 samples / frame_len 200
            assert np.isfinite(row.segsnr_mean)
        # more quantizer bits must help substantially on an AR(2) source
        assert rows[1].segsnr_mean > rows[0].segsnr_mean + 3.0

    def test_pooling_across_corpus(self, ar_signal):
        single = evaluate_methods([ar_signal], [3], ["ADPCMB-LPC-10"], CodecConfig())
        double = evaluate_methods([ar_signal, ar_signal], [3], ["ADPCMB-LPC-10"],
                                  CodecConfig())
        assert double[0].frames_evaluated == 2 * single[0].frames_evaluated
        assert double[0].segsnr_mean == pytest.approx(single[0].segsnr_mean)

    def test_silent_corpus_yields_nan_row(self):
        silent = Signal(np.zeros(600), 8000)
        rows = evaluate_methods([silent], [3], ["ADPCMB-LPC-10"], CodecConfig())
        assert rows[0].frames_evaluated == 0
        assert np.isnan(rows[0].segsnr_mean)

    def test_unknown_method_rejected(self, ar_signal):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_methods([ar_signal], [3], ["ADPCM-NOPE"], CodecConfig())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="^corpus must be non-empty$"):
            evaluate_methods([], [3], ["ADPCMB-LPC-10"], CodecConfig())

    def test_bad_config_refused_before_the_corpus_is_read(self, ar_signal):
        read = []

        def corpus():
            read.append(True)
            yield ar_signal

        with pytest.raises(ValueError, match="^frame_len 5 is below the 11-sample MLP minimum$"):
            evaluate_methods(corpus(), [3], ["ADPCMB-LPC-10", "ADPCMB-MLP"],
                             CodecConfig(frame_len=5))
        assert not read
        assert evaluate_methods(corpus(), [3], ["ADPCMB-LPC-10"], CodecConfig(frame_len=5))
        assert read

    def test_codec_refusal_names_method_and_signal(self, ar_signal):
        empty = Signal(np.zeros(0), 8000)
        # the frame length sweep shares the loop and also names the run's frame length
        for run, message in [
            (lambda: evaluate_methods([ar_signal, empty], [3], ["ADPCMB-LPC-10"], CodecConfig()),
             "ADPCMB-LPC-10 Nq=3 failed on corpus[1]: "),
            (lambda: frame_length_sweep(empty, [200], [3], ["ADPCMB-LPC-10"], CodecConfig()),
             "ADPCMB-LPC-10 Nq=3 frame_len=200 failed on corpus[0]: "),
        ]:
            with pytest.raises(ValueError) as info:
                run()
            assert type(info.value) is ValueError
            assert str(info.value) == message + "cannot encode an empty signal"
            assert str(info.value.__cause__) == "cannot encode an empty signal"

    def test_other_failures_propagate_unwrapped(self, ar_signal, monkeypatch):
        def fail(signal, config):
            raise ZeroDivisionError("boom")
        monkeypatch.setattr(harness, "_roundtrip", fail)
        with pytest.raises(ZeroDivisionError, match="^boom$"):
            evaluate_methods([ar_signal], [3], ["ADPCMB-LPC-10"], CodecConfig())
        with pytest.raises(ZeroDivisionError, match="^boom$"):
            frame_length_sweep(ar_signal, [200], [3], ["ADPCMB-LPC-10"], CodecConfig())


class TestSignificance:
    def test_known_z_values(self):
        a = MethodRow("A", 4, 20.68, 5.8, 100)
        b = MethodRow("B", 4, 21.11, 5.7, 100)
        [ab] = significance_matrix([a, b], 100)
        assert ab.z == pytest.approx(0.5288, abs=1e-4)
        assert not ab.significant

    def test_near_threshold_pair(self):
        a = MethodRow("A", 4, 28.15, 6.9, 100)
        b = MethodRow("B", 4, 25.84, 6.4, 100)
        [ab] = significance_matrix([a, b], 100)
        assert ab.z == pytest.approx(2.455, abs=1e-3)
        assert not ab.significant  # just under the 2.5 bar

    def test_pair_count_upper_triangle(self):
        for n in range(1, 6):  # n rows give n(n - 1)/2 pairs of distinct rows, in row order
            rows = [MethodRow(m, 3, 10.0 + i, 1.0, 50) for i, m in enumerate("ABCDE"[:n])]
            pairs = significance_matrix(rows, 50)
            assert len(pairs) == n * (n - 1) // 2
            assert [(p.method_a, p.method_b) for p in pairs] == [
                (a.method, b.method) for i, a in enumerate(rows) for b in rows[i + 1:]]

    def test_mixed_bits_rejected(self):
        rows = [MethodRow("A", 3, 10.0, 1.0, 50), MethodRow("B", 4, 10.0, 1.0, 50)]
        with pytest.raises(ValueError):
            significance_matrix(rows, 50)


def no_training(*args):
    raise AssertionError("a net was trained")


class TestEpochSweep:
    def test_curve_shape(self, ar_signal):
        curve = epoch_sweep(ar_signal, 0, 5, CodecConfig(bits=3, seed=7))
        assert isinstance(curve, SweepCurve)
        assert curve.x_values == (1, 2, 3, 4, 5)
        assert len(curve.y_train_db) == 5 and len(curve.y_test_db) == 5
        assert all(np.isfinite(v) for v in curve.y_train_db + curve.y_test_db)

    def test_deterministic(self, ar_signal):
        a = epoch_sweep(ar_signal, 2, 4, CodecConfig(bits=3, seed=9))
        b = epoch_sweep(ar_signal, 2, 4, CodecConfig(bits=3, seed=9))
        assert a == b

    def test_numpy_integer_seed(self, ar_signal):
        # the pair index goes through as_int, so a numpy index XORs a 64-bit seed as an int
        a = epoch_sweep(ar_signal, np.int64(3), 2, CodecConfig(bits=3, seed=np.uint64(2**64 - 1)))
        b = epoch_sweep(ar_signal, 3, 2, CodecConfig(bits=3, seed=2**64 - 1))
        assert a == b

    def test_pair_out_of_range(self, ar_signal):
        for index in (9, 10, -1, -12):  # 10 frames: pairs start at 0..8
            with pytest.raises(ValueError, match=f"pair index {index} "):
                epoch_sweep(ar_signal, index, 4, CodecConfig(bits=3))

    def test_one_frame_signal_needs_two_frames(self, ar_signal):
        for n in (5, 200):  # a partial frame and exactly one frame
            with pytest.raises(ValueError, match="^need at least two frames$"):
                epoch_sweep(Signal(ar_signal.samples[:n], 8000), 0, 4, CodecConfig(bits=3))

    def test_silent_pair_rejected(self, ar_signal):
        silent = Signal(np.zeros(800), 8000)
        with pytest.raises(ValueError, match="silence"):
            epoch_sweep(silent, 0, 4, CodecConfig(bits=3))
        # either frame of the pair below the SEGSNR silence floor is enough
        for quiet in (0, 1):
            samples = ar_signal.samples[:400].copy()
            samples[quiet * 200 : (quiet + 1) * 200] = 0.0
            samples[quiet * 200] = 0.9 * np.sqrt(SILENCE_ENERGY_FLOOR)
            with pytest.raises(ValueError, match="silence"):
                epoch_sweep(Signal(samples, 8000), 0, 4, CodecConfig(bits=3))

    def test_frames_too_short_for_the_mlp_refused(self, ar_signal):
        with pytest.raises(ValueError, match="^frame_len 10 is below the 11-sample MLP minimum$"):
            epoch_sweep(ar_signal, 0, 4, CodecConfig(bits=3, frame_len=10))

    @pytest.mark.parametrize("max_epochs", [0, -3])
    def test_no_epoch_refused_before_training(self, monkeypatch, ar_signal, max_epochs):
        monkeypatch.setattr(harness, "lm_iterations", no_training)
        with pytest.raises(ValueError, match=f"^max_epochs must be >= 1, got {max_epochs}$"):
            epoch_sweep(ar_signal, 0, max_epochs, CodecConfig(bits=3))

    @pytest.mark.parametrize("max_epochs", [2.0, 2.5, True, "3"])
    def test_non_integer_epochs_refused_before_training(self, monkeypatch, ar_signal, max_epochs):
        monkeypatch.setattr(harness, "lm_iterations", no_training)
        with pytest.raises(ValueError, match=f"^max_epochs must be an integer, got {max_epochs!r}$"):
            epoch_sweep(ar_signal, 0, max_epochs, CodecConfig(bits=3))


class TestOptimalEpochHistogram:
    def test_percentages_sum_to_100(self, ar_signal):
        short = Signal(ar_signal.samples[:600], ar_signal.sample_rate)
        hist = optimal_epoch_histogram(short, 4, CodecConfig(bits=3))
        assert sum(hist.values()) == pytest.approx(100.0)
        assert all(1 <= epoch <= 4 for epoch in hist)

    def test_each_pair_trains_the_net_seeded_by_its_index(self, ar_signal):
        signal = Signal(ar_signal.samples[:1000], ar_signal.sample_rate)
        config = CodecConfig(bits=3, seed=5)
        expected = {}
        for k in range(4):
            curve = epoch_sweep(signal, k, 6, config)
            best = curve.x_values[int(np.argmax(curve.y_test_db))]
            expected[best] = expected.get(best, 0.0) + 25.0
        assert optimal_epoch_histogram(signal, 6, config) == dict(sorted(expected.items()))

    def test_single_pair_is_degenerate(self, ar_signal):
        short = Signal(ar_signal.samples[:400], ar_signal.sample_rate)
        hist = optimal_epoch_histogram(short, 3, CodecConfig(bits=3))
        assert len(hist) == 1 and list(hist.values()) == [100.0]

    def test_too_few_frames_rejected(self, ar_signal):
        short = Signal(ar_signal.samples[:200], ar_signal.sample_rate)
        with pytest.raises(ValueError):
            optimal_epoch_histogram(short, 3, CodecConfig(bits=3))

    @pytest.mark.parametrize("frame_len", [1, 5, 10])
    def test_frames_too_short_for_the_mlp_refused_before_training(self, monkeypatch, ar_signal,
                                                                  frame_len):
        monkeypatch.setattr(harness, "lm_iterations", no_training)
        with pytest.raises(ValueError, match=f"^frame_len {frame_len} is below the 11-sample "
                                             "MLP minimum$"):
            optimal_epoch_histogram(ar_signal, 3, CodecConfig(bits=3, frame_len=frame_len))

    @pytest.mark.parametrize("max_epochs", [0, -3])
    def test_no_epoch_refused_before_training(self, monkeypatch, ar_signal, max_epochs):
        monkeypatch.setattr(harness, "lm_iterations", no_training)
        with pytest.raises(ValueError, match=f"^max_epochs must be >= 1, got {max_epochs}$"):
            optimal_epoch_histogram(ar_signal, max_epochs, CodecConfig(bits=3))

    @pytest.mark.parametrize("max_epochs", [2.0, 2.5, True, "3"])
    def test_non_integer_epochs_refused_before_training(self, monkeypatch, ar_signal, max_epochs):
        monkeypatch.setattr(harness, "lm_iterations", no_training)
        with pytest.raises(ValueError, match=f"^max_epochs must be an integer, got {max_epochs!r}$"):
            optimal_epoch_histogram(ar_signal, max_epochs, CodecConfig(bits=3))

    def test_shortest_trainable_frame_accepted(self, ar_signal):
        short = Signal(ar_signal.samples[:44], ar_signal.sample_rate)
        hist = optimal_epoch_histogram(short, 3, CodecConfig(bits=3, frame_len=11))
        assert sum(hist.values()) == pytest.approx(100.0)


class TestFrameLengthSweep:
    def test_short_lengths_skip_neural(self, ar_signal):
        records, skipped = frame_length_sweep(
            ar_signal, [8, 20], [3], ["ADPCMB-LPC-10", "ADPCMB-MLP"],
            CodecConfig())
        assert len(records) == 3
        assert skipped == [("ADPCMB-MLP", 3, 8, "frame_len 8 is below the 11-sample MLP minimum")]
        for rec in records:
            assert set(rec) == {"method", "bits", "frame_len", "segsnr_mean", "segments"}
            assert rec["segments"] == len(ar_signal) // SEGSNR_WINDOW

    def test_metric_window_independent_of_frame_len(self, ar_signal):
        records, _ = frame_length_sweep(ar_signal, [50, 200], [3],
                                        ["ADPCMB-LPC-10"], CodecConfig())
        assert records[0]["segments"] == records[1]["segments"] == 10


class TestPredictorUsage:
    def test_hybrid_percentages(self, ar_signal):
        config = CodecConfig(predictor_kind=PredictorKind.HYBRID)
        result = encode(ar_signal, config)
        pct_mlp, pct_lpc = predictor_usage(result.bitstream)
        assert pct_mlp + pct_lpc == pytest.approx(100.0)
        neural = [p.candidate > 0 for p in result.bitstream.payloads]
        assert pct_mlp == pytest.approx(100.0 * sum(neural) / len(neural))

    @pytest.mark.parametrize("bits, expected", [(2, (37.0, 63.0)), (5, (50.0, 50.0))])
    def test_percentages_count_candidate_1_as_mlp(self, bits, expected):
        # Version 7's plain LM fit on 4 restarts read 29/71 at 2 bits, the
        # same figures as with the one-bit hybrid flag of version 1. 5 bits
        # read 43/57 until version 3's BLAS-free forward pass moved the
        # closed loop's last bits and so some frames' choice, 52/48 until
        # version 4's numpy sigmoid moved the fits' last bits, and 53/47
        # until version 8's separable fit on one restart
        config = CodecConfig(bits=bits, frame_len=40, predictor_kind=PredictorKind.HYBRID)
        result = encode(formant_utterance(29, 4000), config)
        assert {p.candidate for p in result.bitstream.payloads} == {0, 1}
        assert predictor_usage(result.bitstream) == expected

    def test_non_hybrid_rejected(self, ar_signal):
        result = encode(ar_signal, CodecConfig())
        with pytest.raises(ValueError, match="hybrid"):
            predictor_usage(result.bitstream)


class TestCsvExport:
    def test_header_only_when_no_rows(self):
        assert export_csv(["a", "b"], []) == "a,b\n"

    def test_six_significant_digits(self):
        out = export_csv(["v"], [(0.123456789,), (np.float64(12345.6789),),
                                 (np.float32(1234.5678),)])
        assert out == "v\n0.123457\n12345.7\n1234.57\n"

    def test_none_renders_empty(self):
        assert export_csv(["a", "b"], [(None, 1)]) == "a,b\n,1\n"

    def test_method_rows_csv(self):
        rows = [MethodRow("ADPCMB-LPC-10", 4, 20.123456, 5.0, 99)]
        out = method_rows_csv(rows)
        lines = out.splitlines()
        assert lines[0] == "method,bits,segsnr_mean,segsnr_std,frames"
        assert lines[1] == "ADPCMB-LPC-10,4,20.1235,5,99"

    def test_segsnr_report_csv_summary_row(self, ar_signal):
        decoded = Signal(ar_signal.samples * 0.99, ar_signal.sample_rate)
        report = segsnr(ar_signal, decoded, 200)
        lines = segsnr_report_csv(report).splitlines()
        assert lines[0] == "segment_index,snr_db"
        assert len(lines) == 1 + report.segments_used + 1
        assert lines[-1].startswith("mean,")


class TestClosedLoopFrameSnr:
    def test_matches_direct_encode(self, ar_signal):
        from nadpcm.codec import ZERO, encode_frame, initial_state
        from nadpcm.metrics import segment_snr_db
        config = CodecConfig()
        frame = ar_signal.samples[:200]
        recon = encode_frame(initial_state(config), frame, ZERO)[1].recon
        expected = segment_snr_db(frame, frame - recon)
        assert closed_loop_frame_snr(frame, ZERO, config) == expected
