"""Segmental SNR and the two-mean z statistic."""

import math

import numpy as np
import pytest

from nadpcm import mean_std, segsnr, z_score
from nadpcm.metrics import SNR_CEILING_DB, segment_snr_db


class TestMeanStd:
    def test_known_values(self):
        mean, std = mean_std([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(1.118033988749895)  # population, divide by n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])


class TestSegmentSnr:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(200)
        err = 0.01 * rng.standard_normal(200)
        expected = 10.0 * math.log10(np.dot(ref, ref) / np.dot(err, err))
        assert segment_snr_db(ref, err) == pytest.approx(expected)

    def test_silent_segment_is_none(self):
        assert segment_snr_db(np.zeros(200), np.ones(200)) is None

    def test_tiny_error_hits_ceiling(self):
        ref = np.ones(200)
        assert segment_snr_db(ref, np.zeros(200)) == SNR_CEILING_DB

    def test_ceiling_clamps_large_ratios(self):
        ref = np.full(200, 1e6)
        err = np.full(200, 1e-6)
        assert segment_snr_db(ref, err) == SNR_CEILING_DB


class TestSegsnr:
    def test_partial_final_segment_ignored(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal(450)
        rep = segsnr(ref, ref + 0.01, 200)
        assert rep.segments_used == 2  # trailing 50 samples dropped

    def test_silence_skipped_and_counted(self):
        rng = np.random.default_rng(3)
        ref = np.concatenate([np.zeros(200), rng.standard_normal(200)])
        rep = segsnr(ref, ref + 0.01, 200)
        assert rep.segments_used == 1
        assert rep.segments_skipped == 1

    @pytest.mark.parametrize("segment_len", [0, 2.5, True, "200"])
    def test_bad_segment_len_rejected(self, segment_len):
        with pytest.raises(ValueError, match="^segment_len must be "):
            segsnr(np.ones(400), np.ones(400), segment_len)

    def test_all_silent_gives_nan(self):
        rep = segsnr(np.zeros(400), np.ones(400), 200)
        assert rep.segments_used == 0
        assert math.isnan(rep.mean_db)

    def test_mean_is_mean_of_segments(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(600)
        rep = segsnr(ref, ref + 0.05 * rng.standard_normal(600), 200)
        assert rep.mean_db == pytest.approx(np.mean(rep.per_segment_db))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segsnr(np.zeros(100), np.zeros(101), 50)

    def test_signal_objects_accepted(self, speech_like):
        rep = segsnr(speech_like, speech_like, 200)
        assert rep.mean_db == SNR_CEILING_DB


class TestZScore:
    def test_identical_rows_zero(self):
        assert z_score(20.0, 5.0, 20.0, 5.0, 100) == 0.0

    def test_known_value_lpc10_vs_lpc25(self):
        # 20.68/5.8 vs 21.11/5.7 at n=100: below the 2.5 threshold
        z = z_score(20.68, 5.8, 21.11, 5.7, 100)
        assert z == pytest.approx(0.5288, abs=1e-4)
        assert z < 2.5

    def test_known_value_near_threshold(self):
        z = z_score(28.15, 6.9, 25.84, 6.4, 100)
        assert z == pytest.approx(2.455, abs=1e-3)

    def test_symmetric(self):
        a = z_score(25.0, 4.0, 22.0, 6.0, 80)
        b = z_score(22.0, 6.0, 25.0, 4.0, 80)
        assert a == b

    def test_scales_with_sqrt_n(self):
        z1 = z_score(25.0, 4.0, 22.0, 6.0, 50)
        z2 = z_score(25.0, 4.0, 22.0, 6.0, 200)
        assert z2 == pytest.approx(2.0 * z1)

    def test_zero_std_distinct_means_infinite(self):
        assert math.isinf(z_score(20.0, 0.0, 21.0, 0.0, 10))

    def test_bad_n_rejected(self):
        for n in (0, 2.5, True, "3"):
            with pytest.raises(ValueError, match="^n must be "):
                z_score(20.0, 5.0, 21.0, 5.0, n)
