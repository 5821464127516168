"""Tests for the coherent O-QPSK receiver chain."""

import numpy as np
import pytest

from dualmodem import phy_frames as pf
from dualmodem._rxtypes import SYNC_THRESHOLD, CarrierEstimate, RxConfig
from dualmodem.channel_model import ChannelParams, apply
from dualmodem.complexity_meter import RuntimeCounters
from dualmodem.rx_qpsk import (
    PREAMBLE_REFERENCE,
    RB_CONFIDENCE_MIN,
    _preamble_peak,
    compensate,
    demodulate,
    elg_timing,
    matched_filter,
    preamble_reference_symbols,
    rb_carrier_estimate,
)
from dualmodem.tx_oqpsk import IqBuffer, half_sine_taps, modulate

SPS = 8
N_PULSE = 2 * SPS
T_SYM = 2 * SPS / (SPS * 2e6)  # symbol-spaced sampling period, 1 us


def _buf(samples, sps=SPS):
    return IqBuffer(samples=np.asarray(samples, dtype=np.complex128), sps=sps, chip_rate_hz=2e6)


def _frame_buf(payload, sps=SPS):
    return modulate(pf.build_frame(payload), sps=sps)


def _pulse_rail(n_pulses, delay, signs, sps=SPS):
    """Single-rail train of adjacent half-sine pulses (period = pulse length)."""
    n = 2 * sps
    p = half_sine_taps(n)
    s = np.zeros(delay + n_pulses * n, dtype=np.complex128)
    for k in range(n_pulses):
        s[delay + k * n : delay + (k + 1) * n] += signs[k] * p
    return _buf(s, sps)


# ---------------------------------------------------------------------------
# Matched filter
# ---------------------------------------------------------------------------


def test_matched_filter_impulse_response():
    out = matched_filter(_buf(np.eye(1, 40, 0)[0]))
    taps = half_sine_taps(N_PULSE)
    assert out.samples.size == 40 + N_PULSE - 1
    assert np.allclose(out.samples[:N_PULSE], taps)
    assert np.allclose(out.samples[N_PULSE:], 0.0)


def test_matched_filter_zero_in_zero_out():
    out = matched_filter(_buf(np.zeros(64)))
    assert not out.samples.any()


def test_matched_filter_peak_at_full_overlap():
    # A pulse starting at s yields its correlation peak at output index s + N.
    for start in (0, 5, 23):
        x = np.zeros(80, dtype=np.complex128)
        x[start : start + N_PULSE] = half_sine_taps(N_PULSE)
        out = matched_filter(_buf(x))
        assert int(np.argmax(np.abs(out.samples))) == start + N_PULSE


def test_matched_filter_decision_grid_matches_full_convolution():
    rng = np.random.default_rng(30)
    taps = half_sine_taps(N_PULSE)
    for n in (1, SPS, N_PULSE + 3, 1_000, 14_856):
        z = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        full = np.convolve(z, taps)
        counter = RuntimeCounters()
        for phase in range(SPS):
            grid = matched_filter(_buf(z), counter=counter, phase=phase)
            ref = full[phase + SPS :: SPS]
            assert grid.shape == ref.shape, (n, phase)
            assert np.allclose(grid, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(z)))
        assert counter.mf_mults == 2 * N_PULSE * sum(
            full[phase + SPS :: SPS].size for phase in range(SPS)
        )
    with pytest.raises(ValueError):
        matched_filter(_buf(np.zeros(64)), phase=SPS)


# ---------------------------------------------------------------------------
# Early-late gate timing
# ---------------------------------------------------------------------------


def test_elg_converges_immediately_at_peak():
    signs = [(-1.0) ** k for k in range(40)]
    buf = matched_filter(_pulse_rail(40, 0, signs))
    est = elg_timing(buf, l_pulses=32, initial_phase=0)
    assert est.converged
    assert est.sample_phase == 0
    assert est.iterations_used <= 4


def test_elg_recovers_plus_three_offset():
    signs = [(-1.0) ** k for k in range(40)]
    buf = matched_filter(_pulse_rail(40, 0, signs))
    est = elg_timing(buf, l_pulses=32, initial_phase=3)
    err = (est.sample_phase + N_PULSE // 2) % N_PULSE - N_PULSE // 2
    assert abs(err) <= 1


def test_elg_noiseless_from_any_offset():
    signs = [(-1.0) ** k for k in range(40)]
    for delay in (0, 5, 11):
        buf = matched_filter(_pulse_rail(40, delay, signs))
        truth = delay % N_PULSE
        for off in range(-N_PULSE // 2, N_PULSE // 2):
            est = elg_timing(buf, l_pulses=32, initial_phase=truth + off)
            err = (est.sample_phase - truth + N_PULSE // 2) % N_PULSE - N_PULSE // 2
            assert abs(err) <= 1, (delay, off, est.sample_phase)


def test_elg_monte_carlo_5db():
    rng = np.random.default_rng(8)
    signs = [(-1.0) ** k for k in range(40)]
    clean = _pulse_rail(40, 0, signs)
    p_sig = np.mean(np.abs(clean.samples) ** 2)
    sigma = np.sqrt(p_sig / 10 ** 0.5)
    hits = 0
    for _ in range(500):
        delay = int(rng.integers(0, N_PULSE))
        dirty = _pulse_rail(40, delay, signs)
        noise = (rng.standard_normal(len(dirty)) + 1j * rng.standard_normal(len(dirty)))
        buf = matched_filter(_buf(dirty.samples + sigma / np.sqrt(2) * noise))
        start = delay + int(rng.integers(-N_PULSE // 2, N_PULSE // 2))
        est = elg_timing(buf, l_pulses=32, initial_phase=start)
        err = (est.sample_phase - delay + N_PULSE // 2) % N_PULSE - N_PULSE // 2
        hits += abs(err) <= 1
    assert hits >= 475, hits  # >= 95% of 500


def test_elg_validation():
    signs = [1.0] * 40
    buf = matched_filter(_pulse_rail(40, 0, signs))
    with pytest.raises(ValueError):
        elg_timing(buf, delta=SPS)
    with pytest.raises(ValueError):
        elg_timing(buf, l_pulses=0)
    with pytest.raises(ValueError):
        elg_timing(_buf(np.zeros(8)))


# ---------------------------------------------------------------------------
# Carrier estimation and compensation
# ---------------------------------------------------------------------------


def test_rb_zero_offset_noiseless():
    z = np.ones(256, dtype=np.complex128)
    est = rb_carrier_estimate(z, T_SYM)
    bin_hz = 1.0 / (2048 * T_SYM) / 4.0
    assert abs(est.f_d_hat_hz) <= bin_hz / 2
    assert abs(est.theta_hat_rad) <= 0.05
    assert est.n_fft == 2048


def test_rb_on_bin_tone_is_exact():
    for k in (0, 3, -17, 200):
        f4 = k / (2048 * T_SYM)
        z = np.exp(1j * (2 * np.pi * (f4 / 4) * np.arange(1056) * T_SYM + 0.3))
        est = rb_carrier_estimate(z, T_SYM)
        assert est.f_d_hat_hz == pytest.approx(f4 / 4, abs=1e-6), k


def test_rb_off_bin_tone_interpolates():
    bin_hz = 1.0 / (2048 * T_SYM) / 4.0
    for frac in (0.1, 0.25, 0.4, -0.3):
        fd = 30e3 + frac * bin_hz
        z = np.exp(1j * (2 * np.pi * fd * np.arange(1056) * T_SYM + 0.7))
        est = rb_carrier_estimate(z, T_SYM)
        assert abs(est.f_d_hat_hz - fd) < bin_hz / 10, frac


def test_rb_branch_reduction():
    z = np.exp(1j * (2 * np.pi * 30e3 * np.arange(512) * T_SYM + 3.0))
    est = rb_carrier_estimate(z, T_SYM)
    assert abs(est.f_d_hat_hz) <= 1.0 / (8 * T_SYM)
    assert -np.pi / 4 < est.theta_hat_rad <= np.pi / 4


def test_rb_fourth_power_strips_modulation():
    # Chip-boundary samples of a clean frame are +-1 or +-j; the 4th power
    # collapses them all onto the carrier tone regardless of data.
    payload = np.random.default_rng(9).integers(0, 2, 200).astype(np.uint8)
    buf = apply(_frame_buf(payload), ChannelParams(f_d_hz=20e3, theta_rad=0.9))
    sym = buf.samples[:: 2 * SPS]
    w = sym[:256] ** 4
    t = np.arange(256) * 2 * SPS * buf.sample_period_s
    flat = w * np.exp(-1j * 4 * (2 * np.pi * 20e3 * t))
    assert np.max(np.abs(flat - flat[0])) < 1e-9


def test_rb_variance_ordering_at_0db():
    rng = np.random.default_rng(5)
    fd, n = 30e3, 1056
    variances = {}
    for n_fft in (2048, 256):
        errs = []
        for _ in range(200):
            z = np.exp(1j * (2 * np.pi * fd * np.arange(n) * T_SYM + 0.4))
            z += (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
            errs.append(rb_carrier_estimate(z, T_SYM, n_fft=n_fft).f_d_hat_hz - fd)
        variances[n_fft] = float(np.var(errs))
    assert variances[2048] < variances[256], variances


def test_rb_confidence_separates_tone_from_noise():
    rng = np.random.default_rng(6)
    z = np.exp(1j * 2 * np.pi * 30e3 * np.arange(1056) * T_SYM)
    assert rb_carrier_estimate(z, T_SYM).peak_to_median > RB_CONFIDENCE_MIN
    noise = (rng.standard_normal(1056) + 1j * rng.standard_normal(1056)) / np.sqrt(2)
    assert rb_carrier_estimate(noise, T_SYM).peak_to_median < RB_CONFIDENCE_MIN


def test_rb_validation():
    with pytest.raises(ValueError):
        rb_carrier_estimate(np.ones(256), T_SYM, n_fft=1000)
    with pytest.raises(ValueError):
        rb_carrier_estimate(np.ones(10), T_SYM)


def test_compensate_inverts_known_offset():
    rng = np.random.default_rng(7)
    x = _buf(np.exp(1j * rng.uniform(-np.pi, np.pi, 300)))
    impaired = apply(x, ChannelParams(f_d_hz=15e3, theta_rad=-0.8))
    est = CarrierEstimate(f_d_hat_hz=15e3, theta_hat_rad=-0.8, n_fft=2048, peak_magnitude=0.0)
    back = compensate(impaired, est)
    assert np.max(np.abs(back.samples - x.samples)) < 1e-9


def test_compensate_zero_estimate_is_identity():
    x = _buf(np.exp(0.1j * np.arange(50)))
    est = CarrierEstimate(f_d_hat_hz=0.0, theta_hat_rad=0.0, n_fft=2048, peak_magnitude=0.0)
    assert np.array_equal(compensate(x, est).samples, x.samples)


@pytest.mark.parametrize("n", [14_856, 16_456])
@pytest.mark.parametrize("f_hat", [0.0, 50e3, -37.5e3])
@pytest.mark.parametrize("theta_hat", [0.0, 0.6])
def test_compensate_matches_reference_bit_for_bit(n, f_hat, theta_hat):
    # 16,456 samples is past the 16,384 from which numpy multiplies into the
    # exponential's memory, with a loop that rounds differently.
    rng = np.random.default_rng(n)
    x = _buf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    est = CarrierEstimate(f_d_hat_hz=f_hat, theta_hat_rad=theta_hat, n_fft=2048, peak_magnitude=1)
    k = np.arange(n)
    want = x.samples * np.exp(-1j * (2.0 * np.pi * f_hat * k * x.sample_period_s + theta_hat))
    assert compensate(x, est).samples.tobytes() == want.tobytes()


def test_compensate_residual_grows_linearly():
    # A frequency error eps leaves a rotation ramping at 2*pi*eps*T_s per sample.
    x = _buf(np.ones(400))
    eps = 2e3
    impaired = apply(x, ChannelParams(f_d_hz=10e3))
    est = CarrierEstimate(f_d_hat_hz=10e3 - eps, theta_hat_rad=0.0, n_fft=2048, peak_magnitude=0.0)
    resid = np.unwrap(np.angle(compensate(impaired, est).samples))
    slopes = np.diff(resid)
    assert np.allclose(slopes, 2 * np.pi * eps * x.sample_period_s, atol=1e-9)


# ---------------------------------------------------------------------------
# Frame synchronization
# ---------------------------------------------------------------------------


def test_rx_config_validation():
    RxConfig(payload_bits=8, n_fft=64)  # the smallest valid settings
    for kwargs in ({"payload_bits": 0}, {"payload_bits": 6}, {"n_fft": 0}, {"n_fft": 32},
                   {"n_fft": 1000}):
        with pytest.raises(ValueError):
            RxConfig(**kwargs)


def test_preamble_reference_shape_and_alphabet():
    ref = preamble_reference_symbols()
    assert ref.size == 128
    assert np.allclose(np.abs(ref), np.sqrt(2.0))
    assert np.isin(ref.real, (-1.0, 1.0)).all() and np.isin(ref.imag, (-1.0, 1.0)).all()


def test_preamble_reference_is_shared_read_only():
    assert np.array_equal(PREAMBLE_REFERENCE, preamble_reference_symbols())
    with pytest.raises(ValueError):
        PREAMBLE_REFERENCE[0] = 0.0


def frame_sync_qpsk(symbols, counter=None):
    """(found, lag) of the preamble peak at the chain's sync threshold."""
    peak, lag, _ = _preamble_peak(symbols, PREAMBLE_REFERENCE, counter=counter)
    return peak >= SYNC_THRESHOLD, lag


def test_frame_sync_qpsk_finds_offsets():
    rng = np.random.default_rng(10)
    ref = preamble_reference_symbols()
    for off in (0, 7, 40):
        prefix = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=off)
        tail = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=16)
        found, lag = frame_sync_qpsk(np.concatenate([prefix, ref, tail]))
        assert found and lag == off


def test_frame_sync_qpsk_rotation_immune():
    rng = np.random.default_rng(11)
    ref = preamble_reference_symbols()
    prefix = rng.choice([1 + 1j, -1 - 1j], size=9)
    base = np.concatenate([prefix, ref])
    for rot in (1.0, 1.0j, -1.0, -1.0j, np.exp(0.3j)):
        found, lag = frame_sync_qpsk(rot * base)
        assert found and lag == 9, rot


def test_frame_sync_qpsk_rejects_noise_and_short_input():
    rng = np.random.default_rng(12)
    noise = (rng.standard_normal(192) + 1j * rng.standard_normal(192)) / np.sqrt(2)
    found, _ = frame_sync_qpsk(noise)
    assert not found
    found, lag = frame_sync_qpsk(np.ones(100, dtype=np.complex128))
    assert not found and lag == 0


def test_frame_sync_qpsk_counter_tally():
    counter = RuntimeCounters()
    symbols = np.concatenate([preamble_reference_symbols(), np.zeros(32)])
    frame_sync_qpsk(symbols, counter=counter)
    assert counter.frame_sync_mults == 128**2
    assert counter.frame_sync_adds == 127**2
    assert counter.lags_searched == 33


# ---------------------------------------------------------------------------
# Full chain
# ---------------------------------------------------------------------------


def test_demodulate_ideal_loopback():
    rng = np.random.default_rng(13)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    report = demodulate(_frame_buf(payload))
    assert report.frame_found
    assert report.frame_start == 0
    assert report.preamble_match_count == 256
    assert np.array_equal(report.payload_bits, payload)
    assert report.carrier is not None and report.timing is not None


def test_demodulate_impaired_capture():
    rng = np.random.default_rng(14)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    buf = apply(
        _frame_buf(payload),
        ChannelParams(f_d_hz=30e3, theta_rad=1.0, tau_samples=3, snr_db=20.0, seed=2),
    )
    report = demodulate(buf)
    assert report.frame_found
    assert np.array_equal(report.payload_bits, payload)
    assert abs(report.carrier.f_d_hat_hz - 30e3) < 125.0
    assert report.carrier.peak_to_median > RB_CONFIDENCE_MIN


def test_demodulate_all_zero_payload():
    # Zero payload symbols extend the preamble pattern; sync must still lock
    # onto the earliest peak and decode exactly.
    payload = np.zeros(200, dtype=np.uint8)
    for snr in (None, 12.0):
        buf = _frame_buf(payload)
        if snr is not None:
            buf = apply(buf, ChannelParams(snr_db=snr, seed=3))
        report = demodulate(buf)
        assert report.frame_found
        assert np.array_equal(report.payload_bits, payload), snr


def test_demodulate_low_snr_gate_falls_back():
    # At 2 dB the power-of-four spectrum is unreliable; the confidence gate
    # must fall back to zero compensation and the frame still decodes.
    rng = np.random.default_rng(15)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    buf = apply(_frame_buf(payload), ChannelParams(theta_rad=0.6, snr_db=2.0, seed=4))
    report = demodulate(buf)
    assert report.frame_found
    assert np.array_equal(report.payload_bits, payload)
    assert report.carrier.peak_to_median < RB_CONFIDENCE_MIN


def test_demodulate_pure_noise_reports_no_frame():
    rng = np.random.default_rng(16)
    noise = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) / np.sqrt(2)
    report = demodulate(_buf(noise))
    assert not report.frame_found
    assert report.payload_bits is None


def test_demodulate_short_buffer():
    report = demodulate(_buf(np.zeros(100)))
    assert not report.frame_found


def test_demodulate_theta_grid():
    rng = np.random.default_rng(17)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    for theta in (-3.0, -1.0, 0.5, 2.8):
        buf = apply(_frame_buf(payload), ChannelParams(theta_rad=theta))
        report = demodulate(buf)
        assert report.frame_found and np.array_equal(report.payload_bits, payload), theta


def test_demodulate_counter_plumbing():
    rng = np.random.default_rng(18)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    counter = RuntimeCounters()
    buf = _frame_buf(payload)
    report = demodulate(buf, RxConfig(), counter=counter)
    # Both chip parities are searched, one correlation search each.
    assert counter.frame_sync_mults == 2 * 128**2
    assert counter.fft_mults > 0 and counter.mf_mults > 0
    # The matched filter forms only the chip decision grid of its full
    # len + N - 1 output, N taps and two real MACs per decision.
    phase = report.timing.tau_hat
    n_decisions = len(range(phase + SPS, len(buf) + N_PULSE - 1, SPS))
    assert counter.mf_mults == 2 * N_PULSE * n_decisions
    assert counter.despread_xors == 50 * 512
    assert counter.despread_comparisons == 50 * 15
