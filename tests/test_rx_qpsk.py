"""Tests for the coherent O-QPSK receiver chain."""

import ast
from pathlib import Path

import numpy as np
import pytest

from dualmodem import phy_frames as pf
from dualmodem import rx_qpsk
from dualmodem._rxtypes import (
    SYNC_THRESHOLD,
    RxConfig,
    earliest_peak,
    preamble_correlation,
)
from dualmodem.channel_model import RAMP_COLUMNS, ChannelParams, apply
from dualmodem.complexity_meter import RuntimeCounters, fft_op_counts
from dualmodem.rx_qpsk import (
    PREAMBLE_BLOCK,
    RB_CONFIDENCE_MIN,
    CarrierEstimate,
    _median,
    compensate,
    demodulate,
    elg_timing,
    matched_filter,
    rb_carrier_estimate,
)
from dualmodem.tx_oqpsk import SIGN_PATTERN_BITS, IqBuffer, half_sine_taps, modulate

from frame_reference import preamble_correlation_reference, preamble_reference_symbols

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
        for phase in range(SPS):
            grid = matched_filter(_buf(z), phase=phase)
            ref = full[phase + SPS :: SPS]
            assert grid.shape == ref.shape, (n, phase)
            assert np.allclose(grid, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(z)))
    with pytest.raises(ValueError):
        matched_filter(_buf(np.zeros(64)), phase=SPS)


# ---------------------------------------------------------------------------
# Early-late gate timing
# ---------------------------------------------------------------------------


def test_elg_converges_immediately_at_peak():
    signs = [(-1.0) ** k for k in range(40)]
    buf = matched_filter(_pulse_rail(40, 0, signs))
    est = elg_timing(buf, l_pulses=32, initial_phase=0)
    assert est.sample_phase == 0


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
    # The early and late taps sit ELG_DELTA = 2 samples off the candidate,
    # inside one chip only above sps = 2.
    elg_timing(matched_filter(_pulse_rail(40, 0, signs, sps=4)), initial_phase=0)
    with pytest.raises(ValueError, match="ELG_DELTA"):
        elg_timing(matched_filter(_pulse_rail(40, 0, signs, sps=2)), initial_phase=0)
    with pytest.raises(ValueError):
        elg_timing(buf, l_pulses=0, initial_phase=0)
    with pytest.raises(ValueError):
        elg_timing(_buf(np.zeros(8)), initial_phase=0)


# ---------------------------------------------------------------------------
# Carrier estimation and compensation
# ---------------------------------------------------------------------------


def test_rb_zero_offset_noiseless():
    z = np.ones(256, dtype=np.complex128)
    est = rb_carrier_estimate(z, T_SYM)
    bin_hz = 1.0 / (2048 * T_SYM) / 4.0
    assert abs(est.f_d_hat_hz) <= bin_hz / 2
    assert abs(est.theta_hat_rad) <= 0.05


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


def _compensate_full_buffer(buf, estimate):
    """Reference form of compensation: rotate every sample of the buffer,
    z[n] * exp(-j*(2*pi*f_hat*n*T_s + theta_hat)), before filtering.

    The rotation stays an unnamed temporary, so from 16,384 samples numpy
    multiplies into its memory, as the chain did when it compensated here.
    """
    n = np.arange(buf.samples.size)
    f_hat, theta_hat = estimate.f_d_hat_hz, estimate.theta_hat_rad
    out = buf.samples * np.exp(-1j * (2.0 * np.pi * f_hat * n * buf.sample_period_s + theta_hat))
    return IqBuffer(samples=out, sps=buf.sps, chip_rate_hz=buf.chip_rate_hz)


def _grid(phase, n_out):
    """Sample instants of the matched filter's decision grid at `phase`."""
    return range(phase + SPS, phase + SPS * (n_out + 1), SPS)


def _estimate(f_hat, theta_hat=0.0):
    return CarrierEstimate(f_d_hat_hz=f_hat, theta_hat_rad=theta_hat, peak_to_median=np.inf)


def test_compensate_inverts_known_offset():
    rng = np.random.default_rng(7)
    x = _buf(np.exp(1j * rng.uniform(-np.pi, np.pi, 300)))
    impaired = apply(x, ChannelParams(f_d_hz=15e3, theta_rad=-0.8))
    instants = _grid(3, 36)
    picked = impaired.samples[list(instants)]
    back = compensate(picked, _estimate(15e3, -0.8), instants, x.sample_period_s)
    assert np.max(np.abs(back - x.samples[list(instants)])) < 1e-9


def test_compensate_zero_estimate_is_identity():
    x = np.exp(0.1j * np.arange(50))
    assert np.array_equal(compensate(x, _estimate(0.0), _grid(5, 50), 1 / 16e6), x)


@pytest.mark.parametrize("n", [14_856, 16_456])
@pytest.mark.parametrize("f_hat", [0.0, 50e3, -37.5e3])
@pytest.mark.parametrize("theta_hat", [0.0, 0.6])
def test_compensate_matches_reference_bit_for_bit(n, f_hat, theta_hat):
    # The decision grid of an n-sample buffer at phase 7: 1,857 and 2,057
    # samples.
    instants = range(7 + SPS, n + N_PULSE - 1, SPS)
    assert len(instants) == {14_856: 1_857, 16_456: 2_057}[n]
    rng = np.random.default_rng(n)
    x = rng.standard_normal(len(instants)) + 1j * rng.standard_normal(len(instants))
    sample_period_s = 1 / (SPS * 2e6)
    # The rotation of decision k = RAMP_COLUMNS*q + r as the outer product
    # of the phasors at the row starts and those of the in-row offsets: a
    # ramp at -f_hat, one decision step apart, from the phase of the first
    # instant.  x stays the first factor.
    w = 2.0 * np.pi * f_hat * sample_period_s
    w_step = 2.0 * np.pi * -f_hat * (instants.step * sample_period_s)
    start = -(w * instants.start + theta_hat)
    q = np.arange(-(-len(instants) // RAMP_COLUMNS))
    r = np.arange(RAMP_COLUMNS)
    starts = np.exp(1j * (w_step * RAMP_COLUMNS * q + start))
    offsets = np.exp(1j * w_step * r)
    want = x * np.outer(starts, offsets).ravel()[: len(instants)]
    got = compensate(x, _estimate(f_hat, theta_hat), instants, sample_period_s)
    assert got.tobytes() == want.tobytes()


# Bound set from float64 before measuring, per decision k at sample instant
# n_k, with u = eps/2, w = 2*pi*f_hat*T_s and X_k = |w| n_k + |theta_hat|.
# The direct phase takes four roundings, so it is off by at most 4u X_k.
# The ramp's start phase -(w*n_0 + theta_hat) takes four (two of them in
# w), its per-decision step three, a row start's phase two more and an
# offset's one, so the two phases that make decision k are off by at most
# 5u X_k together.  Each complex exp and each complex product adds at most
# 4u of its size: two exps and two products on the ramp side, one of each
# on the direct side, 24u in all.  So the sides part by at most
# |x_k| u (9 X_k + 24); doubling it gives
#   |compensate - x exp(-j*phase)| <= |x_k| eps (9 X_k + 24).
# 8,385 decisions are the grid of a 1,016-bit frame; 125 kHz is the
# largest |f_hat| the carrier estimate returns.
@pytest.mark.parametrize("sps", [2, 8, 16])
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1_857, 8_385])
def test_compensate_matches_exp_of_direct_phase(sps, n):
    rng = np.random.default_rng(sps * n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sample_period_s = 1 / (sps * 2e6)
    eps = np.finfo(np.float64).eps
    for phase in (0, sps - 1):
        instants = range(phase + sps, phase + sps * (n + 1), sps)
        n_k = np.arange(instants.start, instants.stop, instants.step)
        for f_hat in (0.0, 12.5e3, -37.5e3, 125e3, -125e3):
            for theta_hat in (-np.pi / 4, 0.0, 0.6, np.pi / 4):
                phase_k = 2.0 * np.pi * f_hat * n_k * sample_period_s + theta_hat
                want = x * np.exp(-1j * phase_k)
                got = compensate(x, _estimate(f_hat, theta_hat), instants, sample_period_s)
                w = 2.0 * np.pi * f_hat * sample_period_s
                tol = np.abs(x) * eps * (9 * (abs(w) * n_k + abs(theta_hat)) + 24)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= tol), (phase, f_hat, theta_hat)


def test_compensate_residual_grows_linearly():
    # A frequency error eps leaves a rotation ramping at 2*pi*eps*T_s per
    # sample, so by 2*pi*eps*sps*T_s from one decision to the next.
    x = _buf(np.ones(400))
    eps = 2e3
    impaired = apply(x, ChannelParams(f_d_hz=10e3))
    instants = _grid(0, 49)
    picked = impaired.samples[list(instants)]
    est = _estimate(10e3 - eps)
    resid = np.unwrap(np.angle(compensate(picked, est, instants, x.sample_period_s)))
    slopes = np.diff(resid)
    assert np.allclose(slopes, 2 * np.pi * eps * SPS * x.sample_period_s, atol=1e-9)


def test_matched_filter_untuned_taps_are_the_plain_ones():
    rng = np.random.default_rng(34)
    z = _buf(rng.standard_normal(1_000) + 1j * rng.standard_normal(1_000))
    for phase in (0, 5):
        plain = matched_filter(z, phase=phase)
        assert matched_filter(z, phase=phase, f_hz=0.0).tobytes() == plain.tobytes()
        assert matched_filter(z, phase=phase, f_hz=1e3).tobytes() != plain.tobytes()


@pytest.mark.parametrize("n", [14_856, 16_456])
@pytest.mark.parametrize("f_hat", [0.0, 37.5e3, -37.5e3, 50e3, 124e3, -124e3])
def test_tuned_filter_then_compensate_equals_rotating_the_buffer(n, f_hat):
    # Bound set from float64 before measuring, per decision k at instant n_k,
    # with u = eps/2, X_k = |w| n_k + |theta| and A_k = sum_m |h[m]|
    # |z[n_k - m]| over the N taps.  Every phase is formed in at most three
    # roundings, so it is off by at most 3u of its size: the reference
    # rounds the phases of samples n_k - m, the folded path that of n_k and
    # of the tap ramp w*m, and a term's two phases part by at most 8u X_k.
    # exp and the complex products add at most 8u per term on each side,
    # and the N-term sums at most N u of A_k on each side.  That totals
    # A_k * eps * (4 X_k + N + 8); doubling it gives
    #   |folded - reference| <= A_k * eps * (8 X_k + 2 N + 16).
    rng = np.random.default_rng(n)
    buf = _buf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    w = 2.0 * np.pi * f_hat * buf.sample_period_s
    eps = np.finfo(np.float64).eps
    mag = np.convolve(np.abs(buf.samples), half_sine_taps(N_PULSE))
    for theta_hat in (0.0, 0.6):
        est = _estimate(f_hat, theta_hat)
        rotated = _compensate_full_buffer(buf, est)
        for phase in range(SPS):
            want = matched_filter(rotated, phase=phase)
            tuned = matched_filter(buf, phase=phase, f_hz=f_hat)
            instants = _grid(phase, tuned.size)
            got = compensate(tuned, est, instants, buf.sample_period_s)
            n_k = np.arange(instants.start, instants.stop, instants.step)
            tol = mag[n_k] * eps * (8 * (abs(w) * n_k + abs(theta_hat)) + 2 * N_PULSE + 16)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= tol), (phase, theta_hat)


# ---------------------------------------------------------------------------
# Frame synchronization
# ---------------------------------------------------------------------------


def test_rx_config_validation():
    RxConfig(payload_bits=8, n_fft=64)  # the smallest valid settings
    for kwargs in ({"payload_bits": 0}, {"payload_bits": 6}, {"payload_bits": 200.0},
                   {"n_fft": 0}, {"n_fft": 32}, {"n_fft": 1000}, {"n_fft": 2048.0}):
        with pytest.raises(ValueError):
            RxConfig(**kwargs)


# The 128-symbol preamble the correlator matches, in its plain form.
PREAMBLE_REFERENCE = preamble_reference_symbols()


def test_preamble_reference_shape_and_alphabet():
    ref = np.tile(PREAMBLE_BLOCK, pf.PREAMBLE_REPEATS)
    assert ref.size == 128
    assert np.allclose(np.abs(ref), np.sqrt(2.0))
    assert np.isin(ref.real, (-1.0, 1.0)).all() and np.isin(ref.imag, (-1.0, 1.0)).all()


def test_preamble_reference_is_shared_read_only():
    with pytest.raises(ValueError):
        PREAMBLE_BLOCK[0] = 0.0


def test_preamble_block_requires_eight_repeats():
    assert np.array_equal(np.tile(PREAMBLE_BLOCK, 8), PREAMBLE_REFERENCE)
    assert PREAMBLE_BLOCK.size == 16 and not PREAMBLE_BLOCK.flags.writeable


def test_preamble_block_tiles_to_the_encoded_preamble_bit_for_bit():
    # The block comes from one encoded table row; tiled, it must be the
    # symbols of the whole encoded, sign-adjusted 256-chip preamble.
    tiled = np.tile(PREAMBLE_BLOCK, pf.PREAMBLE_REPEATS)
    assert tiled.tobytes() == PREAMBLE_REFERENCE.tobytes()


def test_preamble_correlation_spans_the_whole_reference():
    # One lag exactly when the symbols hold one preamble: the correlation's
    # reference is the block repeated PREAMBLE_REPEATS times.  A perfect
    # match reads 1 at any scale, up to rounding.
    for scale in (1.0, 1e-3, 7.0j):
        corr = preamble_correlation(scale * PREAMBLE_REFERENCE, PREAMBLE_BLOCK)
        assert corr.shape == (1,)
        assert abs(corr[0]) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 64, 127])
def test_preamble_correlation_of_a_short_stream_is_one_zero_lag(n):
    # Fewer symbols than one preamble: the single lag 0, with value 0, which
    # the chain reads as peak 0 at lag 0 with angle 0.
    u = PREAMBLE_REFERENCE[:n] * np.exp(0.3j)
    corr = preamble_correlation(u, PREAMBLE_BLOCK)
    assert corr.dtype == np.complex128
    assert corr.tobytes() == np.zeros(1, dtype=np.complex128).tobytes()
    assert frame_sync_qpsk(u) == (False, 0)
    assert preamble_correlation_reference(u, PREAMBLE_REFERENCE).tobytes() == corr.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 32, 256, 1856, 1857])
def test_odd_chip_flip_undoes_the_sign_pattern(n):
    # O-QPSK read as MSK: the sign pattern P = 0110 has P[k] ^ P[k-1] =
    # k mod 2, so XORing P before the differential decode equals flipping
    # every odd chip after it, as demodulate does.
    rng = np.random.default_rng(n)
    for sliced in (rng.integers(0, 2, n).astype(np.uint8), np.zeros(n, np.uint8),
                   np.ones(n, np.uint8)):
        pattern = np.tile(SIGN_PATTERN_BITS, n // 4 + 1)[:n]
        want = pf.differential_decode(sliced ^ pattern)
        got = pf.differential_decode(sliced)
        got[1::2] ^= 1
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _preamble_correlation_reference(symbols, block):
    """The chain's preamble correlation with the full 128-symbol
    np.correlate against the plain-form preamble."""
    assert block is PREAMBLE_BLOCK
    return preamble_correlation_reference(symbols, PREAMBLE_REFERENCE)


def _peak_reference(symbols):
    """(peak, lag, phase_at_peak) as the chain reads them, from the full
    128-symbol correlation."""
    corr = _preamble_correlation_reference(symbols, PREAMBLE_BLOCK)
    peak, lag = earliest_peak(np.abs(corr))
    return peak, lag, float(np.angle(corr[lag]))


def test_qpsk_comb_correlation_matches_full_within_rounding():
    # Set from float64 before measuring: summing n products of magnitude at
    # most |u[k]| |ref[k]| in any order errs by at most n * eps times their
    # sum; complex products at most double that.  Normalized, that sum is
    # at most 1 (Cauchy-Schwarz), and the reference energies (256 here, the
    # rounded sum of |ref|^2 there) and the division add a few eps more.
    rng = np.random.default_rng(31)
    n_ref = PREAMBLE_REFERENCE.size
    tol = (2 * n_ref + 4) * np.finfo(np.float64).eps
    for trial in range(40):
        u = rng.standard_normal(900) + 1j * rng.standard_normal(900)
        lag = int(rng.integers(0, 900 - n_ref))
        u[lag : lag + n_ref] += rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 7)) * (
            PREAMBLE_REFERENCE
        )
        want = preamble_correlation_reference(u, PREAMBLE_REFERENCE)
        corr = preamble_correlation(u, PREAMBLE_BLOCK)
        assert corr.shape == want.shape
        assert np.all(np.abs(corr - want) <= tol)
        peak, got_lag = earliest_peak(np.abs(corr))
        phase = float(np.angle(corr[got_lag]))
        want_peak, want_lag, want_phase = _peak_reference(u)
        assert got_lag == want_lag
        assert peak == pytest.approx(want_peak, rel=tol, abs=tol)
        assert phase == pytest.approx(want_phase, abs=1e-9)


def _sync_limited_reports():
    """(found, frame_start, payload) of 48 packets at SNRs around the sync
    knee, with and without offset, rotation and lead."""
    rng = np.random.default_rng(32)
    out = []
    for i in range(48):
        payload = rng.integers(0, 2, 200).astype(np.uint8)
        params = ChannelParams(
            f_d_hz=float(rng.choice([0.0, 30e3])),
            theta_rad=float(rng.uniform(-np.pi, np.pi)),
            tau_samples=float(rng.choice([0, 5, 1600])),
            snr_db=float(rng.choice([-8.0, -4.0, -2.0, 0.0, 6.0])),
            seed=i,
        )
        report = demodulate(apply(_frame_buf(payload), params))
        bits = None if report.payload_bits is None else report.payload_bits.tobytes()
        out.append((report.frame_found, report.frame_start, bits))
    return out


def test_qpsk_comb_sync_picks_the_same_lag_and_parity(monkeypatch):
    # frame_start encodes the sync lag and chip parity, so equal reports
    # mean equal picks.
    comb = _sync_limited_reports()
    monkeypatch.setattr(rx_qpsk, "preamble_correlation", _preamble_correlation_reference)
    assert comb == _sync_limited_reports()
    assert any(found for found, _, _ in comb) and not all(found for found, _, _ in comb)


def test_decision_rate_compensation_decides_as_rotating_the_buffer(monkeypatch):
    # Route demodulate through the reference form wherever its carrier gate
    # opens: rotate the whole buffer, then filter it with the plain taps.
    folded = _sync_limited_reports()
    seen = {}
    reference_calls = []

    def plain_filter(buf, phase=None, f_hz=0.0):
        seen["buf"], seen["phase"] = buf, phase
        return matched_filter(buf, phase=phase)

    def rotate_the_buffer(x, estimate, instants, sample_period_s):
        # The chain rotates at the instants of the filter's decision grid.
        assert instants == _grid(seen["phase"], x.size)
        reference_calls.append(estimate)
        return matched_filter(_compensate_full_buffer(seen["buf"], estimate), phase=seen["phase"])

    monkeypatch.setattr(rx_qpsk, "matched_filter", plain_filter)
    monkeypatch.setattr(rx_qpsk, "compensate", rotate_the_buffer)
    assert folded == _sync_limited_reports()
    # The gate opened on some packets, and on offset ones among them.
    assert 0 < len(reference_calls) < 48
    assert any(abs(est.f_d_hat_hz) > 1e3 for est in reference_calls)


def test_sync_parity_1_wins_only_on_a_strictly_greater_peak(monkeypatch):
    # Both parities peak at lag 5; the frame then starts at chip 2*5 + parity
    # of the grid, which begins one chip early.
    buf = _frame_buf(np.zeros(200, dtype=np.uint8))

    def correlation(u, block):
        corr = np.zeros(6, dtype=np.complex128)
        corr[5] = next(stub)
        return corr

    monkeypatch.setattr(rx_qpsk, "preamble_correlation", correlation)
    for peaks, parity in (((0.9, 0.9), 0), ((0.9, 0.9 + 1e-12), 1)):
        stub = iter(peaks)
        report = demodulate(buf, RxConfig(payload_bits=8))
        assert report.frame_start == report.timing.tau_hat + (2 * 5 + parity - 1) * SPS


def test_median_by_partition_matches_np_median():
    rng = np.random.default_rng(33)
    for n in (2, 64, 2048):
        for trial in range(50):
            mag = np.abs(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            if trial % 5 == 0:
                mag[: n // 2] = mag[0]  # ties across the middle pair
            if trial % 7 == 0:
                mag[int(rng.integers(0, n))] = np.nan
            want = np.median(mag)
            got = _median(mag)
            assert (np.isnan(want) and np.isnan(got)) or got == want
    assert np.isnan(_median(np.full(2048, np.nan)))


def test_rb_nan_spectrum_gives_nan_ratio():
    est = rb_carrier_estimate(np.full(128, np.nan + 0j), T_SYM)
    assert np.isnan(est.peak_to_median)


def frame_sync_qpsk(symbols):
    """(found, lag) of the preamble peak at the chain's sync threshold."""
    peak, lag = earliest_peak(np.abs(preamble_correlation(symbols, PREAMBLE_BLOCK)))
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
    # The chain books one 128-symbol search per chip parity.  A 2,561-sample
    # buffer has 321 decisions at every timing phase, which each parity
    # pairs into 160 symbols: 33 lags.
    counter = RuntimeCounters()
    buf = _buf(_frame_buf(np.zeros(200, dtype=np.uint8)).samples[:2_561])
    report = demodulate(buf, RxConfig(), counter=counter)
    assert len(_grid(report.timing.tau_hat, 321)) == 321
    assert counter.frame_sync_mults == 2 * 128**2
    assert counter.frame_sync_adds == 2 * 127**2
    assert counter.lags_searched == 2 * 33


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
    # Below one preamble at sps = 8 (1,024 samples) the chain still runs
    # each stage whose own minimum the buffer meets, as the msk chain does:
    # timing from 2 * sps samples, the carrier from 64 symbols.
    report = demodulate(_buf(np.zeros(100)))
    assert not report.frame_found
    assert report.timing is not None and report.carrier is None
    rng = np.random.default_rng(19)
    report = demodulate(_buf(rng.standard_normal(1_023) + 1j * rng.standard_normal(1_023)))
    assert not report.frame_found
    assert report.timing is not None and report.carrier is not None


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


def test_demodulate_books_the_gate_open_filter_and_compensate_at_their_cost():
    # At 50 kHz the gate opens and the filter runs with complex taps: a
    # complex MAC per tap (4 mults, 2 adds) plus 2(N - 1) accumulation adds
    # per decision.  compensate books a phase multiply-add and a complex
    # multiply per decision in the carrier fields.
    payload = np.random.default_rng(18).integers(0, 2, 200).astype(np.uint8)
    buf = apply(_frame_buf(payload), ChannelParams(f_d_hz=50e3))
    counter = RuntimeCounters()
    report = demodulate(buf, RxConfig(), counter=counter)
    assert report.frame_found and np.array_equal(report.payload_bits, payload)
    assert report.carrier.peak_to_median >= RB_CONFIDENCE_MIN
    n_decisions = len(range(report.timing.tau_hat + SPS, len(buf) + N_PULSE - 1, SPS))
    assert counter.mf_mults == 4 * N_PULSE * n_decisions
    assert counter.mf_adds == (2 * N_PULSE + 2 * (N_PULSE - 1)) * n_decisions
    fft_adds, fft_mults = fft_op_counts(2048)
    assert counter.fft_mults == fft_mults + 5 * n_decisions
    assert counter.fft_adds == fft_adds + 3 * n_decisions


def test_demodulate_books_two_real_macs_per_decision_with_the_gate_closed():
    # The filter's taps are real unless the carrier gate opens, so each of
    # its N-tap decisions costs 2N real multiplies.
    rng = np.random.default_rng(30)
    for n in (1_024, 2_561, 14_856):
        z = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        counter = RuntimeCounters()
        report = demodulate(_buf(z), RxConfig(), counter=counter)
        assert report.carrier.peak_to_median < RB_CONFIDENCE_MIN, n
        n_decisions = len(range(report.timing.tau_hat + SPS, n + N_PULSE - 1, SPS))
        assert counter.mf_mults == 2 * N_PULSE * n_decisions, n
        assert counter.mf_adds == 2 * (N_PULSE - 1) * n_decisions, n
        assert counter.fft_mults > 0


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------


def _package_imports(path: Path) -> set[str]:
    """The dualmodem modules a source file imports, relatively or not."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "dualmodem" + (f".{node.module}" if node.module else "")
            dotted = [base] if base != "dualmodem" else [f"dualmodem.{a.name}" for a in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in dotted if name.startswith("dualmodem.")}
    return found


def test_receiver_chains_share_only_the_core():
    # Neither chain reaches into the other; both build on _rxtypes, which
    # knows neither chain.
    imports = {p.stem: _package_imports(p) for p in Path(rx_qpsk.__file__).parent.glob("*.py")}
    assert "_rxtypes" in imports["rx_qpsk"] and "_rxtypes" in imports["rx_msk"]
    assert "rx_msk" not in imports["rx_qpsk"]
    assert "rx_qpsk" not in imports["rx_msk"]
    assert not {"rx_qpsk", "rx_msk"} & imports["_rxtypes"]
