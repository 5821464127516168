"""Tests for the non-coherent MSK receiver chain."""

import warnings

import numpy as np
import pytest

from dualmodem import phy_frames as pf
from dualmodem._rxtypes import (
    SYNC_THRESHOLD,
    TIMING_WINDOW_SYMBOLS,
    DemodReport,
    MskTimingStat,
    RxConfig,
    earliest_peak,
    erase_non_finite,
    finish_frame,
    preamble_correlation,
)
from dualmodem.channel_model import ChannelParams, apply
from dualmodem.complexity_meter import RuntimeCounters
from dualmodem.rx_msk import (
    DIFF_DETECT_EPS,
    PREAMBLE_BLOCK,
    demodulate,
    detect_chips,
    diff_detect,
    frame_sync_msk,
    msk_timing,
)
from dualmodem.rx_qpsk import PREAMBLE_BLOCK as QPSK_PREAMBLE_BLOCK
from dualmodem.rx_qpsk import demodulate as demodulate_qpsk
from dualmodem.tx_oqpsk import IqBuffer, modulate

from frame_reference import frame_source_chips, preamble_correlation_reference

SPS = 8
# numpy computes a binary op in place into a temporary of at least 256 KiB
# (16,384 complex samples) and then uses a loop that rounds complex products
# differently in the last bit, so the full-buffer references below match the
# decision-rate stages bit for bit only on shorter buffers.  Hard decisions
# match at any length.
EXACT_MAX_SAMPLES = 16_000


def _buf(samples, sps=SPS):
    return IqBuffer(samples=np.asarray(samples, dtype=np.complex128), sps=sps, chip_rate_hz=2e6)


def _frame_buf(payload, sps=SPS):
    return modulate(pf.build_frame(payload), sps=sps)


# ---------------------------------------------------------------------------
# Differential detection
# ---------------------------------------------------------------------------


def _diff_detect_full_buffer(z, sps):
    """The phase-difference detector at every sample, zero for the first
    sps samples, which have no lagged sample."""
    y = np.zeros(z.size)
    mag = np.abs(z)
    y[sps:] = (z[sps:] * np.conj(z[:-sps])).imag / (mag[sps:] * mag[:-sps] + DIFF_DETECT_EPS)
    return y


def test_diff_detect_bounded_and_zero_head():
    rng = np.random.default_rng(0)
    buf = _buf(rng.standard_normal(200) + 1j * rng.standard_normal(200))
    for tau in range(SPS):
        y = diff_detect(buf, tau)
        assert y[0] == 0.0
        assert np.all(np.abs(y) <= 1.0 + 1e-12)


def test_diff_detect_reads_ramp_signs():
    rng = np.random.default_rng(1)
    payload = rng.integers(0, 2, 40).astype(np.uint8)
    source = frame_source_chips(payload)
    buf = _frame_buf(payload)
    y = diff_detect(buf, 0)
    # At each chip-boundary instant the normalized lag product is +-1 with
    # the sign of the source chip's phase ramp.
    boundary = y[1:]
    assert boundary.size == source.size
    assert np.allclose(np.abs(boundary), 1.0, atol=1e-9)
    assert np.array_equal((boundary > 0).astype(np.uint8), source)


def test_diff_detect_rejects_short_buffer():
    with pytest.raises(ValueError):
        diff_detect(_buf(np.zeros(SPS)), 0)


def _noisy_buffers(seed, sizes):
    rng = np.random.default_rng(seed)
    for n in sizes:
        yield _buf(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_chip_instant_detector_matches_full_buffer():
    for buf in _noisy_buffers(20, (SPS + 1, 2 * SPS, 257, 4_096, EXACT_MAX_SAMPLES)):
        full = _diff_detect_full_buffer(buf.samples, SPS)
        for tau in range(SPS):
            assert diff_detect(buf, tau).tobytes() == full[tau::SPS].tobytes()
    for tau in (-1, SPS):
        with pytest.raises(ValueError, match="timing phase"):
            diff_detect(_buf(np.zeros(64)), tau)


def test_chip_instant_decisions_match_padded_full_buffer():
    # The chain's decisions against the full-buffer detector run on the
    # buffer after one chip of leading zeros: one decision per chip instant,
    # the first one 0.
    frame = apply(
        _frame_buf(np.random.default_rng(21).integers(0, 2, 200).astype(np.uint8)),
        ChannelParams(snr_db=0.0, seed=5),
    )
    for buf in (*_noisy_buffers(22, (3 * SPS, 5_001, 20_000)), frame):
        padded = np.concatenate([np.zeros(SPS), buf.samples])
        y_padded = _diff_detect_full_buffer(padded, SPS)
        for tau in range(SPS):
            ref = (y_padded[tau + SPS :: SPS] > 0).astype(np.uint8)
            chips = detect_chips(diff_detect(buf, tau))
            assert np.array_equal(chips, ref), (len(buf), tau)


# ---------------------------------------------------------------------------
# Timing statistic
# ---------------------------------------------------------------------------


def test_msk_timing_recovers_every_phase():
    rng = np.random.default_rng(2)
    payload = rng.integers(0, 2, 80).astype(np.uint8)
    clean = _frame_buf(payload)
    for d in range(SPS):
        delayed = apply(clean, ChannelParams(tau_samples=d))
        stat = msk_timing(delayed)
        assert stat.tau_hat == d, d
        assert stat.v.size == SPS


def test_msk_timing_offset_immune():
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 2, 80).astype(np.uint8)
    buf = apply(_frame_buf(payload), ChannelParams(f_d_hz=50e3, theta_rad=2.1, tau_samples=5))
    assert msk_timing(buf).tau_hat == 5


def test_msk_timing_monte_carlo_10db():
    rng = np.random.default_rng(4)
    payload = rng.integers(0, 2, 80).astype(np.uint8)
    clean = _frame_buf(payload)
    hits = 0
    for trial in range(500):
        d = int(rng.integers(0, SPS))
        noisy = apply(
            clean, ChannelParams(tau_samples=d, snr_db=10.0, seed=int(rng.integers(0, 2**31)))
        )
        tau = msk_timing(noisy).tau_hat
        err = (tau - d + SPS // 2) % SPS - SPS // 2
        hits += abs(err) <= 1
    assert hits >= 475, hits  # >= 95% of 500


def _msk_timing_full_buffer(z, sps):
    """The timing statistic with lag products formed over the whole buffer."""
    c = (z[sps:] * np.conj(z[:-sps])) ** 2
    use = min(TIMING_WINDOW_SYMBOLS, c.size // sps)
    v = c[: use * sps].reshape(use, sps).mean(axis=0)
    return v, int(np.argmax(np.abs(v)))


def test_msk_timing_head_matches_full_buffer():
    sizes = (2 * SPS, 3 * SPS - 1, 200, 513, 520, 4_096, EXACT_MAX_SAMPLES)
    for buf in _noisy_buffers(23, sizes):
        v, tau_hat = _msk_timing_full_buffer(buf.samples, SPS)
        stat = msk_timing(buf)
        assert np.array_equal(stat.v, v), len(buf)
        assert stat.tau_hat == tau_hat


def test_msk_timing_short_window():
    rng = np.random.default_rng(5)
    z = np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
    # 40 samples hold 4 one-chip lag products per phase, short of the
    # 64-chip window: the statistic averages the 4 there are.
    stat = msk_timing(_buf(z))
    want = ((z[SPS:] * np.conj(z[:-SPS])) ** 2).reshape(4, SPS).mean(axis=0)
    assert np.array_equal(stat.v, want)
    assert stat.tau_hat == int(np.argmax(np.abs(want)))
    with pytest.raises(ValueError):
        msk_timing(_buf(np.zeros(10)))


# ---------------------------------------------------------------------------
# Chip decisions
# ---------------------------------------------------------------------------


def test_detect_chips_ideal_frame():
    rng = np.random.default_rng(6)
    payload = rng.integers(0, 2, 40).astype(np.uint8)
    buf = _frame_buf(payload)
    chips = detect_chips(diff_detect(buf, msk_timing(buf).tau_hat))
    source = frame_source_chips(payload)
    # The first instant has no lagged sample and decides 0; every chip
    # instant after it carries one source chip.
    assert chips[0] == 0
    assert np.array_equal(chips[1:], source)


def test_detect_chips_ties_to_zero():
    rng = np.random.default_rng(14)
    y = diff_detect(_buf(rng.standard_normal(400) + 1j * rng.standard_normal(400)), 3)
    y[5:9] = 0.0
    chips = detect_chips(y)
    assert chips.dtype == np.uint8 and chips.size == y.size
    assert chips[0] == 0
    assert np.array_equal(chips[1:], (y[1:] > 0).astype(np.uint8))
    assert not chips[5:9].any()
    assert not detect_chips(np.zeros(64)).any()


# ---------------------------------------------------------------------------
# Frame synchronization
# ---------------------------------------------------------------------------


def test_frame_sync_msk_finds_offset():
    rng = np.random.default_rng(7)
    payload = rng.integers(0, 2, 20).astype(np.uint8)
    source = frame_source_chips(payload)
    prefix = rng.integers(0, 2, 17).astype(np.uint8)
    found, start = frame_sync_msk(np.concatenate([prefix, source]))
    assert found and start == 17


def test_frame_sync_msk_exact_peak_value():
    source = frame_source_chips(np.ones(8, dtype=np.uint8))
    found, start = frame_sync_msk(source)
    assert found and start == 0


def test_frame_sync_msk_rejects_noise_and_short_input():
    rng = np.random.default_rng(8)
    found, _ = frame_sync_msk(rng.integers(0, 2, 1024).astype(np.uint8))
    assert not found
    found, start = frame_sync_msk(np.zeros(100, dtype=np.uint8))
    assert not found and start == 0


def test_frame_sync_msk_rejects_chips_other_than_0_and_1():
    # A cast to uint8 would read 0.7 as chip 0, and fail late on a 2
    # (IndexError) or a -1 (OverflowError).
    chips = frame_source_chips(np.ones(8, dtype=np.uint8)).astype(np.int64)
    for bad in ([0.7] * 300, np.where(np.arange(chips.size) == 5, 2, chips),
                np.where(np.arange(chips.size) == 5, -1, chips)):
        with pytest.raises(ValueError, match="0/1"):
            frame_sync_msk(bad)


def test_frame_sync_msk_prefers_earliest_near_tie():
    # An all-zero payload repeats the preamble row, producing equal peaks 32
    # chips apart; the earliest must win or the frame overruns the buffer.
    source = frame_source_chips(np.zeros(40, dtype=np.uint8))
    found, start = frame_sync_msk(source)
    assert found and start == 0


# The 256-chip preamble as +-1, in its plain form.
ANTIPODAL_PREAMBLE = 2.0 * pf.PREAMBLE_CHIPS - 1.0


def _frame_sync_msk_reference(chips):
    """frame_sync_msk with the full 256-chip np.correlate, energy-normalized."""
    x = 2.0 * np.asarray(chips, dtype=np.uint8) - 1.0
    corr = preamble_correlation_reference(x, ANTIPODAL_PREAMBLE)
    peak, lag = earliest_peak(corr)
    return bool(peak >= SYNC_THRESHOLD), lag, corr


def _frame_sync_by_length(chips):
    """frame_sync_msk as it was before the chains shared one correlation:
    the full 256-chip np.correlate over the preamble length."""
    x = 2.0 * np.asarray(chips, dtype=np.uint8) - 1.0
    if x.size < ANTIPODAL_PREAMBLE.size:
        return False, 0, None
    corr = np.correlate(x, ANTIPODAL_PREAMBLE, mode="valid")
    corr /= ANTIPODAL_PREAMBLE.size
    peak, lag = earliest_peak(corr)
    return bool(peak >= SYNC_THRESHOLD), lag, corr


def _random_chip_streams(seed, count, max_chips):
    """Random 0/1 streams of 0 to max_chips chips; every other one holds a
    frame whose payload opens with zero symbols (full-strength peaks 32
    chips apart, the SYNC_PEAK_MARGIN earliest-tie case), with random chip
    errors."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(0, max_chips))
        chips = rng.integers(0, 2, n).astype(np.uint8)
        if trial % 2 and n:
            payload = np.zeros(200, dtype=np.uint8)
            payload[int(rng.integers(0, 200)) :] = rng.integers(0, 2, 1)[0]
            source = frame_source_chips(payload)
            start = int(rng.integers(0, max(1, n - source.size)))
            chips[start : start + source.size] = source[: n - start]
            chips[rng.choice(n, int(rng.integers(0, min(n, 40))), replace=False)] ^= 1
        yield chips


def test_preamble_block_tiles_to_the_antipodal_preamble_bit_for_bit():
    tiled = np.tile(PREAMBLE_BLOCK, pf.PREAMBLE_REPEATS)
    assert tiled.tobytes() == ANTIPODAL_PREAMBLE.tobytes()
    assert PREAMBLE_BLOCK.size == 32 and not PREAMBLE_BLOCK.flags.writeable


def test_frame_sync_msk_comb_is_bit_exact():
    for chips in _random_chip_streams(21, 60, 2400):
        found, lag, corr = _frame_sync_msk_reference(chips)
        comb = preamble_correlation(2.0 * chips - 1.0, PREAMBLE_BLOCK)
        assert comb.tobytes() == corr.tobytes()
        assert frame_sync_msk(chips) == (found, lag)


def test_frame_sync_msk_keeps_the_length_normalized_sync():
    # (found, lag) as the chain gave them when it divided its correlation by
    # the preamble length, with and without frames, short streams included.
    # Every window of +-1 chips holds energy 256, as does the reference, so
    # the energy normalization divides by exactly 256.
    found_any = lost_any = False
    for chips in _random_chip_streams(23, 3_000, 2400):
        found, lag, by_length = _frame_sync_by_length(chips)
        if by_length is not None:
            norm = preamble_correlation(2.0 * chips - 1.0, PREAMBLE_BLOCK)
            assert norm.tobytes() == by_length.tobytes()
        assert frame_sync_msk(chips) == (found, lag)
        found_any |= found
        lost_any |= not found
    assert found_any and lost_any


@pytest.mark.parametrize("block", [PREAMBLE_BLOCK, QPSK_PREAMBLE_BLOCK], ids=["msk", "qpsk"])
def test_reference_energy_is_the_preamble_chip_count(block):
    # preamble_correlation takes either chain's reference energy to be the
    # preamble's chip count: every chip is +-1 on the rail it rides.
    energy = pf.PREAMBLE_REPEATS * np.sum(np.abs(block) ** 2)
    assert abs(energy - pf.PREAMBLE_CHIPS.size) <= 1e-15 * pf.PREAMBLE_CHIPS.size


@pytest.mark.parametrize("n", [0, 1, 100, 255])
def test_msk_preamble_correlation_of_a_short_stream_is_one_zero_lag(n):
    x = 2.0 * np.ones(n) - 1.0
    corr = preamble_correlation(x, PREAMBLE_BLOCK)
    assert corr.dtype == np.float64
    assert corr.tobytes() == np.zeros(1).tobytes()
    assert preamble_correlation_reference(x, ANTIPODAL_PREAMBLE).tobytes() == corr.tobytes()
    assert frame_sync_msk(np.ones(n, dtype=np.uint8)) == (False, 0)


# ---------------------------------------------------------------------------
# Full chain
# ---------------------------------------------------------------------------


def test_demodulate_ideal_loopback():
    rng = np.random.default_rng(9)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    report = demodulate(_frame_buf(payload))
    assert report.frame_found
    assert report.frame_start == 0
    assert report.preamble_match_count == 256
    assert np.array_equal(report.payload_bits, payload)
    assert report.carrier is None  # chain never estimates the carrier


def test_demodulate_offset_immunity():
    rng = np.random.default_rng(10)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    clean = _frame_buf(payload)
    # f_d * T_chip = 0.05 at 2 Mchip/s is a 100 kHz offset.
    for params in (
        ChannelParams(theta_rad=1.0),
        ChannelParams(theta_rad=-2.9),
        ChannelParams(f_d_hz=100e3),
        ChannelParams(f_d_hz=100e3, theta_rad=2.2, tau_samples=6),
    ):
        report = demodulate(apply(clean, params))
        assert report.frame_found
        assert np.array_equal(report.payload_bits, payload), params


def test_demodulate_has_no_differential_decoder(monkeypatch):
    # The modulator's sign convention folds the encoder into the waveform,
    # so the chain must never call the differential decoder.
    def boom(*args, **kwargs):
        raise AssertionError("differential decoder invoked")

    monkeypatch.setattr(pf, "differential_decode", boom)
    rng = np.random.default_rng(11)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    report = demodulate(_frame_buf(payload))
    assert report.frame_found
    assert np.array_equal(report.payload_bits, payload)


def test_demodulate_pure_noise_reports_no_frame():
    rng = np.random.default_rng(12)
    noise = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) / np.sqrt(2)
    report = demodulate(_buf(noise))
    assert not report.frame_found
    assert report.payload_bits is None


def test_demodulate_all_zero_payload():
    payload = np.zeros(200, dtype=np.uint8)
    report = demodulate(_frame_buf(payload))
    assert report.frame_found
    assert np.array_equal(report.payload_bits, payload)


def test_demodulate_counter_plumbing():
    rng = np.random.default_rng(13)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    buf = _frame_buf(payload)
    counter = RuntimeCounters()
    report = demodulate(buf, RxConfig(), counter=counter)
    assert counter.frame_sync_mults == 256**2
    assert counter.despread_xors == 50 * 512
    # One lag product per pair of consecutive chip instants, and a decision
    # at every instant after the first.
    instants = len(buf.samples[report.timing.tau_hat :: SPS])
    assert counter.diff_mults == 6 * (instants - 1)
    assert counter.bit_comparisons == instants - 1


@pytest.mark.parametrize("n_samples", [2 * SPS, 400, 2_047, 2_561, 14_856])
def test_demodulate_books_each_stage_at_its_chip_count(n_samples):
    # n chip instants: n - 1 lag products and decisions (the first chip is
    # fixed, not decided), and one 256-chip search over n - 255 lags once
    # the instants hold a whole preamble.
    rng = np.random.default_rng(n_samples)
    z = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    counter = RuntimeCounters()
    report = demodulate(_buf(z), RxConfig(), counter=counter)
    n = len(z[report.timing.tau_hat :: SPS])
    assert counter.diff_mults == 6 * (n - 1)
    assert counter.diff_adds == 3 * (n - 1)
    assert counter.bit_comparisons == n - 1
    searches = n >= 256
    assert counter.frame_sync_mults == searches * 256**2
    assert counter.frame_sync_adds == searches * 255**2
    assert counter.lags_searched == searches * (n - 255)


def test_demodulate_books_the_frame_sync_search_of_a_found_frame():
    buf = _frame_buf(np.ones(8, dtype=np.uint8))
    counter = RuntimeCounters()
    report = demodulate(buf, RxConfig(payload_bits=8), counter=counter)
    assert report.frame_found
    n = len(buf.samples[report.timing.tau_hat :: SPS])
    assert counter.frame_sync_mults == 256**2
    assert counter.frame_sync_adds == 255**2
    assert counter.lags_searched == n - 256 + 1
    assert counter.despread_xors == 2 * 512


# ---------------------------------------------------------------------------
# Shared frame tail and degenerate input, both chains
# ---------------------------------------------------------------------------


def _finish(chips, start, tau_hat=0):
    """finish_frame on source chips that begin at the frame's first chip,
    decision `start` of the chain's grid."""
    report = DemodReport(mode="msk", timing=MskTimingStat(v=np.ones(SPS), tau_hat=tau_hat))
    return finish_frame(report, chips, start, SPS, RxConfig(40), RuntimeCounters())


def test_finish_frame_counts_preamble_matches():
    # The SNR indicator: 256 minus the Hamming distance to the preamble.
    rng = np.random.default_rng(0)
    payload = rng.integers(0, 2, 40).astype(np.uint8)
    source = frame_source_chips(payload)
    assert _finish(source, 0).preamble_match_count == 256
    flipped = source.copy()
    flipped[rng.choice(256, 13, replace=False)] ^= 1
    # Decision 3 on a grid that starts a chip early is chip 2 of the buffer.
    report = _finish(flipped, 3, tau_hat=5)
    assert report.preamble_match_count == 243
    assert report.frame_found and report.frame_start == 5 + 2 * SPS
    assert np.array_equal(report.payload_bits, payload)
    # Chips past the frame's end are ignored.
    tail = np.ones(5, np.uint8)
    report = _finish(np.concatenate((source, tail)), 0)
    assert report.preamble_match_count == 256 and np.array_equal(report.payload_bits, payload)
    # A frame that overruns the chips is no frame.
    for chips, start in ((source[:-1], 0), (source[1:], 1)):
        report = _finish(chips, start)
        assert not report.frame_found and report.frame_start is None


def test_finish_frame_rejects_non_binary_chips():
    # A cast to uint8 would read 0.9 as chip 0 and match half the preamble.
    source = frame_source_chips(np.zeros(40, dtype=np.uint8))
    with pytest.raises(ValueError, match="0/1"):
        _finish(np.full(source.size, 0.9), 0)
    two_in_preamble = source.copy()
    two_in_preamble[3] = 2
    with pytest.raises(ValueError, match="0/1"):
        _finish(two_in_preamble, 0)


@pytest.mark.parametrize("chain", [demodulate, demodulate_qpsk], ids=["msk", "qpsk"])
@pytest.mark.parametrize("n_samples", [0, 1, SPS, 2 * SPS - 1])
def test_demodulate_short_buffer_reports_no_frame(chain, n_samples):
    report = chain(_buf(np.ones(n_samples)))
    assert not report.frame_found
    assert report.payload_bits is None


@pytest.mark.parametrize("chain", [demodulate, demodulate_qpsk], ids=["msk", "qpsk"])
def test_demodulate_all_nan_reports_no_frame(chain):
    report = chain(_buf(np.full(14_856, np.nan)))
    assert not report.frame_found
    assert report.payload_bits is None


@pytest.mark.parametrize("chain", [demodulate, demodulate_qpsk], ids=["msk", "qpsk"])
@pytest.mark.parametrize(
    "value",
    [np.nan, complex(np.nan, 0.0), np.inf, -np.inf, 1j * np.inf],
    ids=["nan", "nan+0j", "inf", "-inf", "1j*inf"],
)
def test_demodulate_erases_a_non_finite_sample(chain, value):
    # One bad sample anywhere in a noiseless frame, the timing head and the
    # two ends included, costs no bit and raises no warning.
    payload = np.random.default_rng(4).integers(0, 2, 200).astype(np.uint8)
    clean = _frame_buf(payload).samples
    for index in (3, 100, 519, 520, 2_000, 7_000, clean.size - 1):
        samples = clean.copy()
        samples[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = chain(_buf(samples))
        assert report.frame_found and report.frame_start == 0, index
        assert np.array_equal(report.payload_bits, payload), index


def test_erase_non_finite_returns_a_finite_buffer_uncopied():
    buf = _frame_buf(np.zeros(8, dtype=np.uint8))
    assert erase_non_finite(buf) is buf
    buf.samples[[0, 5]] = [np.nan, np.inf]
    erased = erase_non_finite(buf)
    assert erased.samples[0] == 0 and erased.samples[5] == 0
    assert np.array_equal(erased.samples[6:], buf.samples[6:])
    assert np.isnan(buf.samples[0])
    # A strided input is stored contiguous, so its samples read as floats.
    strided = _buf(buf.samples[::2])
    assert erase_non_finite(strided).samples[0] == 0


@pytest.mark.parametrize("chain", [demodulate, demodulate_qpsk], ids=["msk", "qpsk"])
def test_demodulate_ignores_nan_sync_lags(chain):
    # One NaN inside the burst makes every later preamble-correlation lag NaN
    # on the coherent chain; the true, earlier lag must still win.
    payload = np.random.default_rng(3).integers(0, 2, 200).astype(np.uint8)
    buf = apply(_frame_buf(payload), ChannelParams(tau_samples=1600))
    buf.samples[9000] = np.nan
    report = chain(buf)
    assert report.frame_found
    assert report.frame_start == 1600
    assert np.array_equal(report.payload_bits, payload)
