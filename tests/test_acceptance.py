"""End-to-end acceptance checks for the dual-mode modem.

Each test is one pass/fail gate over the assembled system: loopback
correctness, complexity closed forms, estimator accuracy, timing
recovery, offset immunity, the BER ordering between the two receiver
chains, the low-SNR miss floor, the SNR-driven mode controller, the
despreading error-correction radius, and sweep determinism.  Monte
Carlo checks run at fixed seeds; runtime budgets are asserted where a
check could silently grow expensive.
"""

import time

import numpy as np
import pytest
from scipy import stats

from dualmodem import phy_frames as pf
from dualmodem.channel_model import ChannelParams, apply
from dualmodem.complexity_meter import ComplexityParams, msk_op_counts, qpsk_op_counts
from dualmodem.mode_controller import DEFAULT_MATCH_THRESHOLD
from dualmodem.rx_msk import demodulate as demodulate_msk
from dualmodem.rx_msk import msk_timing
from dualmodem.rx_qpsk import demodulate as demodulate_qpsk
from dualmodem.rx_qpsk import elg_timing, matched_filter, rb_carrier_estimate
from dualmodem.sim_harness import SweepConfig, ber_sweep, sweep_csv
from dualmodem.tx_oqpsk import IqBuffer, half_sine_taps, modulate

SPS = 8
N_PULSE = 2 * SPS
T_SYM = 1e-6  # symbol-spaced sampling period at 2 Mchip/s, sps=8
BER_TARGET = 1e-3
SWEEP_PACKETS = 2000
AUTO_PACKETS = 200


def _frame_buf(payload):
    return modulate(pf.build_frame(np.asarray(payload, dtype=np.uint8)))


def _pulse_rail(n_pulses, delay, signs):
    n = N_PULSE
    p = half_sine_taps(n)
    s = np.zeros(delay + n_pulses * n, dtype=np.complex128)
    for k in range(n_pulses):
        s[delay + k * n : delay + (k + 1) * n] += signs[k] * p
    return IqBuffer(samples=s, sps=SPS, chip_rate_hz=2e6)


def _first_crossing(points, target):
    """First grid SNR whose BER is at or below target, else None."""
    for p in points:
        if p.ber <= target:
            return p.snr_db
    return None


@pytest.fixture(scope="module")
def chain_sweeps():
    """Full-grid fixed-mode sweeps shared by the BER/controller criteria."""
    sweeps, elapsed = {}, {}
    for mode in ("qpsk", "msk"):
        t0 = time.perf_counter()
        sweeps[mode] = ber_sweep(SweepConfig(mode=mode, packets_per_point=SWEEP_PACKETS))
        elapsed[mode] = time.perf_counter() - t0
    return sweeps, elapsed


@pytest.fixture(scope="module")
def auto_sweep():
    return ber_sweep(SweepConfig(mode="auto", packets_per_point=AUTO_PACKETS))


def test_criterion_01_loopback_both_chains(monkeypatch, criterion_log):
    """100 ideal-channel packets decode error-free on both chains.

    The MSK half runs with the differential decoder replaced by a
    tripwire, proving that chain never invokes one.
    """
    rng = np.random.default_rng(101)
    payloads = [rng.integers(0, 2, 200).astype(np.uint8) for _ in range(100)]

    def _boom(*args, **kwargs):
        raise AssertionError("differential decoder invoked on the MSK path")

    t0 = time.perf_counter()
    errors = {"qpsk": 0, "msk": 0}
    for payload in payloads:
        report = demodulate_qpsk(_frame_buf(payload))
        assert report.frame_found
        errors["qpsk"] += int(np.sum(report.payload_bits != payload))
    with monkeypatch.context() as m:
        m.setattr(pf, "differential_decode", _boom)
        for payload in payloads:
            report = demodulate_msk(_frame_buf(payload))
            assert report.frame_found
            errors["msk"] += int(np.sum(report.payload_bits != payload))
    elapsed = time.perf_counter() - t0

    criterion_log.append(
        f"[criterion 01] loopback 100 packets/chain: qpsk errors {errors['qpsk']}, "
        f"msk errors {errors['msk']} (no differential decoder), {elapsed:.1f}s"
    )
    assert errors == {"qpsk": 0, "msk": 0}
    assert elapsed < 30.0


def test_criterion_02_complexity_closed_forms(criterion_log):
    """Per-packet operation totals match the closed-form model exactly."""
    params = ComplexityParams(l_pulses=32, n_sample=16, n_preamble=64, n_bits=200, n_fft=2048)
    msk = msk_op_counts(params)
    qpsk = qpsk_op_counts(params)
    criterion_log.append(
        f"[criterion 02] ops msk {msk.additions_total}/{msk.multiplications_total}, "
        f"qpsk {qpsk.additions_total}/{qpsk.multiplications_total} (adds/mults)"
    )
    assert msk.additions_total == 29_793
    assert msk.multiplications_total == 6_144
    assert qpsk.additions_total == 104_617
    assert qpsk.multiplications_total == 40_968


def test_criterion_03_carrier_estimator_accuracy(criterion_log):
    """FFT-size variance ordering at 0 dB plus fine offset recovery at 20 dB."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    fd, n = 30e3, 1056
    variances = {}
    for n_fft in (2048, 256):
        errs = []
        for _ in range(200):
            z = np.exp(1j * (2 * np.pi * fd * np.arange(n) * T_SYM + 0.4))
            z += (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
            errs.append(rb_carrier_estimate(z, T_SYM, n_fft=n_fft).f_d_hat_hz - fd)
        variances[n_fft] = float(np.var(errs))

    # One 4th-power-spectrum bin, expressed in carrier-offset terms.
    bin_hz = 1.0 / (4 * 2048 * T_SYM)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    offsets = {}
    for label, snr in (("noiseless", None), ("20dB", 20.0)):
        buf = apply(
            _frame_buf(payload),
            ChannelParams(f_d_hz=fd, theta_rad=1.0, tau_samples=3, snr_db=snr, seed=31),
        )
        report = demodulate_qpsk(buf)
        assert report.frame_found
        assert np.array_equal(report.payload_bits, payload)
        offsets[label] = abs(report.carrier.f_d_hat_hz - fd)
    elapsed = time.perf_counter() - t0

    criterion_log.append(
        f"[criterion 03] var(f_d_hat) 0 dB: nfft=2048 {variances[2048]:.3g} < "
        f"nfft=256 {variances[256]:.3g}; |f_d error| noiseless {offsets['noiseless']:.1f} Hz, "
        f"20 dB {offsets['20dB']:.1f} Hz (bin {bin_hz:.1f} Hz), {elapsed:.1f}s"
    )
    assert variances[2048] < variances[256]
    assert offsets["noiseless"] <= bin_hz
    assert offsets["20dB"] <= bin_hz
    assert elapsed < 120.0


def test_criterion_04_elg_timing_convergence(criterion_log):
    """Early-late gate lands within one sample from any starting offset."""
    signs = [(-1.0) ** k for k in range(40)]
    for delay in (0, 3, 7, 11):
        buf = matched_filter(_pulse_rail(40, delay, signs))
        truth = delay % N_PULSE
        for off in range(-N_PULSE // 2, N_PULSE // 2):
            est = elg_timing(buf, l_pulses=32, initial_phase=truth + off)
            err = (est.sample_phase - truth + N_PULSE // 2) % N_PULSE - N_PULSE // 2
            assert abs(err) <= 1, (delay, off, est.sample_phase)

    rng = np.random.default_rng(104)
    clean = _pulse_rail(40, 0, signs)
    p_sig = np.mean(np.abs(clean.samples) ** 2)
    sigma = np.sqrt(p_sig / 10**0.5)  # 5 dB SNR
    hits = 0
    for _ in range(500):
        delay = int(rng.integers(0, N_PULSE))
        dirty = _pulse_rail(40, delay, signs)
        noise = rng.standard_normal(len(dirty)) + 1j * rng.standard_normal(len(dirty))
        buf = matched_filter(
            IqBuffer(samples=dirty.samples + sigma / np.sqrt(2) * noise, sps=SPS, chip_rate_hz=2e6)
        )
        start = delay + int(rng.integers(-N_PULSE // 2, N_PULSE // 2))
        est = elg_timing(buf, l_pulses=32, initial_phase=start)
        err = (est.sample_phase - delay + N_PULSE // 2) % N_PULSE - N_PULSE // 2
        hits += abs(err) <= 1

    criterion_log.append(
        f"[criterion 04] elg noiseless: exact within +/-1 from all {N_PULSE} offsets; "
        f"5 dB: {hits}/500 within +/-1"
    )
    assert hits >= 475


def test_criterion_05_msk_timing_recovery(criterion_log):
    """Lag-product timing metric recovers every injected sample phase."""
    rng = np.random.default_rng(105)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    clean = _frame_buf(payload)
    for d in range(SPS):
        stat = msk_timing(apply(clean, ChannelParams(tau_samples=d)))
        assert stat.tau_hat == d, d

    hits = 0
    for _ in range(500):
        d = int(rng.integers(0, SPS))
        noisy = apply(
            clean, ChannelParams(tau_samples=d, snr_db=10.0, seed=int(rng.integers(0, 2**31)))
        )
        err = (msk_timing(noisy).tau_hat - d + SPS // 2) % SPS - SPS // 2
        hits += abs(err) <= 1

    criterion_log.append(
        f"[criterion 05] msk timing noiseless: exact for all {SPS} phases; "
        f"10 dB: {hits}/500 within +/-1"
    )
    assert hits >= 475


def test_criterion_06_msk_offset_immunity(criterion_log):
    """Non-coherent chain is bit-exact under fixed phase and 100 kHz offset."""
    rng = np.random.default_rng(106)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    clean = _frame_buf(payload)
    f_d = 0.05 * clean.chip_rate_hz  # offset-to-chip-rate ratio 0.05
    cases = [ChannelParams(theta_rad=t) for t in (-3.0, -1.2, 0.5, 1.0, 2.4, 3.1)]
    cases += [ChannelParams(f_d_hz=f_d), ChannelParams(f_d_hz=f_d, theta_rad=1.0)]
    for params in cases:
        report = demodulate_msk(apply(clean, params))
        assert report.frame_found, params
        assert np.array_equal(report.payload_bits, payload), params
    criterion_log.append(
        f"[criterion 06] msk chain bit-exact over {len(cases)} offset cases "
        f"(theta grid, f_d {f_d/1e3:.0f} kHz)"
    )


@pytest.mark.slow
def test_criterion_07_ber_ordering_and_gap(chain_sweeps, criterion_log):
    """Coherent chain outperforms non-coherent at every mutual operating point."""
    sweeps, elapsed = chain_sweeps
    qpsk_pts, msk_pts = sweeps["qpsk"].points, sweeps["msk"].points

    mutual = 0
    for q, m in zip(qpsk_pts, msk_pts):
        if q.frames_detected >= 100 and m.frames_detected >= 100:
            mutual += 1
            assert q.ber <= m.ber, (q.snr_db, q.ber, m.ber)
    assert mutual >= 3

    qpsk_cross = _first_crossing(qpsk_pts, BER_TARGET)
    msk_cross = _first_crossing(msk_pts, BER_TARGET)
    assert qpsk_cross is not None and msk_cross is not None
    gap = msk_cross - qpsk_cross
    total = elapsed["qpsk"] + elapsed["msk"]

    criterion_log.append(
        f"[criterion 07] BER {BER_TARGET:g} crossings: qpsk {qpsk_cross:+.0f} dB, "
        f"msk {msk_cross:+.0f} dB, measured gap {gap:.0f} dB (2 dB grid); "
        f"{mutual} mutual points ordered; sweeps {total:.0f}s at {SWEEP_PACKETS} packets/point"
    )
    assert gap >= 6.0
    assert total < 600.0


@pytest.mark.slow
def test_criterion_08_low_snr_miss_floor(chain_sweeps, criterion_log):
    """Below the sync floor, both chains miss more than 90% of frames."""
    sweeps, _ = chain_sweeps
    fractions = {}
    for mode in ("qpsk", "msk"):
        pts = sweeps[mode].points[:2]  # -20 and -18 dB
        fractions[mode] = [p.frames_missed / p.packets for p in pts]
        for p, frac in zip(pts, fractions[mode]):
            assert frac > 0.9, (mode, p.snr_db, frac)
    criterion_log.append(
        f"[criterion 08] missed fraction at -20/-18 dB: "
        f"qpsk {fractions['qpsk'][0]:.3f}/{fractions['qpsk'][1]:.3f}, "
        f"msk {fractions['msk'][0]:.3f}/{fractions['msk'][1]:.3f}"
    )


@pytest.mark.slow
def test_criterion_09_snr_indicator_and_auto_mode(chain_sweeps, auto_sweep, criterion_log):
    """Preamble match tracks SNR and drives the mode switch at the crossover."""
    sweeps, _ = chain_sweeps
    snrs = np.array([p.snr_db for p in sweeps["qpsk"].points])
    rho = {}
    for mode in ("qpsk", "msk"):
        matches = [p.mean_preamble_match for p in sweeps[mode].points]
        rho[mode] = stats.spearmanr(snrs, matches).statistic
        assert rho[mode] > 0.95, (mode, rho[mode])

    # The controller flips where the active chain's match level crosses the
    # threshold; locate that SNR on the MSK curve, which gates msk retention.
    msk_match = np.array([p.mean_preamble_match for p in sweeps["msk"].points])
    i = int(np.argmax(msk_match >= DEFAULT_MATCH_THRESHOLD))
    assert i > 0 and msk_match[i] >= DEFAULT_MATCH_THRESHOLD
    span = msk_match[i] - msk_match[i - 1]
    crossover = snrs[i - 1] + (snrs[i] - snrs[i - 1]) * (
        (DEFAULT_MATCH_THRESHOLD - msk_match[i - 1]) / span
    )
    qpsk_cross = _first_crossing(sweeps["qpsk"].points, BER_TARGET)
    msk_cross = _first_crossing(sweeps["msk"].points, BER_TARGET)
    assert qpsk_cross < crossover < msk_cross

    below = [p for p in auto_sweep.points if p.snr_db < crossover]
    above = [p for p in auto_sweep.points if p.snr_db > crossover]
    assert below and above
    for p in below:
        assert p.qpsk_fraction > 0.5, (p.snr_db, p.qpsk_fraction)
    for p in above:
        assert p.msk_fraction > 0.5, (p.snr_db, p.msk_fraction)

    criterion_log.append(
        f"[criterion 09] spearman(match, snr): qpsk {rho['qpsk']:.3f}, msk {rho['msk']:.3f}; "
        f"crossover {crossover:+.1f} dB; auto mode qpsk-majority at {len(below)} points below, "
        f"msk-majority at {len(above)} above"
    )


def test_criterion_10_despreading_radius(criterion_log):
    """All chip-flip patterns inside the code radius decode correctly."""
    dmin = pf.min_pairwise_distance()
    assert dmin == 12
    radius = (dmin - 1) // 2

    n_chips = pf.CHIP_TABLE.shape[1]
    for symbol in range(16):
        row = pf.CHIP_TABLE[symbol]
        for a in range(n_chips):  # every single flip
            chips = row.copy()
            chips[a] ^= 1
            assert pf.despread_chips(chips)[0] == symbol
        for a in range(n_chips):  # every double flip
            for b in range(a + 1, n_chips):
                chips = row.copy()
                chips[[a, b]] ^= 1
                assert pf.despread_chips(chips)[0] == symbol

    rng = np.random.default_rng(110)
    sampled = 0
    for symbol in range(16):
        row = pf.CHIP_TABLE[symbol]
        for weight in range(3, radius + 1):
            for _ in range(200):
                chips = row.copy()
                chips[rng.choice(n_chips, size=weight, replace=False)] ^= 1
                assert pf.despread_chips(chips)[0] == symbol, (symbol, weight)
                sampled += 1

    criterion_log.append(
        f"[criterion 10] dmin {dmin}, radius {radius}: flips of weight <=2 exhaustive, "
        f"{sampled} sampled patterns of weight 3..{radius} all decode"
    )


def test_criterion_11_sweep_determinism(criterion_log):
    """Same master seed yields byte-identical CSV, serial or parallel."""
    cfg = SweepConfig(
        snr_start_db=-6.0, snr_stop_db=0.0, snr_step_db=2.0, packets_per_point=50, master_seed=7
    )
    serial_a = sweep_csv(ber_sweep(cfg)).encode()
    serial_b = sweep_csv(ber_sweep(cfg)).encode()
    parallel = sweep_csv(ber_sweep(cfg, workers=2)).encode()
    criterion_log.append(
        f"[criterion 11] csv determinism: serial repeat identical {serial_a == serial_b}, "
        f"serial vs parallel identical {serial_a == parallel}"
    )
    assert serial_a == serial_b
    assert serial_a == parallel
