"""Coherent O-QPSK receiver chain.

Stages: symbol timing, power-of-four carrier estimation (frequency from the
FFT peak of z^4, phase from the angle at that bin), offset compensation when
the estimate passes its confidence gate, half-sine matched filtering
evaluated only at the chip decision instants, preamble correlation with
phase-ambiguity resolution, chip slicing and despreading.

Timing notes.  The textbook early-late gate (elg_timing) tracks the magnitude
peaks of a pulse train and is exposed and tested as a standalone
synchronizer.  The full chain, however, must acquire timing before the
carrier phase is known, and for a constant-envelope MSK-shaped signal the
filtered magnitude carries almost no rotation-invariant timing information
(the mean envelope ripple is below 5%).  demodulate therefore derives its
sampling phase from the squared lag-product statistic (rx_msk.msk_timing),
which is invariant to carrier offsets, and keeps the early-late gate for
rotation-free use.
"""

from __future__ import annotations

import numpy as np

from . import phy_frames
from ._rxtypes import (
    SYNC_THRESHOLD,
    CarrierEstimate,
    DemodReport,
    RxConfig,
    TimingEstimate,
    earliest_peak,
    finish_frame,
)
from .channel_model import phasor_ramp
from .rx_msk import msk_timing
from .tx_oqpsk import (
    SIGN_PATTERN_BITS,
    IqBuffer,
    chip_amplitudes,
    half_sine_taps,
)

RB_POWER = 4  # modulation-stripping exponent for QPSK constellations

# Minimum peak-to-median ratio of the power-of-four spectrum for the carrier
# estimate to be trusted.  Over 2048 bins of pure noise the maximum rarely
# exceeds ~4x the median, while a tone resolvable at all sits well above 5x;
# below the threshold demodulate falls back to zero compensation.
RB_CONFIDENCE_MIN = 5.5

# Fewest symbol-spaced samples the carrier estimator accepts.
MIN_CARRIER_SAMPLES = 64


def matched_filter(buf: IqBuffer, counter=None, phase: int | None = None):
    """Convolve with the half-sine chip pulse (full overlap, len + N - 1 out).

    For a pulse starting at input index s the filtered peak lands at output
    index s + N exactly; equivalently each chip's decision instant moves from
    its raw boundary b to b + sps.

    With `phase` in [0, sps), only the chip decision grid phase + sps :: sps
    of that output is computed, and it comes back as a plain array with one
    sample per chip instead of an IqBuffer: N multiply-adds per decision
    rather than per sample.
    """
    sps = buf.sps
    taps = half_sine_taps(2 * sps)
    z = buf.samples
    if phase is None:
        out = np.convolve(z, taps)
    else:
        if not 0 <= phase < sps:
            raise ValueError("phase must lie in [0, sps)")
        n_out = len(range(phase + sps, z.size + taps.size - 1, sps))
        # Row k holds input samples phase + 1 + (k-1)*sps .. phase + k*sps,
        # zero outside the buffer; grid output k is rows k and k+1 dotted
        # with the reversed taps.  einsum keeps the products in numpy's own
        # loops: a BLAS matrix-vector product this size starts BLAS worker
        # threads and touches BLAS buffer memory.
        lead = sps - 1 - phase
        padded = np.empty((n_out + 1) * sps, dtype=np.complex128)
        padded[:lead] = 0.0
        padded[lead : lead + z.size] = z
        padded[lead + z.size :] = 0.0
        rows = padded.reshape(n_out + 1, sps)
        rev = taps[::-1]
        out = np.einsum("kp,p->k", rows[:-1], rev[:sps]) + np.einsum(
            "kp,p->k", rows[1:], rev[sps:]
        )
    if counter is not None:
        counter.tally_matched_filter(out.size, taps.size)
    if phase is not None:
        return out
    return IqBuffer(samples=out, sps=sps, chip_rate_hz=buf.chip_rate_hz)


def elg_timing(
    buf: IqBuffer,
    l_pulses: int = 32,
    delta: int = 2,
    step: int = 1,
    initial_phase: int | None = None,
) -> TimingEstimate:
    """Early-late gate on the filtered magnitude.

    Per pulse, compares |z| at the candidate phase p against p +- delta and
    nudges p toward the larger neighbour.  Samples accumulate while the
    candidate holds still, so decisions sharpen between shifts; three
    consecutive no-shift decisions declare convergence.
    """
    n_pulse = 2 * buf.sps
    if not 1 <= delta < buf.sps:
        raise ValueError("delta must lie in [1, sps)")
    if l_pulses < 1:
        raise ValueError("l_pulses must be positive")
    mag = np.abs(buf.samples)
    if mag.size < 3 * n_pulse:
        raise ValueError("buffer too short for the early-late gate")
    if initial_phase is None:
        initial_phase = int(np.argmax(mag[:n_pulse]))

    phase = int(initial_phase)
    acc_e = acc_m = acc_l = 0.0
    quiet = 0
    converged = False
    used = 0
    for i in range(l_pulses):
        center = phase + (i + 1) * n_pulse
        if center - delta < 0 or center + delta >= mag.size:
            break
        used = i + 1
        acc_e += mag[center - delta]
        acc_m += mag[center]
        acc_l += mag[center + delta]
        if acc_l > acc_m:
            phase += step
            acc_e = acc_m = acc_l = 0.0
            quiet = 0
        elif acc_e > acc_m:
            phase -= step
            acc_e = acc_m = acc_l = 0.0
            quiet = 0
        else:
            quiet += 1
            if quiet >= 3:
                converged = True
                break
    return TimingEstimate(
        sample_phase=phase % n_pulse, converged=converged, iterations_used=used
    )


def rb_carrier_estimate(
    symbols, t_sym_s: float, n_fft: int = 2048, counter=None
) -> CarrierEstimate:
    """Frequency/phase estimate from the power-of-four spectrum.

    Raises the symbol-spaced samples to the 4th power to strip the QPSK
    modulation, zero-pads to n_fft, and reads 4*f_d off the FFT peak; the
    angle at the peak bin gives 4*theta.  A parabolic fit through the peak
    bin and its two neighbours refines the frequency to sub-bin resolution
    (for a tone exactly on a bin the neighbours are symmetric and the
    correction is zero).  Outputs are branch-reduced:
    |f_d_hat| <= 1/(8*t_sym_s) and theta_hat in (-pi/4, pi/4].
    """
    z = np.asarray(symbols, dtype=np.complex128)
    if n_fft < 64 or n_fft & (n_fft - 1):
        raise ValueError("n_fft must be a power of two >= 64")
    if z.size < MIN_CARRIER_SAMPLES:
        raise ValueError(f"need at least {MIN_CARRIER_SAMPLES} symbol-spaced samples")
    w = z[:n_fft] ** RB_POWER
    spectrum = np.fft.fft(w, n_fft)
    if counter is not None:
        counter.tally_fft(n_fft)
    mag = np.abs(spectrum)
    peak = int(np.argmax(mag))
    m0 = mag[peak]
    m_lo = mag[(peak - 1) % n_fft]
    m_hi = mag[(peak + 1) % n_fft]
    denom = m_lo - 2.0 * m0 + m_hi
    frac = 0.0 if denom == 0.0 else 0.5 * (m_lo - m_hi) / denom
    frac = float(np.clip(frac, -0.5, 0.5))
    k = (peak + frac) % n_fft
    if k > n_fft / 2:
        k -= n_fft
    f4_hz = k / (n_fft * t_sym_s)
    theta_hat = float(np.angle(spectrum[peak])) / RB_POWER
    floor = float(np.median(mag))
    return CarrierEstimate(
        f_d_hat_hz=f4_hz / RB_POWER,
        theta_hat_rad=theta_hat,
        n_fft=n_fft,
        peak_magnitude=float(m0),
        # A NaN floor (NaN input) gives a NaN ratio, which the gate rejects.
        peak_to_median=float(m0) / floor if floor != 0.0 else float("inf"),
    )


def compensate(buf: IqBuffer, estimate: CarrierEstimate) -> IqBuffer:
    """Remove the estimated rotation: z[n] * exp(-j*(2*pi*f_hat*n*T_s + theta_hat))."""
    # The rotation stays an unnamed temporary: from 16,384 samples numpy then
    # multiplies into its memory, with a loop that rounds the product
    # differently from the out-of-place one.
    out = buf.samples * phasor_ramp(
        buf.samples.size,
        estimate.f_d_hat_hz,
        buf.sample_period_s,
        estimate.theta_hat_rad,
        conjugate=True,
    )
    return IqBuffer(samples=out, sps=buf.sps, chip_rate_hz=buf.chip_rate_hz)


def preamble_reference_symbols() -> np.ndarray:
    """The 128 complex QPSK symbols of the encoded, sign-adjusted preamble."""
    enc = phy_frames.differential_encode(phy_frames.PREAMBLE_CHIPS)
    amps = chip_amplitudes(enc)
    return amps[0::2] + 1j * amps[1::2]


# The preamble correlator's reference, built once and shared read-only.
PREAMBLE_REFERENCE = preamble_reference_symbols()
PREAMBLE_REFERENCE.flags.writeable = False


def _preamble_peak(symbols, reference, counter=None):
    """Best normalized complex correlation: (peak, lag, phase_at_peak).

    The peak is the magnitude of the sliding complex correlation, which is
    invariant to the fourfold phase ambiguity left by the power-of-four
    estimator; the residual rotation is the angle at the peak.
    """
    u = np.asarray(symbols, dtype=np.complex128)
    ref = np.asarray(reference, dtype=np.complex128)
    if u.size < ref.size:
        return 0.0, 0, 0.0
    corr = np.correlate(u, ref, mode="valid")
    if counter is not None:
        counter.tally_correlation_search(ref.size, corr.size)
    energy = np.concatenate(([0.0], np.cumsum(np.abs(u) ** 2)))
    win = energy[ref.size :] - energy[: -ref.size]
    norm = np.abs(corr) / (np.sqrt(win * np.sum(np.abs(ref) ** 2)) + 1e-30)
    peak, lag = earliest_peak(norm)
    return peak, lag, float(np.angle(corr[lag]))


def demodulate(buf: IqBuffer, cfg: RxConfig | None = None, counter=None) -> DemodReport:
    """Full coherent chain; see the module docstring for the stage order."""
    cfg = cfg or RxConfig()
    layout = phy_frames.FrameLayout(payload_bits=cfg.payload_bits)
    sps = buf.sps
    z = buf.samples

    report = DemodReport(mode="qpsk", frame_found=False)
    if z.size < 4 * layout.preamble_chips:
        return report

    # Chip-boundary sampling phase, rotation-immune (see module docstring).
    stat = msk_timing(buf)
    phi0 = stat.tau_hat
    report.timing = stat

    # Carrier estimation on raw symbol-spaced boundary samples, where the
    # MSK phase grid makes z^4 a pure tone at 4*f_d.
    t_sym = 2.0 * sps * buf.sample_period_s
    sym_raw = z[phi0 :: 2 * sps]
    if sym_raw.size < MIN_CARRIER_SAMPLES:
        return report
    est = rb_carrier_estimate(sym_raw, t_sym, n_fft=cfg.n_fft, counter=counter)
    report.carrier = est

    # Compensate, then matched-filter the clean signal.  At low SNR the
    # power-of-four spectrum degenerates to noise and its argmax is a random
    # bin; correcting with a bogus tone is strictly worse than correcting
    # with nothing (the data-aided correlation angle below absorbs any
    # constant phase).  Only a statistically significant peak is applied;
    # otherwise the buffer is filtered as it is, which is what compensating
    # by a zero estimate would give.
    comp = compensate(buf, est) if est.peak_to_median >= RB_CONFIDENCE_MIN else buf
    # Chip-rate decision samples: chip r's filtered peak sits one chip after
    # its raw boundary phi0 + (r+1)*sps.  The grid starts one chip early so
    # that a timing phase one sample under the truth (tau_hat = truth - 1
    # mod sps, which advances every decision by a chip) still leaves the
    # whole frame inside the slice.
    x = matched_filter(comp, counter=counter, phase=phi0)
    if x.size < 2 * layout.preamble_chips // phy_frames.CHIPS_PER_SYMBOL:
        return report

    # The preamble correlator runs at symbol rate; pairing consecutive
    # boundary samples re-forms QPSK symbols.  Both chip parities of the
    # frame start are tried and the stronger peak wins.
    n_pairs0 = x.size // 2
    u0 = x[0 : 2 * n_pairs0 : 2] + x[1 : 2 * n_pairs0 : 2]
    n_pairs1 = (x.size - 1) // 2
    u1 = x[1 : 2 * n_pairs1 : 2] + x[2 : 2 * n_pairs1 + 1 : 2]
    peak0, lag0, phase0 = _preamble_peak(u0, PREAMBLE_REFERENCE, counter=counter)
    peak1, lag1, phase1 = _preamble_peak(u1, PREAMBLE_REFERENCE, counter=counter)
    if peak0 >= peak1:
        peak, parity, m0, delta_hat = peak0, 0, lag0, phase0
    else:
        peak, parity, m0, delta_hat = peak1, 1, lag1, phase1
    r0 = 2 * m0 + parity
    if not peak >= SYNC_THRESHOLD or r0 + layout.total_chips > x.size:
        return report

    # Slice chips on their own rail axis; the data-aided correlation angle
    # removes the residual rotation, and cross-rail spill is orthogonal to
    # the decision axis at the correct instants.
    xs = x[r0 : r0 + layout.total_chips] * np.exp(-1j * delta_hat)
    sliced = np.empty(layout.total_chips, dtype=np.uint8)
    sliced[0::2] = xs[0::2].real > 0
    sliced[1::2] = xs[1::2].imag > 0
    # Undo the modulator's index-locked sign pattern, then the differential
    # encoding.
    pattern = np.tile(SIGN_PATTERN_BITS, layout.total_chips // 4 + 1)[: layout.total_chips]
    encoded = sliced ^ pattern
    source = phy_frames.differential_decode(encoded)
    return finish_frame(report, source, phi0 + (r0 - 1) * sps, counter)
