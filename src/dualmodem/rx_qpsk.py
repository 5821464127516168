"""Coherent O-QPSK receiver chain.

Stages: symbol timing, power-of-four carrier estimation (frequency from the
FFT peak of z^4, phase from the angle at that bin), half-sine matched
filtering evaluated only at the chip decision instants, offset compensation
of those decisions when the estimate passes its confidence gate, preamble
correlation with phase-ambiguity resolution, chip slicing and despreading.

Compensation runs at the decision rate.  A frequency offset commutes with
the filter once the taps are shifted by the same frequency:
sum_m h[m] z[n-m] exp(-j*w*(n-m)) = exp(-j*w*n) * sum_m h[m] exp(j*w*m) z[n-m].
So the gate-open chain filters with taps tuned to the estimate and rotates
one sample per chip, not every input sample (frequency correction after
the matched filter; Mengali & D'Andrea, Synchronization Techniques for
Digital Receivers, 1997).  The identity is exact in real arithmetic; only
float64 rounding differs from rotating the buffer first.

Timing notes.  The textbook early-late gate (elg_timing) tracks the magnitude
peaks of a pulse train and is exposed and tested as a standalone
synchronizer.  The full chain, however, must acquire timing before the
carrier phase is known, and for a constant-envelope MSK-shaped signal the
filtered magnitude carries almost no rotation-invariant timing information
(the mean envelope ripple is below 5%).  demodulate therefore derives its
sampling phase from the squared lag-product statistic (_rxtypes.msk_timing),
which is invariant to carrier offsets, and keeps the early-late gate for
rotation-free use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phy_frames
from ._rxtypes import (
    SYNC_THRESHOLD,
    DemodReport,
    RxConfig,
    earliest_peak,
    msk_timing,
    preamble_correlation,
    receive,
)
from .channel_model import phasor_ramp
from .complexity_meter import check_n_fft
from .tx_oqpsk import SIGN_PATTERN_BITS, IqBuffer, half_sine_taps

RB_POWER = 4  # modulation-stripping exponent for QPSK constellations

# Minimum peak-to-median ratio of the power-of-four spectrum for the carrier
# estimate to be trusted.  Over 2048 bins of pure noise the maximum rarely
# exceeds ~4x the median, while a tone resolvable at all sits well above 5x;
# below the threshold demodulate falls back to zero compensation.
RB_CONFIDENCE_MIN = 5.5

# Fewest symbol-spaced samples the carrier estimator accepts.
MIN_CARRIER_SAMPLES = 64

# Early and late taps of the early-late gate, in samples either side of the
# candidate phase.
ELG_DELTA = 2


@dataclass
class CarrierEstimate:
    """Joint frequency/phase estimate from the power-of-four spectrum."""

    f_d_hat_hz: float
    theta_hat_rad: float
    # Ratio of the spectral peak to the median bin magnitude.  Near 1 the
    # spectrum is flat (no tone found); large values mean a credible tone.
    peak_to_median: float


@dataclass
class TimingEstimate:
    """Early-late gate output: best sampling phase within one pulse period."""

    sample_phase: int


def matched_filter(buf: IqBuffer, phase: int | None = None, f_hz: float = 0.0):
    """Convolve with the half-sine chip pulse (full overlap, len + N - 1 out).

    For a pulse starting at input index s the filtered peak lands at output
    index s + N exactly; equivalently each chip's decision instant moves from
    its raw boundary b to b + sps.

    With `phase` in [0, sps), only the chip decision grid phase + sps :: sps
    of that output is computed, and it comes back as a plain array with one
    sample per chip instead of an IqBuffer: N multiply-adds per decision
    rather than per sample.

    A nonzero `f_hz` tunes the taps to that frequency, h[m] * exp(j*w*m)
    with w = 2*pi*f_hz*T_s.  Output n then equals exp(j*w*n) times the plain
    filter's output n on the buffer rotated by exp(-j*w*k) at every sample
    k, so compensate can remove a carrier offset from the grid alone.
    """
    sps = buf.sps
    if phase is not None:
        phy_frames.check_integer(phase, "phase", 0, sps - 1)
    taps = half_sine_taps(2 * sps)
    if f_hz != 0.0:
        w = 2.0 * np.pi * f_hz * buf.sample_period_s
        taps = taps * np.exp(1j * w * np.arange(taps.size))
    z = buf.samples
    if phase is None:
        return IqBuffer(samples=np.convolve(z, taps), sps=sps, chip_rate_hz=buf.chip_rate_hz)
    n_out = len(range(phase + sps, z.size + taps.size - 1, sps))
    # Row k holds input samples phase + 1 + (k-1)*sps .. phase + k*sps,
    # zero outside the buffer; grid output k is rows k and k+1 dotted with
    # the reversed taps.  einsum keeps the products in numpy's own loops: a
    # BLAS matrix-vector product this size starts BLAS worker threads and
    # touches BLAS buffer memory.
    lead = sps - 1 - phase
    padded = np.empty((n_out + 1) * sps, dtype=np.complex128)
    padded[:lead] = 0.0
    padded[lead : lead + z.size] = z
    padded[lead + z.size :] = 0.0
    rows = padded.reshape(n_out + 1, sps)
    rev = taps[::-1]
    return np.einsum("kp,p->k", rows[:-1], rev[:sps]) + np.einsum("kp,p->k", rows[1:], rev[sps:])


def elg_timing(buf: IqBuffer, l_pulses: int = 32, *, initial_phase: int) -> TimingEstimate:
    """Early-late gate on the filtered magnitude, started at initial_phase.

    Per pulse, compares |z| at the candidate phase p against p +- ELG_DELTA
    and nudges p toward the larger neighbour.  Samples accumulate while the
    candidate holds still, so decisions sharpen between shifts; three
    consecutive no-shift decisions end the search.  A start whose first
    pulse has no early or late sample in the buffer is refused.
    """
    n_pulse = 2 * buf.sps
    if buf.sps <= ELG_DELTA:
        raise ValueError(f"sps must exceed ELG_DELTA = {ELG_DELTA}")
    phy_frames.check_integer(l_pulses, "l_pulses", 1)
    mag = np.abs(buf.samples)
    if mag.size < 3 * n_pulse:
        raise ValueError("buffer too short for the early-late gate")
    phy_frames.check_integer(initial_phase, "initial_phase", ELG_DELTA - n_pulse,
                             mag.size - n_pulse - ELG_DELTA - 1)

    phase = int(initial_phase)
    acc_e = acc_m = acc_l = 0.0
    quiet = 0
    for i in range(l_pulses):
        center = phase + (i + 1) * n_pulse
        if center - ELG_DELTA < 0 or center + ELG_DELTA >= mag.size:
            break
        acc_e += mag[center - ELG_DELTA]
        acc_m += mag[center]
        acc_l += mag[center + ELG_DELTA]
        if acc_l > acc_m:
            phase += 1
            acc_e = acc_m = acc_l = 0.0
            quiet = 0
        elif acc_e > acc_m:
            phase -= 1
            acc_e = acc_m = acc_l = 0.0
            quiet = 0
        else:
            quiet += 1
            if quiet >= 3:
                break
    return TimingEstimate(sample_phase=phase % n_pulse)


def rb_carrier_estimate(symbols, t_sym_s: float, n_fft: int = RxConfig.n_fft) -> CarrierEstimate:
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
    check_n_fft(n_fft)
    if z.size < MIN_CARRIER_SAMPLES:
        raise ValueError(f"need at least {MIN_CARRIER_SAMPLES} symbol-spaced samples")
    w = z[:n_fft] ** RB_POWER
    spectrum = np.fft.fft(w, n_fft)
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
    floor = _median(mag)
    return CarrierEstimate(
        f_d_hat_hz=f4_hz / RB_POWER,
        theta_hat_rad=theta_hat,
        # A NaN floor (NaN input) gives a NaN ratio, which the gate rejects.
        peak_to_median=float(m0) / floor if floor != 0.0 else float("inf"),
    )


def _median(values: np.ndarray) -> float:
    """np.median of an even-length array, by one partition: the mean of
    the two middle values, or NaN if any value is NaN."""
    half = values.size // 2
    # NaNs sort last, so the last entry is NaN exactly when any value is.
    part = np.partition(values, (half - 1, half, -1))
    if np.isnan(part[-1]):
        return float("nan")
    return float((part[half - 1] + part[half]) / 2.0)


def compensate(
    x: np.ndarray, estimate: CarrierEstimate, instants: range, sample_period_s: float
) -> np.ndarray:
    """Remove the estimated rotation from decision samples x[k] taken at
    sample instants n_k: x[k] * exp(-j*(2*pi*f_hat*n_k*T_s + theta_hat)),
    with the channel's phasor_ramp at -f_hat, one step per decision, which
    matches exp of the direct phase to float64 rounding.  See the module
    docstring for why this follows a tuned filter."""
    w = 2.0 * np.pi * estimate.f_d_hat_hz * sample_period_s
    return x * phasor_ramp(len(instants), -estimate.f_d_hat_hz, instants.step * sample_period_s,
                           -(w * instants.start + estimate.theta_hat_rad))


# The block the preamble repeats, as QPSK symbols: symbol 0's encoded,
# sign-adjusted chips, paired by the complex view into I + jQ.  The sign
# pattern has period 4 and the block 32 chips, so every copy is the same.
PREAMBLE_BLOCK = phy_frames.ANTIPODAL[
    phy_frames.ENCODED_TABLE[0] ^ np.resize(SIGN_PATTERN_BITS, phy_frames.CHIPS_PER_SYMBOL)
].view(np.complex128)
PREAMBLE_BLOCK.flags.writeable = False


def _detect(buf: IqBuffer, cfg: RxConfig, counter, report: DemodReport):
    """The chain's detector for _rxtypes.receive (stages: module docstring)."""
    sps = buf.sps
    # Chip-boundary sampling phase, rotation-immune (see module docstring).
    report.timing = msk_timing(buf)
    phi0 = report.timing.tau_hat

    # Carrier estimation on raw symbol-spaced boundary samples, where the
    # MSK phase grid makes z^4 a pure tone at 4*f_d.
    t_sym = 2.0 * sps * buf.sample_period_s
    sym_raw = buf.samples[phi0 :: 2 * sps]
    if sym_raw.size < MIN_CARRIER_SAMPLES:
        return None
    est = rb_carrier_estimate(sym_raw, t_sym, n_fft=cfg.n_fft)
    report.carrier = est
    counter.tally_fft(cfg.n_fft)

    # Matched-filter, then compensate the chip decisions.  At low SNR the
    # power-of-four spectrum degenerates to noise and its argmax is a random
    # bin; correcting with a bogus tone is strictly worse than correcting
    # with nothing (the data-aided correlation angle below absorbs any
    # constant phase).  Only a statistically significant peak is applied;
    # otherwise the buffer is filtered as it is, which is what compensating
    # by a zero estimate would give.
    gate_open = est.peak_to_median >= RB_CONFIDENCE_MIN
    # Chip decision r is chip r's filtered peak, one chip after its raw
    # boundary: sample phi0 + (r+1)*sps, on receive's early grid.
    f_hz = est.f_d_hat_hz if gate_open else 0.0
    x = matched_filter(buf, phase=phi0, f_hz=f_hz)
    # A nonzero frequency tunes the taps, which makes them complex.
    counter.tally_matched_filter(x.size, 2 * sps, tuned=f_hz != 0.0)
    if gate_open:
        instants = range(phi0 + sps, phi0 + sps * (x.size + 1), sps)
        x = compensate(x, est, instants, buf.sample_period_s)
        counter.tally_compensate(x.size)

    # The preamble correlator runs at symbol rate; pairing consecutive
    # boundary samples re-forms QPSK symbols, those of chip parity p being
    # pairs[p::2].  Both parities of the frame start are tried and the
    # stronger peak wins; a parity whose symbols hold no whole preamble
    # peaks at 0.  The magnitude ignores the estimate's fourfold phase
    # ambiguity; the angle at the peak is the residual rotation.
    pairs = x[:-1] + x[1:]
    n_ref = phy_frames.PREAMBLE_CHIPS.size // 2  # two chips per symbol
    candidates = []
    for parity in (0, 1):
        u = pairs[parity::2]
        corr = preamble_correlation(u, PREAMBLE_BLOCK)
        peak, lag = earliest_peak(np.abs(corr))
        candidates.append((peak, lag, float(np.angle(corr[lag])), parity))
        counter.tally_correlation_search(n_ref, u.size - n_ref + 1)
    # max keeps the first of equal peaks: parity 1 wins only on a strictly greater one.
    peak, m0, delta_hat, parity = max(candidates, key=lambda c: c[0])
    if not peak >= SYNC_THRESHOLD:
        return None
    rot = complex(np.exp(-1j * delta_hat))
    # Slice chips on their own rail axis, from the frame's first chip on;
    # the data-aided correlation angle removes the residual rotation, and
    # cross-rail spill is orthogonal to the decision axis at the correct
    # instants.  Each rail derotates only the component it decides.
    start = 2 * m0 + parity
    i_rail, q_rail = x[start::2], x[start + 1 :: 2]
    sliced = np.empty(x.size - start, dtype=np.uint8)
    sliced[0::2] = i_rail.real * rot.real - i_rail.imag * rot.imag > 0
    sliced[1::2] = q_rail.real * rot.imag + q_rail.imag * rot.real > 0
    # Undo the differential encoding and the modulator's sign pattern
    # P = 0110.  P[k] ^ P[k-1] = k mod 2, so undoing P before the decode is
    # flipping every odd chip after it: O-QPSK read as MSK, whose ramp at
    # chip k is the source chip.
    source = phy_frames.differential_decode(sliced)
    source[1::2] ^= 1
    return source, start


def demodulate(buf: IqBuffer, cfg: RxConfig | None = None, counter=None) -> DemodReport:
    """Full coherent chain; see the module docstring for the stage order."""
    return receive("qpsk", _detect, buf, cfg, counter)
