"""Non-coherent MSK receiver chain.

Treats the half-sine O-QPSK burst as MSK: a one-chip-lag phase-difference
detector turns each +-pi/2 phase ramp into a sign, which directly yields the
pre-encoding chip stream (the modulator's sign convention absorbs the
differential encoding, so this chain has no differential decoder).  Symbol
timing comes from the squared lag-product statistic, which is immune to
carrier frequency and phase offsets; frame alignment from a 256-chip
correlation against the known preamble.  The chain only reads the detector
at the chip instants, so it forms the lag products there and nowhere else.
"""

from __future__ import annotations

import numpy as np

from . import phy_frames
from ._rxtypes import (
    SYNC_THRESHOLD,
    DemodReport,
    MskTimingStat,
    RxConfig,
    earliest_peak,
    finish_frame,
)
from .tx_oqpsk import IqBuffer

DIFF_DETECT_EPS = 1e-12

# Lag products averaged by msk_timing: the first 64 chips of the buffer.
TIMING_WINDOW_SYMBOLS = 64


def diff_detect(buf: IqBuffer, counter=None, tau: int | None = None) -> np.ndarray:
    """y[n] = Im(z[n] * conj(z[n - sps])) / (|z[n]| * |z[n - sps]| + DIFF_DETECT_EPS).

    The imaginary part of the lag product is the sine of the phase advance
    over one chip, so y sits near +-1 at chip boundaries.  y[n] is zero for
    n < sps where no lagged sample exists.

    With `tau` in [0, sps), y is formed only at the chip instants
    tau + k*sps, one entry per instant (a lag of 1): the result is
    diff_detect(buf)[tau::sps], and detect_chips(result, 0, 1) gives the
    decisions of detect_chips(diff_detect(buf), tau, sps).
    """
    z = buf.samples
    lag = buf.sps
    if z.size <= lag:
        raise ValueError("buffer must be longer than one chip")
    if tau is not None:
        if not 0 <= tau < lag:
            raise ValueError("timing phase must lie in [0, sps)")
        z, lag = z[tau::lag], 1
    y = np.zeros(z.size, dtype=np.float64)
    prod = z[lag:] * np.conj(z[:-lag])
    norm = np.abs(z[lag:]) * np.abs(z[:-lag]) + DIFF_DETECT_EPS
    y[lag:] = prod.imag / norm
    if counter is not None:
        counter.tally_diff_detect(z.size - lag)
    return y


def msk_timing(buf: IqBuffer) -> MskTimingStat:
    """Estimate the chip-boundary sampling phase from the signal's head.

    Squares the one-chip-lag products and averages them per intra-chip phase
    over the leading TIMING_WINDOW_SYMBOLS chips; at the true boundary phase
    every squared product collapses to the same unit phasor, so |v| peaks
    there regardless of carrier offset or rotation.  Ties break to the smallest phase.  Only the
    averaged window's lag products are formed.
    """
    z = buf.samples
    sps = buf.sps
    if z.size < 2 * sps:
        raise ValueError("buffer too short for timing estimation")
    use = min(TIMING_WINDOW_SYMBOLS, (z.size - sps) // sps)
    n = use * sps
    c = (z[sps : sps + n] * np.conj(z[:n])) ** 2
    v = c.reshape(use, sps).mean(axis=0)
    tau_hat = int(np.argmax(np.abs(v)))
    return MskTimingStat(v=v, tau_hat=tau_hat)


def detect_chips(
    y: np.ndarray, timing: MskTimingStat | int, sps: int, counter=None
) -> np.ndarray:
    """Hard chip decisions: sample y, formed at a lag of `sps` samples, at the
    end of each chip interval.

    A positive phase ramp means chip 1.  Exact zeros (e.g. dead air) decide 0.
    """
    tau = timing.tau_hat if isinstance(timing, MskTimingStat) else int(timing)
    if not 0 <= tau < sps:
        raise ValueError("timing phase must lie in [0, sps)")
    decisions = y[tau + sps :: sps]
    if counter is not None:
        counter.tally_bit_decisions(decisions.size)
    return (decisions > 0).astype(np.uint8)


def frame_sync_msk(chips, counter=None) -> tuple[bool, int]:
    """Locate the preamble in a hard chip stream.

    Slides a 256-chip antipodal correlation; the peak, normalized by the
    preamble length, must reach SYNC_THRESHOLD.  Returns (found, start_chip).
    """
    chips = np.asarray(chips, dtype=np.uint8)
    reference = phy_frames.PREAMBLE_CHIPS
    if chips.size < reference.size:
        return False, 0
    x = 2.0 * chips - 1.0
    r = 2.0 * reference - 1.0
    corr = np.correlate(x, r, mode="valid") / reference.size
    if counter is not None:
        counter.tally_correlation_search(reference.size, corr.size)
    peak, best = earliest_peak(corr)
    return bool(peak >= SYNC_THRESHOLD), best


def demodulate(buf: IqBuffer, cfg: RxConfig | None = None, counter=None) -> DemodReport:
    """Full non-coherent chain: timing, phase-difference detection, frame
    sync, despreading.  No carrier estimate is produced or needed."""
    cfg = cfg or RxConfig()
    layout = phy_frames.FrameLayout(payload_bits=cfg.payload_bits)
    sps = buf.sps

    report = DemodReport(mode="msk", frame_found=False)
    if buf.samples.size < 2 * sps:
        return report
    stat = msk_timing(buf)
    report.timing = stat
    y = diff_detect(buf, counter=counter, tau=stat.tau_hat)
    # detect_chips skips the first chip instant, which has no lagged sample.
    # Deciding it anyway, as 0, keeps the whole frame on the decision grid
    # when the timing phase lands one sample early (tau_hat = truth - 1 mod
    # sps shifts the chip stream forward by one; without that chip the frame
    # would overrun the buffer tail and be dropped).
    chips = np.concatenate((np.zeros(1, dtype=np.uint8), detect_chips(y, 0, 1, counter=counter)))
    found, c0 = frame_sync_msk(chips, counter=counter)
    if not found or c0 + layout.total_chips > chips.size:
        return report
    frame = chips[c0 : c0 + layout.total_chips]
    return finish_frame(report, frame, stat.tau_hat + (c0 - 1) * sps, counter)
