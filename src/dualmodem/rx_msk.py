"""Non-coherent MSK receiver chain.

Treats the half-sine O-QPSK burst as MSK: a one-chip-lag phase-difference
detector turns each +-pi/2 phase ramp into a sign, which directly yields the
pre-encoding chip stream (the modulator's sign convention absorbs the
differential encoding, so this chain has no differential decoder).  Symbol
timing comes from the squared lag-product statistic the coherent chain
shares (_rxtypes.msk_timing), which is immune to carrier frequency and
phase offsets; frame alignment from the shared preamble correlation
(_rxtypes.preamble_correlation) over the hard chips as +-1.  The chain only
reads the detector at the chip instants, so it forms the lag products there.
"""

from __future__ import annotations

import numpy as np

from . import phy_frames
from ._rxtypes import (
    SYNC_THRESHOLD,
    DemodReport,
    RxConfig,
    earliest_peak,
    erase_non_finite,
    finish_frame,
    msk_timing,
    preamble_correlation,
)
from .complexity_meter import RuntimeCounters
from .tx_oqpsk import IqBuffer

DIFF_DETECT_EPS = 1e-12

# The antipodal chips of symbol 0, the block the preamble repeats.
PREAMBLE_BLOCK = phy_frames.ANTIPODAL[phy_frames.CHIP_TABLE[0]]
PREAMBLE_BLOCK.flags.writeable = False


def diff_detect(buf: IqBuffer, tau: int) -> np.ndarray:
    """The phase-difference detector at the chip instants n = tau + k*sps:
    y[k] = Im(z[n] * conj(z[n - sps])) / (|z[n]| * |z[n - sps]| + DIFF_DETECT_EPS).

    The imaginary part of the lag product is the sine of the phase advance
    over one chip, so y sits near +-1 at chip boundaries.  y[0] is zero: the
    first instant has no lagged sample.  `tau` must lie in [0, sps).
    """
    z = buf.samples
    sps = buf.sps
    if z.size <= sps:
        raise ValueError("buffer must be longer than one chip")
    if not 0 <= tau < sps:
        raise ValueError("timing phase must lie in [0, sps)")
    z = z[tau::sps]
    y = np.zeros(z.size, dtype=np.float64)
    prod = z[1:] * np.conj(z[:-1])
    mag = np.abs(z)
    norm = mag[1:] * mag[:-1] + DIFF_DETECT_EPS
    y[1:] = prod.imag / norm
    return y


def detect_chips(y: np.ndarray) -> np.ndarray:
    """Hard chip decisions on diff_detect's output: a positive phase ramp
    means chip 1, and exact zeros (e.g. dead air) decide 0.

    y[0] has no lagged sample, so the first chip always decides 0.  It is
    kept as the grid's early chip (_rxtypes.finish_frame), and demodulate
    books only the other y.size - 1 chips as decisions.
    """
    return (y > 0).astype(np.uint8)


def frame_sync_msk(chips) -> tuple[bool, int]:
    """Locate the preamble in a hard chip stream.

    Slides the shared energy-normalized preamble correlation
    (_rxtypes.preamble_correlation) over the antipodal chips; its signed
    peak must reach SYNC_THRESHOLD.  Returns (found, start_chip).
    """
    chips = phy_frames.as_bits(chips, "chips")
    corr = preamble_correlation(phy_frames.ANTIPODAL[chips], PREAMBLE_BLOCK)
    peak, best = earliest_peak(corr)
    return bool(peak >= SYNC_THRESHOLD), best


def demodulate(buf: IqBuffer, cfg: RxConfig | None = None, counter=None) -> DemodReport:
    """Full non-coherent chain: timing, phase-difference detection, frame
    sync, despreading.  No carrier estimate is produced or needed."""
    cfg = cfg or RxConfig()
    counter = counter or RuntimeCounters()
    buf = erase_non_finite(buf)
    sps = buf.sps

    report = DemodReport(mode="msk")
    if buf.samples.size < 2 * sps:
        return report
    report.timing = msk_timing(buf)
    chips = detect_chips(diff_detect(buf, report.timing.tau_hat))
    found, c0 = frame_sync_msk(chips)
    # Lag products and decisions at every chip instant but the first.
    counter.tally_diff_detect(chips.size - 1)
    counter.tally_bit_decisions(chips.size - 1)
    n_ref = phy_frames.PREAMBLE_CHIPS.size
    counter.tally_correlation_search(n_ref, chips.size - n_ref + 1)
    if not found:
        return report
    return finish_frame(report, chips[c0:], c0, sps, cfg, counter)
