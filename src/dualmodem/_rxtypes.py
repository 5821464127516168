"""Records, the preamble peak pick and the frame tail shared by the two
receiver chains."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import phy_frames
from .mode_controller import preamble_match_count


@dataclass
class RxConfig:
    """Settings common to both demodulators: the expected payload length
    and the carrier FFT size (qpsk only)."""

    payload_bits: int = 200
    n_fft: int = 2048

    def __post_init__(self):
        if self.payload_bits <= 0 or self.payload_bits % 4:
            raise ValueError("payload_bits must be a positive multiple of 4")
        if self.n_fft < 64 or self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two >= 64")


@dataclass
class CarrierEstimate:
    """Joint frequency/phase estimate from the power-of-four spectrum."""

    f_d_hat_hz: float
    theta_hat_rad: float
    n_fft: int
    peak_magnitude: float
    # Ratio of the spectral peak to the median bin magnitude.  Near 1 the
    # spectrum is flat (no tone found); large values mean a credible tone.
    peak_to_median: float = float("nan")


@dataclass
class TimingEstimate:
    """Early-late gate output: best sampling phase within one pulse period."""

    sample_phase: int
    converged: bool
    iterations_used: int


@dataclass
class MskTimingStat:
    """Squared lag-product timing statistic (one complex value per phase)."""

    v: np.ndarray
    tau_hat: int


@dataclass
class DemodReport:
    """What a receiver chain recovered from one buffer."""

    mode: str
    frame_found: bool
    frame_start: int | None = None
    payload_bits: np.ndarray | None = None
    preamble_match_count: int = 0
    carrier: CarrierEstimate | None = None
    timing: Any = None

    def __post_init__(self):
        if self.payload_bits is not None and not self.frame_found:
            raise ValueError("payload present implies frame_found")


# A payload that begins with all-zero symbols extends the preamble pattern,
# producing several full-strength correlation peaks 32 chips apart; peaks
# within this fraction of the maximum are treated as ties and the earliest
# wins, so the sync never locks onto a late copy.
SYNC_PEAK_MARGIN = 0.05

# A preamble correlation peak, normalized to 1 for a perfect match, must
# reach this value for either chain to declare a frame.
SYNC_THRESHOLD = 0.5


# The 802.15.4 preamble is eight repeats of the symbol-0 block, in chips
# (msk) and in encoded QPSK symbols (qpsk) alike.  comb_correlate needs a
# power of two.
PREAMBLE_REPEATS = 8


def preamble_block(preamble: np.ndarray) -> np.ndarray:
    """The block `preamble` repeats PREAMBLE_REPEATS times, read-only.

    Raises ValueError when the preamble is not such a repeat, since
    comb_correlate would then not equal the full correlation.
    """
    size, rest = divmod(preamble.size, PREAMBLE_REPEATS)
    block = preamble[:size].copy()
    if rest or not np.array_equal(np.tile(block, PREAMBLE_REPEATS), preamble):
        raise ValueError(f"preamble is not {PREAMBLE_REPEATS} repeats of one block")
    block.flags.writeable = False
    return block


def comb_correlate(x: np.ndarray, block: np.ndarray) -> np.ndarray:
    """np.correlate(x, np.tile(block, PREAMBLE_REPEATS), "valid"), computed
    as the sum of PREAMBLE_REPEATS one-block correlations spaced one block
    apart: an eighth of the multiply-adds.  x must hold at least one whole
    preamble.

    Only the order of the additions differs from the full correlation, so
    the result is bit-exact whenever every partial sum is an exact integer
    (antipodal chips) and within float64 rounding otherwise.
    """
    out = np.correlate(x, block, mode="valid")
    # Pairwise: sums of 2, then 4, then 8 blocks (PREAMBLE_REPEATS is a
    # power of two), in three vector adds rather than seven.
    span = block.size
    while span < PREAMBLE_REPEATS * block.size:
        out = out[:-span] + out[span:]
        span *= 2
    return out


def earliest_peak(metric: np.ndarray) -> tuple[float, int]:
    """(value, lag) of the earliest near-maximal entry of a sync metric.

    Lags within SYNC_PEAK_MARGIN of a positive maximum tie and the earliest
    wins; with no positive lag the maximum wins.  A NaN lag never matches,
    so an all-NaN metric gives (-inf, 0), which no threshold accepts.
    """
    peak = float(np.max(metric))
    if np.isnan(peak):
        metric = np.where(np.isnan(metric), -np.inf, metric)
        peak = float(np.max(metric))
    if peak > 0.0:
        lag = int(np.argmax(metric >= (1.0 - SYNC_PEAK_MARGIN) * peak))
    else:
        lag = int(np.argmax(metric))
    return float(metric[lag]), lag


def finish_frame(report: DemodReport, source_chips, frame_start: int, counter=None) -> DemodReport:
    """Fill in a found frame from its source (pre-encoding) chip stream.

    Counts the preamble chips that match the known preamble, despreads the
    payload chips that follow it, and records where the frame starts.
    """
    n = phy_frames.PREAMBLE_CHIPS.size
    report.frame_found = True
    report.frame_start = frame_start
    report.preamble_match_count = preamble_match_count(source_chips[:n], phy_frames.PREAMBLE_CHIPS)
    symbols, _ = phy_frames.despread_stream(source_chips[n:], counter)
    report.payload_bits = phy_frames.symbols_to_bits(symbols)
    return report
