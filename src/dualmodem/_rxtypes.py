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
    """Knobs common to both demodulators."""

    payload_bits: int = 200
    d_init: int = 0
    n_fft: int = 2048
    timing_window_symbols: int = 64
    sync_threshold: float = 0.5
    min_carrier_samples: int = 64

    def __post_init__(self):
        if self.payload_bits <= 0 or self.payload_bits % 4:
            raise ValueError("payload_bits must be a positive multiple of 4")
        if self.d_init not in (0, 1):
            raise ValueError("d_init must be 0 or 1")


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
    window_used: int
    complete: bool


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


def earliest_peak(metric: np.ndarray) -> tuple[float, int]:
    """(value, lag) of the earliest near-maximal entry of a sync metric.

    Lags within SYNC_PEAK_MARGIN of a positive maximum tie and the earliest
    wins; with no positive lag the maximum wins.  A NaN lag never matches,
    so an all-NaN metric gives (-inf, 0), which no threshold accepts.
    """
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
