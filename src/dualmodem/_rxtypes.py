"""Records, the symbol timing stage, the preamble peak pick and the frame
tail shared by the two receiver chains.  The tail also counts the preamble
matches that serve as the SNR indicator of each decoded frame."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import phy_frames
from .tx_oqpsk import IqBuffer


def check_n_fft(n_fft: int) -> None:
    """Raise ValueError unless n_fft (carrier FFT size) is a power of two >= 64."""
    if n_fft < 64 or n_fft & (n_fft - 1):
        raise ValueError("n_fft must be a power of two >= 64")


@dataclass
class RxConfig:
    """Settings common to both demodulators: the expected payload length
    and the carrier FFT size (qpsk only)."""

    payload_bits: int = 200
    n_fft: int = 2048

    def __post_init__(self):
        phy_frames.FrameLayout(payload_bits=self.payload_bits)  # validates the payload length
        check_n_fft(self.n_fft)


def erase_non_finite(buf: IqBuffer) -> IqBuffer:
    """buf itself when every sample is finite; otherwise a copy with each NaN
    or infinite sample erased to 0.

    Both chains start here.  Left in place, one such sample wins
    msk_timing's argmax or turns every later preamble-energy window NaN,
    and an infinite one raises invalid-value warnings downstream.
    """
    if np.isfinite(buf.samples.view(np.float64)).all():
        return buf
    samples = buf.samples.copy()
    samples[~np.isfinite(samples)] = 0.0
    return IqBuffer(samples=samples, sps=buf.sps, chip_rate_hz=buf.chip_rate_hz)


@dataclass
class MskTimingStat:
    """Squared lag-product timing statistic (one complex value per phase)."""

    v: np.ndarray
    tau_hat: int


# Lag products averaged by msk_timing: the first 64 chips of the buffer.
TIMING_WINDOW_SYMBOLS = 64


def msk_timing(buf: IqBuffer) -> MskTimingStat:
    """Estimate the chip-boundary sampling phase from the signal's head.

    Squares the one-chip-lag products and averages them per intra-chip phase
    over the leading TIMING_WINDOW_SYMBOLS chips; at the true boundary phase
    every squared product collapses to the same unit phasor, so |v| peaks
    there regardless of carrier offset or rotation.  Ties break to the
    smallest phase.  Only the averaged window's lag products are formed.
    """
    z = buf.samples
    sps = buf.sps
    if z.size < 2 * sps:
        raise ValueError("buffer too short for timing estimation")
    use = min(TIMING_WINDOW_SYMBOLS, (z.size - sps) // sps)
    n = use * sps
    c = (z[sps : sps + n] * np.conj(z[:n])) ** 2
    v = np.add.reduce(c.reshape(use, sps), axis=0)
    v /= use
    tau_hat = int(np.argmax(np.abs(v)))
    return MskTimingStat(v=v, tau_hat=tau_hat)


@dataclass
class DemodReport:
    """What a receiver chain recovered from one buffer."""

    mode: str
    frame_start: int | None = None
    payload_bits: np.ndarray | None = None
    preamble_match_count: int = 0
    carrier: Any = None  # rx_qpsk.CarrierEstimate; qpsk only
    timing: MskTimingStat | None = None

    @property
    def frame_found(self) -> bool:
        return self.payload_bits is not None


# A payload that begins with all-zero symbols extends the preamble pattern,
# producing several full-strength correlation peaks 32 chips apart; peaks
# within this fraction of the maximum are treated as ties and the earliest
# wins, so the sync never locks onto a late copy.
SYNC_PEAK_MARGIN = 0.05

# A preamble correlation peak, normalized to 1 for a perfect match, must
# reach this value for either chain to declare a frame.
SYNC_THRESHOLD = 0.5


def comb_correlate(x: np.ndarray, block: np.ndarray) -> np.ndarray:
    """np.correlate(x, np.tile(block, R), "valid") for the preamble's
    R = phy_frames.PREAMBLE_REPEATS, computed as the sum of R one-block
    correlations spaced one block apart: an eighth of the multiply-adds.
    x must hold at least one whole preamble.

    Only the order of the additions differs from the full correlation, so
    the result is bit-exact whenever every partial sum is an exact integer
    (antipodal chips) and within float64 rounding otherwise.
    """
    out = np.correlate(x, block, mode="valid")
    # Pairwise: sums of 2, then 4, then 8 blocks (R is a power of two), in
    # three vector adds rather than seven.
    span = block.size
    while span < phy_frames.PREAMBLE_REPEATS * block.size:
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

    Counts the preamble chips that match the known preamble (the SNR
    indicator: 256 minus the Hamming distance), despreads the payload chips
    that follow it, and records where the frame starts.
    """
    chips = phy_frames.as_bits(source_chips, "chips")
    preamble = phy_frames.PREAMBLE_CHIPS
    n = preamble.size
    report.frame_start = frame_start
    report.preamble_match_count = n - int(np.count_nonzero(chips[:n] ^ preamble))
    symbols, _ = phy_frames.despread_stream(chips[n:])
    if counter is not None:
        counter.tally_despread(symbols.size)
    report.payload_bits = phy_frames.symbols_to_bits(symbols)
    return report
