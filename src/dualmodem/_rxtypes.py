"""Records, the symbol timing stage, the preamble correlation and peak pick
and the frame tail shared by the two receiver chains.  The tail also counts
the preamble matches that serve as the SNR indicator of each decoded frame."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import phy_frames
from .tx_oqpsk import IqBuffer


def check_n_fft(n_fft: int) -> None:
    """Raise ValueError unless n_fft (carrier FFT size) is a power of two >= 64."""
    if not isinstance(n_fft, numbers.Integral) or n_fft < 64 or n_fft & (n_fft - 1):
        raise ValueError("n_fft must be an integer power of two >= 64")


@dataclass
class RxConfig:
    """Settings common to both demodulators: the expected payload length
    and the carrier FFT size (qpsk only)."""

    payload_bits: int = 200
    n_fft: int = 2048

    def __post_init__(self):
        phy_frames.frame_chips(self.payload_bits)  # validates the payload length
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


def preamble_correlation(stream: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The energy-normalized preamble correlation both chains sync on: the
    correlation with `block` tiled PREAMBLE_REPEATS times, computed as the
    sum of one-block correlations spaced one block apart (an eighth of the
    multiply-adds), over sqrt(window energy * reference energy).  Each chip
    of either chain's block is +-1 on its rail, so the reference energy is
    the preamble's chip count.  Only the order of additions differs from
    the full form: on antipodal chips every partial sum and energy is
    whole, and each value is exactly the correlation over the preamble
    length.  A stream shorter than one preamble has the single lag 0, with
    value 0."""
    n_ref = phy_frames.PREAMBLE_REPEATS * block.size
    if stream.size < n_ref:
        return np.zeros(1, dtype=np.result_type(stream, block))
    corr = np.correlate(stream, block, mode="valid")
    span = block.size
    while span < n_ref:  # pairwise sums of 2, 4 and 8 blocks: three adds, not seven
        corr = corr[:-span] + corr[span:]
        span *= 2
    energy = np.concatenate(([0.0], np.cumsum(np.abs(stream) ** 2)))
    window = energy[n_ref:] - energy[:-n_ref]
    return corr / (np.sqrt(window * phy_frames.PREAMBLE_CHIPS.size) + 1e-30)


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


def finish_frame(report: DemodReport, chips, start: int, sps: int, cfg: RxConfig,
                 counter) -> DemodReport:
    """The frame tail of both chains: decode the frame from `chips`, its
    source (pre-encoding) chips from its first chip on, unless they end
    before the frame does.

    `start` is the index of the frame's first chip among the chain's
    decisions.  Both chains decide chips on a grid that starts one chip
    early, so that a timing phase one sample under the truth (tau_hat =
    truth - 1 mod sps, which advances every decision by a chip) keeps the
    whole frame on it; the frame starts at sample
    report.timing.tau_hat + (start - 1) * sps.  Counts the preamble chips
    that match the known preamble (the SNR indicator: 256 minus the Hamming
    distance) and despreads the payload chips that follow it.
    """
    n_chips = phy_frames.frame_chips(cfg.payload_bits)
    if n_chips > len(chips):
        return report
    chips = phy_frames.as_bits(chips[:n_chips], "chips")
    preamble = phy_frames.PREAMBLE_CHIPS
    n = preamble.size
    report.frame_start = report.timing.tau_hat + (start - 1) * sps
    report.preamble_match_count = n - int(np.count_nonzero(chips[:n] ^ preamble))
    symbols, _ = phy_frames.despread_stream(chips[n:])
    counter.tally_despread(symbols.size)
    report.payload_bits = phy_frames.symbols_to_bits(symbols)
    return report
