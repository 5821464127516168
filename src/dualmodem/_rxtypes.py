"""Records, the symbol timing stage, the preamble correlation and peak pick,
and the receiver pipeline both chains run (receive).  The pipeline owns the
frame around a chain's detector and counts the preamble matches that serve
as the SNR indicator of each decoded frame."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import phy_frames
from .complexity_meter import ComplexityParams, RuntimeCounters, check_n_fft
from .tx_oqpsk import IqBuffer


@dataclass
class RxConfig:
    """Settings common to both demodulators: the expected payload length
    and the carrier FFT size (qpsk only)."""

    payload_bits: int = ComplexityParams.n_bits
    n_fft: int = ComplexityParams.n_fft

    def __post_init__(self):
        phy_frames.frame_chips(self.payload_bits)  # validates the payload length
        check_n_fft(self.n_fft)


def erase_non_finite(buf: IqBuffer) -> IqBuffer:
    """buf itself when every sample is finite; otherwise a copy with each NaN
    or infinite sample erased to 0.

    receive starts here, for both chains.  Left in place, one such sample wins
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
    """What a receiver chain recovered from one buffer.  frame_start is -1
    when tau_hat lands one sample early (within its tolerance) on a burst at
    sample 0: the frame then starts one sample before the buffer."""

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


def receive(mode: str, detect, buf: IqBuffer, cfg: RxConfig | None = None,
            counter: RuntimeCounters | None = None) -> DemodReport:
    """Both chains' demodulate: the frame around a chain's detector.

    Erases non-finite samples; a buffer under two chips has no frame.
    detect(buf, cfg, counter, report) sets report.timing, books its stages,
    and returns None when nothing syncs, or the frame's source (pre-encoding)
    chips from its first chip on and that chip's index, start, among its
    decisions.  The decisions start one chip early, so that a timing phase
    one sample under the truth keeps the whole frame, which starts at sample
    report.timing.tau_hat + (start - 1) * sps.  Unless the chips end first,
    the tail counts the preamble chips that match (the SNR indicator: 256
    minus the Hamming distance) and despreads the payload.
    """
    cfg = cfg or RxConfig()
    counter = counter or RuntimeCounters()
    buf = erase_non_finite(buf)
    report = DemodReport(mode=mode)
    if buf.samples.size < 2 * buf.sps:
        return report
    synced = detect(buf, cfg, counter, report)
    n_chips = phy_frames.frame_chips(cfg.payload_bits)
    if synced is None or n_chips > len(synced[0]):
        return report
    chips, start = synced
    chips = phy_frames.as_bits(chips[:n_chips], "chips")
    n = phy_frames.PREAMBLE_CHIPS.size
    report.frame_start = report.timing.tau_hat + (start - 1) * buf.sps
    report.preamble_match_count = n - int(np.count_nonzero(chips[:n] ^ phy_frames.PREAMBLE_CHIPS))
    symbols, _ = phy_frames.despread_stream(chips[n:])
    counter.tally_despread(symbols.size)
    report.payload_bits = phy_frames.symbols_to_bits(symbols)
    return report
