"""Operation-count models for both receiver chains.

Two layers live here.  The closed forms (msk_op_counts, qpsk_op_counts) price
each pipeline stage from its parameters, using the canonical radix-2
transform cost for the FFT stage regardless of how the runtime computes its
spectra.  RuntimeCounters rides along every receiver run and tallies what
the stages actually did, for cross-checking the closed forms: each
demodulator, and the frame tail they share, books the stages it ran, right
after calling them, into the caller's counter or a fresh one, and the
stages themselves never see it.

Counting conventions worth knowing:

- FFT logs are base 2.
- Frame-synchronization counts are per correlation search, one search being
  a window of N_preamble lags, so a search with reference length P books
  P**2 multiplications and (P - 1)**2 additions.  The number of lags a
  runtime search actually visited is kept separately in lags_searched.
- Chip-to-symbol despreading books, per 4-bit symbol, 16 row comparisons of
  32 XORs each, 31 additions per popcount, and 15 minimum-search
  comparisons.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import phy_frames
from ._rxtypes import RxConfig, check_n_fft
from .tx_oqpsk import DEFAULT_SPS, check_sps

STAGE_STR = "Symbol Timing Recovery"
STAGE_MF_STR = "Matched Filter and Symbol Timing Recovery"
STAGE_CARRIER = "Frequency and Phase Synchronization"
STAGE_FRAME_SYNC = "Frame Synchronization"
STAGE_CHIP_TO_SYMBOL = "Chip to Symbol Mapping"
STAGE_BIT_DETECT = "Bit Detection"
STAGE_DIFF_DETECT = "Differential Detection"


@dataclass(frozen=True)
class ComplexityParams:
    """Stage-cost parameters.

    l_pulses: pulses observed by the timing recovery loop.
    n_sample: samples per pulse (two chips worth).
    n_preamble: preamble symbols correlated per frame-sync search.
    n_bits: payload bits per frame.
    n_fft: carrier-recovery transform length.
    """

    l_pulses: int = 32
    n_sample: int = 2 * DEFAULT_SPS
    n_preamble: int = 64
    n_bits: int = RxConfig.payload_bits
    n_fft: int = RxConfig.n_fft

    def __post_init__(self):
        for name in ("l_pulses", "n_preamble"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(f"{name} must be a positive integer")
        if self.n_sample % 2:
            raise ValueError("n_sample must be even")
        check_sps(self.n_sample // 2)  # the sample rates the chains run at
        phy_frames.frame_chips(self.n_bits, "n_bits")
        check_n_fft(self.n_fft)


@dataclass(frozen=True)
class StageOps:
    """One pipeline stage's operation budget."""

    name: str
    additions: int = 0
    multiplications: int = 0
    other: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.additions < 0 or self.multiplications < 0:
            raise ValueError("operation counts must be non-negative")
        for label, count in self.other:
            if count < 0:
                raise ValueError(f"negative count for {label!r}")


@dataclass(frozen=True)
class OpCountReport:
    """Per-stage and total operation counts for one receiver chain."""

    chain: str
    stages: tuple[StageOps, ...]

    @property
    def additions_total(self) -> int:
        return sum(s.additions for s in self.stages)

    @property
    def multiplications_total(self) -> int:
        return sum(s.multiplications for s in self.stages)

    def other_totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for stage in self.stages:
            for label, count in stage.other:
                out[label] = out.get(label, 0) + count
        return out

    def as_text(self) -> str:
        """Aligned plain-text table with a totals row."""
        rows = [("Stage", "Additions", "Multiplications", "Other Operations")]
        for s in self.stages:
            other = ", ".join(f"{c} {lbl}" for lbl, c in s.other) or "-"
            rows.append((s.name, str(s.additions), str(s.multiplications), other))
        other_tot = ", ".join(f"{c} {lbl}" for lbl, c in self.other_totals().items()) or "-"
        rows.append(
            ("Total", str(self.additions_total), str(self.multiplications_total), other_tot)
        )
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = [f"{self.chain} demodulator operation counts"]
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def _frame_sync_stage(n_preamble: int) -> StageOps:
    return StageOps(
        name=STAGE_FRAME_SYNC,
        additions=(n_preamble - 1) ** 2,
        multiplications=n_preamble**2,
    )


def _chip_to_symbol_stage(n_bits: int) -> StageOps:
    n_symbols = n_bits // 4
    return StageOps(
        name=STAGE_CHIP_TO_SYMBOL,
        additions=n_symbols * 31 * 16,
        other=(("XOR", n_bits * 128), ("comparisons", n_symbols * 15)),
    )


def _bit_detect_stage(n_bits: int) -> StageOps:
    return StageOps(
        name=STAGE_BIT_DETECT,
        other=(("comparisons", n_bits),),
    )


def fft_op_counts(n_fft: int) -> tuple[int, int]:
    """(additions, multiplications) of a radix-2 length-n transform."""
    check_n_fft(n_fft)
    half = n_fft // 2
    log_half = int(np.log2(half))
    adds = 7 * half * log_half - 5 * n_fft + 8
    mults = 3 * half * log_half - 5 * n_fft + 8
    return adds, mults


def msk_op_counts(p: ComplexityParams) -> OpCountReport:
    """Closed-form budget of the non-coherent chain."""
    if p.n_preamble > phy_frames.PREAMBLE_CHIPS.size:
        raise ValueError("n_preamble exceeds the preamble length")
    str_stage = StageOps(
        name=STAGE_STR,
        additions=p.l_pulses * p.n_sample // 2 * 4,
        multiplications=p.l_pulses * p.n_sample // 2 * 8,
        other=(("comparisons", p.n_sample // 2 - 1),),
    )
    return OpCountReport(
        chain="msk",
        stages=(
            str_stage,
            _frame_sync_stage(p.n_preamble),
            _chip_to_symbol_stage(p.n_bits),
            _bit_detect_stage(p.n_bits),
        ),
    )


def qpsk_op_counts(p: ComplexityParams) -> OpCountReport:
    """Closed-form budget of the coherent chain."""
    # A QPSK symbol carries two chips.
    if p.n_preamble > phy_frames.PREAMBLE_CHIPS.size // 2:
        raise ValueError("n_preamble exceeds the preamble symbol count")
    mf_stage = StageOps(
        name=STAGE_MF_STR,
        additions=p.l_pulses * 2 * (p.n_sample - 1) ** 2,
        multiplications=p.l_pulses * 2 * p.n_sample**2,
        other=(("comparisons", p.l_pulses * 3),),
    )
    fft_adds, fft_mults = fft_op_counts(p.n_fft)
    carrier_stage = StageOps(
        name=STAGE_CARRIER,
        additions=fft_adds,
        multiplications=fft_mults,
        other=(("arctan", 1),),
    )
    return OpCountReport(
        chain="qpsk",
        stages=(
            mf_stage,
            carrier_stage,
            _frame_sync_stage(p.n_preamble),
            _chip_to_symbol_stage(p.n_bits),
            _bit_detect_stage(p.n_bits),
        ),
    )


# The stages of RuntimeCounters.to_report, in report order: (stage name,
# additions field, multiplications field, ((label, field), ...) other
# counts), None where the stage books no such count.
_RUNTIME_STAGES = (
    (STAGE_MF_STR, "mf_adds", "mf_mults", ()),
    (STAGE_CARRIER, "fft_adds", "fft_mults", ()),
    (STAGE_DIFF_DETECT, "diff_adds", "diff_mults", ()),
    (STAGE_FRAME_SYNC, "frame_sync_adds", "frame_sync_mults", (("lags", "lags_searched"),)),
    (STAGE_CHIP_TO_SYMBOL, "despread_adds", None,
     (("XOR", "despread_xors"), ("comparisons", "despread_comparisons"))),
    (STAGE_BIT_DETECT, None, None, (("comparisons", "bit_comparisons"),)),
)


@dataclass
class RuntimeCounters:
    """Arithmetic tallies of receiver runs, booked by the two demodulate
    functions and their shared tail (see the module docstring).

    Frame-sync and chip-to-symbol tallies reproduce the closed forms
    exactly (same conventions).  Matched filter and differential detection
    are booked per output the receivers actually form, one per chip
    decision, at the canonical cost of each output: a filter with real
    taps costs two real MACs per tap, one tuned to a carrier estimate
    (complex taps) a complex MAC per tap.  The carrier fields (fft_adds,
    fft_mults; "Frequency and Phase Synchronization") hold the FFT, an
    effort estimate since numpy's FFT is not the counted radix-2
    algorithm, plus compensate's work on gate-open packets: per decision
    one multiply-add for its phase and one complex multiply to rotate it.
    """

    frame_sync_adds: int = 0
    frame_sync_mults: int = 0
    lags_searched: int = 0
    despread_adds: int = 0
    despread_xors: int = 0
    despread_comparisons: int = 0
    bit_comparisons: int = 0
    mf_adds: int = 0
    mf_mults: int = 0
    fft_adds: int = 0
    fft_mults: int = 0
    diff_adds: int = 0
    diff_mults: int = 0

    def tally_correlation_search(self, ref_len: int, n_lags: int) -> None:
        """One frame-sync search; booked per search, not per lag.  With no
        lag (input shorter than the reference) there is no search to book."""
        if n_lags > 0:
            self.frame_sync_adds += (ref_len - 1) ** 2
            self.frame_sync_mults += ref_len**2
            self.lags_searched += int(n_lags)

    def tally_despread(self, n_symbols: int) -> None:
        self.despread_adds += 31 * 16 * n_symbols
        self.despread_xors += 32 * 16 * n_symbols
        self.despread_comparisons += 15 * n_symbols

    def tally_bit_decisions(self, n_bits: int) -> None:
        self.bit_comparisons += int(n_bits)

    def tally_matched_filter(self, n_out: int, n_taps: int, tuned: bool) -> None:
        # Complex data against real taps: two real mults per tap.  Taps tuned
        # to a carrier estimate are complex: 4 mults and 2 adds per tap.
        # Either way each output accumulates with 2 * (n_taps - 1) adds.
        per_tap_mults, per_tap_adds = (4, 2) if tuned else (2, 0)
        self.mf_mults += per_tap_mults * n_out * n_taps
        self.mf_adds += per_tap_adds * n_out * n_taps + 2 * n_out * (n_taps - 1)

    def tally_compensate(self, n_decisions: int) -> None:
        # Per decision: the phase n*w + theta (1 mult, 1 add), then one
        # complex multiply (4 mults, 2 adds).
        self.fft_mults += 5 * n_decisions
        self.fft_adds += 3 * n_decisions

    def tally_fft(self, n_fft: int) -> None:
        adds, mults = fft_op_counts(n_fft)
        self.fft_adds += adds
        self.fft_mults += mults

    def tally_diff_detect(self, n_samples: int) -> None:
        # One complex multiply (4 mults, 2 adds) plus the magnitude-product
        # normalization (2 mults, 1 add) per output sample.
        self.diff_mults += 6 * n_samples
        self.diff_adds += 3 * n_samples

    def to_report(self) -> OpCountReport:
        """The stages of _RUNTIME_STAGES with a nonzero count, in its order."""
        stages = []
        for name, adds, mults, other in _RUNTIME_STAGES:
            stage = StageOps(
                name,
                additions=getattr(self, adds) if adds else 0,
                multiplications=getattr(self, mults) if mults else 0,
                other=tuple((label, getattr(self, field)) for label, field in other),
            )
            if stage.additions or stage.multiplications or any(c for _, c in stage.other):
                stages.append(stage)
        return OpCountReport(chain="runtime", stages=tuple(stages))
