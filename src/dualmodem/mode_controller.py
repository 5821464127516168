"""SNR-driven switching between the coherent and non-coherent chains.

The preamble match count of each decoded frame (256 minus the Hamming
distance to the known preamble) acts as the link-quality indicator.  A run of
good verdicts promotes the receiver to the cheap MSK chain; a single poor
verdict (or a missed frame) demotes it back to the robust QPSK chain.  Mode
changes happen only between packets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MATCH_THRESHOLD = 240
DEFAULT_K_UP = 3
DEFAULT_K_DOWN = 1

MODE_QPSK = "qpsk"
MODE_MSK = "msk"


def preamble_match_count(received_chips, reference) -> int:
    """Number of agreeing chips between a received and a reference preamble."""
    received_chips = np.asarray(received_chips, dtype=np.uint8)
    reference = np.asarray(reference, dtype=np.uint8)
    if received_chips.shape != reference.shape:
        raise ValueError("preamble lengths differ")
    return int(reference.size - np.count_nonzero(received_chips ^ reference))


@dataclass(frozen=True)
class SnrVerdict:
    """Per-packet link-quality verdict."""

    match_count: int
    good: bool
    threshold: int = DEFAULT_MATCH_THRESHOLD


def verdict_from_match(match_count: int, threshold: int = DEFAULT_MATCH_THRESHOLD) -> SnrVerdict:
    return SnrVerdict(match_count=match_count, good=match_count >= threshold, threshold=threshold)


@dataclass(frozen=True)
class ModeState:
    """Current mode plus the hysteresis bookkeeping."""

    mode: str = MODE_QPSK
    good_run: int = 0
    poor_run: int = 0
    switch_count: int = 0
    history: tuple = ()

    def __post_init__(self):
        if self.mode not in (MODE_QPSK, MODE_MSK):
            raise ValueError("mode must be 'qpsk' or 'msk'")


def step_mode(
    state: ModeState,
    verdict: SnrVerdict,
    k_up: int = DEFAULT_K_UP,
    k_down: int = DEFAULT_K_DOWN,
    override: str | None = None,
    history_len: int = 8,
) -> ModeState:
    """Advance the controller by one packet verdict.

    k_up consecutive good verdicts switch to MSK; k_down consecutive poor
    verdicts switch back to QPSK.  An override pins the mode while still
    tracking verdict runs.
    """
    good_run = state.good_run + 1 if verdict.good else 0
    poor_run = 0 if verdict.good else state.poor_run + 1
    mode = state.mode
    if override is not None:
        if override not in (MODE_QPSK, MODE_MSK):
            raise ValueError("override must be 'qpsk' or 'msk'")
        mode = override
    elif state.mode == MODE_QPSK and good_run >= k_up:
        mode = MODE_MSK
        good_run = 0
    elif state.mode == MODE_MSK and poor_run >= k_down:
        mode = MODE_QPSK
        poor_run = 0
    history = (state.history + (verdict.good,))[-history_len:]
    return ModeState(
        mode=mode,
        good_run=good_run,
        poor_run=poor_run,
        switch_count=state.switch_count + (mode != state.mode),
        history=history,
    )

