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
K_UP = 3
K_DOWN = 1

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
class ModeState:
    """Current mode plus the hysteresis bookkeeping."""

    mode: str = MODE_QPSK
    good_run: int = 0
    poor_run: int = 0
    switch_count: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_QPSK, MODE_MSK):
            raise ValueError("mode must be 'qpsk' or 'msk'")


def step_mode(state: ModeState, good: bool) -> ModeState:
    """Advance the controller by one packet verdict: good when the packet's
    preamble match count reached the threshold.

    K_UP consecutive good verdicts switch to MSK; K_DOWN consecutive poor
    verdicts switch back to QPSK.
    """
    good_run = state.good_run + 1 if good else 0
    poor_run = 0 if good else state.poor_run + 1
    mode = state.mode
    if state.mode == MODE_QPSK and good_run >= K_UP:
        mode = MODE_MSK
        good_run = 0
    elif state.mode == MODE_MSK and poor_run >= K_DOWN:
        mode = MODE_QPSK
        poor_run = 0
    return ModeState(
        mode=mode,
        good_run=good_run,
        poor_run=poor_run,
        switch_count=state.switch_count + (mode != state.mode),
    )
