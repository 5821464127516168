"""SNR-driven switching between the coherent and non-coherent chains.

The preamble match count of each decoded frame (256 minus the Hamming
distance to the known preamble), which the receivers' shared frame tail
computes (_rxtypes.finish_frame), acts as the link-quality indicator.  A run of
good verdicts promotes the receiver to the cheap MSK chain; a single poor
verdict (or a missed frame) demotes it back to the robust QPSK chain.  Mode
changes happen only between packets.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_MATCH_THRESHOLD = 240
K_UP = 3

MODE_QPSK = "qpsk"
MODE_MSK = "msk"


@dataclass(frozen=True)
class ModeState:
    """Current mode plus the hysteresis bookkeeping."""

    mode: str = MODE_QPSK
    good_run: int = 0
    switch_count: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_QPSK, MODE_MSK):
            raise ValueError("mode must be 'qpsk' or 'msk'")


def step_mode(state: ModeState, good: bool) -> ModeState:
    """Advance the controller by one packet verdict: good when the packet's
    preamble match count reached the threshold.

    K_UP consecutive good verdicts switch to MSK; one poor verdict switches
    back to QPSK.
    """
    good_run = state.good_run + 1 if good else 0
    mode = state.mode
    if state.mode == MODE_QPSK and good_run >= K_UP:
        mode = MODE_MSK
        good_run = 0
    elif state.mode == MODE_MSK and not good:
        mode = MODE_QPSK
    return ModeState(
        mode=mode,
        good_run=good_run,
        switch_count=state.switch_count + (mode != state.mode),
    )
