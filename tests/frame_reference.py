"""Reference forms of a frame's source (pre-encoding) chip stream, its
differential encoding, the coherent chain's preamble and the mode
controller's hysteresis.

The transmitter never forms the source chips or runs the encoder:
phy_frames.build_frame gathers rows of the pre-encoded table, and each
receiver chain builds one block of the preamble.  The tests check the
framer and both receiver chains against these plain forms.
"""

import numpy as np

from dualmodem import phy_frames as pf
from dualmodem.mode_controller import K_UP, MODE_MSK, MODE_QPSK
from dualmodem.tx_oqpsk import chip_amplitudes

# Consecutive poor verdicts that demote msk to qpsk in the reference
# controller.
K_DOWN = 1


def spread_symbols(symbols) -> np.ndarray:
    """Concatenated chip sequences for a symbol vector."""
    return pf.CHIP_TABLE[pf._as_symbols(symbols)].reshape(-1)


def frame_source_chips(payload_bits) -> np.ndarray:
    """The frame chip stream before differential encoding: preamble chips
    followed by the spread payload."""
    payload_bits = pf.as_bits(payload_bits)
    pf.FrameLayout(payload_bits=payload_bits.size)  # validates the payload length
    return np.concatenate([pf.PREAMBLE_CHIPS, spread_symbols(pf.bits_to_symbols(payload_bits))])


def differential_encode(chips) -> np.ndarray:
    """Chip-level differential encoding: out[k] = chips[k] XOR out[k-1].

    out[-1] is the encoder seed, 0.
    """
    chips = pf.as_bits(chips, "chips")
    # XOR prefix scan: out[k] = chips[0] ^ ... ^ chips[k]
    return np.bitwise_xor.accumulate(chips)


def preamble_reference_symbols() -> np.ndarray:
    """The 128 complex QPSK symbols of the encoded, sign-adjusted preamble."""
    amps = chip_amplitudes(differential_encode(pf.PREAMBLE_CHIPS))
    return amps[0::2] + 1j * amps[1::2]


def step_mode_with_poor_run(state, good):
    """The controller with a demotion count of its own: K_UP consecutive
    good verdicts promote qpsk to msk and K_DOWN consecutive poor ones
    demote msk to qpsk.  state is (mode, good_run, poor_run, switch_count)."""
    mode, good_run, poor_run, switch_count = state
    good_run = good_run + 1 if good else 0
    poor_run = 0 if good else poor_run + 1
    new_mode = mode
    if mode == MODE_QPSK and good_run >= K_UP:
        new_mode = MODE_MSK
        good_run = 0
    elif mode == MODE_MSK and poor_run >= K_DOWN:
        new_mode = MODE_QPSK
        poor_run = 0
    return new_mode, good_run, poor_run, switch_count + (new_mode != mode)
