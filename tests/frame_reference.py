"""Reference forms of a frame's source (pre-encoding) chip stream, its
differential encoding and the coherent chain's preamble.

The transmitter never forms the source chips or runs the encoder:
phy_frames.build_frame gathers rows of the pre-encoded table, and each
receiver chain builds one block of the preamble.  The tests check the
framer and both receiver chains against these plain forms.
"""

import numpy as np

from dualmodem import phy_frames as pf
from dualmodem.tx_oqpsk import chip_amplitudes


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
