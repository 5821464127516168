"""Reference forms of a frame's source (pre-encoding) chip stream.

The transmitter never forms the source chips: phy_frames.build_frame
gathers rows of the pre-encoded table.  The tests check the framer and both
receiver chains against these plain forms.
"""

import numpy as np

from dualmodem import phy_frames as pf


def spread_symbols(symbols) -> np.ndarray:
    """Concatenated chip sequences for a symbol vector."""
    return pf.CHIP_TABLE[pf._as_symbols(symbols)].reshape(-1)


def frame_source_chips(payload_bits) -> np.ndarray:
    """The frame chip stream before differential encoding: preamble chips
    followed by the spread payload."""
    payload_bits = pf.as_bits(payload_bits)
    pf.FrameLayout(payload_bits=payload_bits.size)  # validates the payload length
    return np.concatenate([pf.PREAMBLE_CHIPS, spread_symbols(pf.bits_to_symbols(payload_bits))])
