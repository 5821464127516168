"""Bit/symbol/chip codecs and frame assembly for the 802.15.4 2.4 GHz PHY.

Implements the direct-sequence spreading defined by IEEE 802.15.4 for the
O-QPSK PHY: payload bits are grouped LSB-first into 4-bit symbols, each symbol
selects one of sixteen 32-chip PN sequences, and the whole frame chip stream
is differentially encoded before modulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# IEEE 802.15.4 symbol-to-chip table for the 2450 MHz O-QPSK PHY,
# chip c0 first.  Rows 1..7 are 4-chip cyclic shifts of row 0; rows 8..15
# repeat rows 0..7 with the odd-indexed chips inverted.
CHIP_TABLE_BITS = (
    "11011001110000110101001000101110",
    "11101101100111000011010100100010",
    "00101110110110011100001101010010",
    "00100010111011011001110000110101",
    "01010010001011101101100111000011",
    "00110101001000101110110110011100",
    "11000011010100100010111011011001",
    "10011100001101010010001011101101",
    "10001100100101100000011101111011",
    "10111000110010010110000001110111",
    "01111011100011001001011000000111",
    "01110111101110001100100101100000",
    "00000111011110111000110010010110",
    "01100000011101111011100011001001",
    "10010110000001110111101110001100",
    "11001001011000000111011110111000",
)

CHIPS_PER_SYMBOL = 32
BITS_PER_SYMBOL = 4

# 16 x 32 uint8 array, CHIP_TABLE[s, k] = chip k of symbol s.
CHIP_TABLE = np.array(
    [[int(c) for c in row] for row in CHIP_TABLE_BITS], dtype=np.uint8
)


@dataclass(frozen=True)
class FrameLayout:
    """Chip-level frame geometry: preamble followed by a spread payload."""

    payload_bits: int
    preamble_chips = 8 * CHIPS_PER_SYMBOL  # 32 all-zero bits

    def __post_init__(self):
        if self.payload_bits <= 0 or self.payload_bits % BITS_PER_SYMBOL:
            raise ValueError("payload_bits must be a positive multiple of 4")

    @property
    def payload_chips(self) -> int:
        return self.payload_bits // BITS_PER_SYMBOL * CHIPS_PER_SYMBOL

    @property
    def total_chips(self) -> int:
        return self.preamble_chips + self.payload_chips


def bits_to_symbols(bits) -> np.ndarray:
    """Group bits LSB-first into 4-bit symbol indices.

    bits[0] is the least significant bit of the first symbol, so
    [1,0,0,0] -> 1 and [0,0,0,1] -> 8.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % BITS_PER_SYMBOL:
        raise ValueError("bit count must be divisible by 4")
    if bits.size and bits.max() > 1:
        raise ValueError("bits must be 0/1 valued")
    groups = bits.reshape(-1, BITS_PER_SYMBOL).astype(np.int64)
    weights = 1 << np.arange(BITS_PER_SYMBOL)
    return (groups * weights).sum(axis=1)


def symbols_to_bits(symbols) -> np.ndarray:
    """Inverse of bits_to_symbols: symbol indices back to an LSB-first bit array."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and (symbols.min() < 0 or symbols.max() > 15):
        raise ValueError("symbol indices must lie in [0, 15]")
    bits = (symbols[:, None] >> np.arange(BITS_PER_SYMBOL)) & 1
    return bits.reshape(-1).astype(np.uint8)


def spread_symbols(symbols) -> np.ndarray:
    """Concatenated chip sequences for a symbol vector."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if symbols.min() < 0 or symbols.max() > 15:
        raise ValueError("symbol indices must lie in [0, 15]")
    return CHIP_TABLE[symbols].reshape(-1)


def despread_chips(chips, counter=None) -> tuple[int, int]:
    """Map 32 hard chips to the nearest table row.

    Returns (symbol, hamming_distance).  Ties break to the lowest symbol
    index.  `counter` is an optional complexity tally (see complexity_meter).
    """
    chips = np.asarray(chips, dtype=np.uint8)
    if chips.size != CHIPS_PER_SYMBOL:
        raise ValueError("despreading needs exactly 32 chips")
    distances = np.count_nonzero(CHIP_TABLE ^ chips, axis=1)
    symbol = int(np.argmin(distances))
    if counter is not None:
        counter.tally_despread(1)
    return symbol, int(distances[symbol])


def despread_stream(chips, counter=None) -> tuple[np.ndarray, np.ndarray]:
    """Despread a chip stream (length divisible by 32) symbol by symbol."""
    chips = np.asarray(chips, dtype=np.uint8)
    if chips.size % CHIPS_PER_SYMBOL:
        raise ValueError("chip count must be divisible by 32")
    blocks = chips.reshape(-1, CHIPS_PER_SYMBOL)
    # distances[i, s] = Hamming distance of block i to table row s
    distances = (blocks[:, None, :] ^ CHIP_TABLE[None, :, :]).sum(axis=2)
    symbols = distances.argmin(axis=1)
    if counter is not None:
        counter.tally_despread(blocks.shape[0])
    return symbols, distances[np.arange(blocks.shape[0]), symbols]


def differential_encode(chips) -> np.ndarray:
    """Chip-level differential encoding: out[k] = chips[k] XOR out[k-1].

    out[-1] is the encoder seed, 0.
    """
    chips = np.asarray(chips, dtype=np.uint8)
    # XOR prefix scan: out[k] = chips[0] ^ ... ^ chips[k]
    return np.bitwise_xor.accumulate(chips)


def differential_decode(chips) -> np.ndarray:
    """Inverse of differential_encode: out[k] = chips[k] XOR chips[k-1]."""
    chips = np.asarray(chips, dtype=np.uint8)
    out = chips.copy()
    out[1:] ^= chips[:-1]
    return out


# The 256-chip preamble (32 all-zero bits: eight repeats of chip table
# row 0), built once and shared read-only by the framer and both receiver
# chains.
PREAMBLE_CHIPS = np.tile(CHIP_TABLE[0], 8)
PREAMBLE_CHIPS.flags.writeable = False


def frame_source_chips(payload_bits) -> np.ndarray:
    """The frame chip stream before differential encoding: preamble chips
    followed by the spread payload."""
    payload_bits = np.asarray(payload_bits, dtype=np.uint8)
    FrameLayout(payload_bits=payload_bits.size)  # validates the payload length
    return np.concatenate([PREAMBLE_CHIPS, spread_symbols(bits_to_symbols(payload_bits))])


def build_frame(payload_bits) -> np.ndarray:
    """Assemble a frame: preamble chips + spread payload, differentially encoded.

    The 32-bit all-zero preamble spreads to 256 chips; every 4 payload bits
    spread to 32 chips, so the frame is 256 + 8 * n_payload_bits chips long.
    The whole stream is encoded as one run so the payload decode can key off
    the last preamble chip.
    """
    return differential_encode(frame_source_chips(payload_bits))


def min_pairwise_distance() -> int:
    """Minimum pairwise Hamming distance over the 16 chip rows (brute force)."""
    best = CHIPS_PER_SYMBOL
    for a in range(16):
        for b in range(a + 1, 16):
            d = int(np.count_nonzero(CHIP_TABLE[a] ^ CHIP_TABLE[b]))
            best = min(best, d)
    return best
