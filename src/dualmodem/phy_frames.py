"""Bit/symbol/chip codecs and frame assembly for the 802.15.4 2.4 GHz PHY.

Implements the direct-sequence spreading defined by IEEE 802.15.4 for the
O-QPSK PHY: payload bits are grouped LSB-first into 4-bit symbols, each symbol
selects one of sixteen 32-chip PN sequences, and the whole frame chip stream
is differentially encoded before modulation.
"""

from __future__ import annotations

import numbers

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

# The preamble is 32 all-zero bits: this many copies of symbol 0.  The
# framer, both receiver chains and the op-count model read it from here.
PREAMBLE_REPEATS = 8

# 16 x 32 uint8 array, CHIP_TABLE[s, k] = chip k of symbol s.
CHIP_TABLE = np.array(
    [[int(c) for c in row] for row in CHIP_TABLE_BITS], dtype=np.uint8
)

# The table rows packed 8 chips to a byte, one uint32 word per row, for
# despread_stream.
_PACKED_TABLE = np.packbits(CHIP_TABLE, axis=1).view(np.uint32).reshape(-1)


def as_bits(values, what: str = "bits") -> np.ndarray:
    """`values` as a uint8 array; raises ValueError unless every entry is
    exactly 0 or 1, so 0.7 or 2 is never cast to a valid bit."""
    arr = np.asarray(values)
    if arr.size:
        if arr.dtype == np.uint8:
            ok = arr.max() <= 1
        else:
            ok = bool(((arr == 0) | (arr == 1)).all())
        if not ok:
            raise ValueError(f"{what} must be 0/1 valued")
    return arr.astype(np.uint8, copy=False)


def _as_symbols(values) -> np.ndarray:
    """`values` as an int64 array of symbol indices; raises ValueError unless
    every entry is a whole number in [0, 15], so 3.7 is never cast to 3."""
    arr = np.asarray(values)
    if arr.size:
        if np.issubdtype(arr.dtype, np.integer):
            ok = arr.min() >= 0 and arr.max() <= 15
        else:
            ok = bool(np.isin(arr, np.arange(16)).all())
        if not ok:
            raise ValueError("symbol indices must be whole numbers in [0, 15]")
    return arr.astype(np.int64, copy=False)


# Weight of each bit within its symbol, LSB first (int64, the symbol dtype).
_BIT_WEIGHTS = 1 << np.arange(BITS_PER_SYMBOL, dtype=np.int64)


def bits_to_symbols(bits) -> np.ndarray:
    """Group bits LSB-first into 4-bit symbol indices.

    bits[0] is the least significant bit of the first symbol, so
    [1,0,0,0] -> 1 and [0,0,0,1] -> 8.
    """
    bits = as_bits(bits)
    if bits.size % BITS_PER_SYMBOL:
        raise ValueError("bit count must be divisible by 4")
    return bits.reshape(-1, BITS_PER_SYMBOL) @ _BIT_WEIGHTS


# _SYMBOL_BITS[s] = the 4 bits of symbol s, LSB first.
_SYMBOL_BITS = ((np.arange(16)[:, None] >> np.arange(BITS_PER_SYMBOL)) & 1).astype(np.uint8)
_SYMBOL_BITS.flags.writeable = False


def symbols_to_bits(symbols) -> np.ndarray:
    """Inverse of bits_to_symbols: symbol indices back to an LSB-first bit array."""
    return _SYMBOL_BITS[_as_symbols(symbols)].reshape(-1)


def despread_chips(chips) -> tuple[int, int]:
    """Map 32 hard chips to the nearest table row: despread_stream on one block.

    Returns (symbol, hamming_distance).  Ties break to the lowest symbol index.
    """
    chips = as_bits(chips, "chips")
    if chips.size != CHIPS_PER_SYMBOL:
        raise ValueError("despreading needs exactly 32 chips")
    symbols, distances = despread_stream(chips)
    return int(symbols[0]), int(distances[0])


def despread_stream(chips) -> tuple[np.ndarray, np.ndarray]:
    """Despread a chip stream (length divisible by 32) symbol by symbol."""
    chips = as_bits(chips, "chips")
    if chips.size % CHIPS_PER_SYMBOL:
        raise ValueError("chip count must be divisible by 32")
    # One 32-chip block per uint32 word, XORed with every table row.
    words = np.packbits(chips.reshape(-1, CHIPS_PER_SYMBOL), axis=1).view(np.uint32)
    # distances[i, s] = Hamming distance of block i to table row s.
    distances = np.bitwise_count(words ^ _PACKED_TABLE)
    symbols = distances.argmin(axis=1)
    n_blocks = words.shape[0]
    # Distances come back in np.uint, the dtype of a sum of 32 uint8 chip
    # comparisons, not bitwise_count's uint8, so a sum of them cannot wrap.
    return symbols, distances[np.arange(n_blocks), symbols].astype(np.uint)


def differential_decode(chips) -> np.ndarray:
    """Undo the differential encoding from seed 0: out[k] = chips[k] XOR chips[k-1]."""
    chips = as_bits(chips, "chips")
    out = chips.copy()
    out[1:] ^= chips[:-1]
    return out


# Hard chip 0/1 -> antipodal -1/+1, by lookup.
ANTIPODAL = np.array([-1.0, 1.0])
ANTIPODAL.flags.writeable = False

# The 256-chip preamble, built once and shared read-only by the framer and
# both receiver chains.
PREAMBLE_CHIPS = np.tile(CHIP_TABLE[0], PREAMBLE_REPEATS)
PREAMBLE_CHIPS.flags.writeable = False

# The longest payload: the standard's largest PSDU, 127 octets.  Its frame
# spans 8,384 chips, 1 MB of samples at sps = 8, where 4e12 bits ask terabytes.
MAX_PAYLOAD_BITS = 127 * 8


def frame_chips(payload_bits: int, name: str = "payload_bits") -> int:
    """Chips in a frame of `payload_bits` payload bits: the preamble plus 32
    chips per 4-bit symbol.  Raises ValueError, naming the caller's field
    `name`, unless payload_bits is a positive integer multiple of 4 of at
    most MAX_PAYLOAD_BITS."""
    if (not isinstance(payload_bits, numbers.Integral) or payload_bits % BITS_PER_SYMBOL
            or not 0 < payload_bits <= MAX_PAYLOAD_BITS):
        raise ValueError(f"{name} must be an integer multiple of 4 in [4, {MAX_PAYLOAD_BITS}]")
    return PREAMBLE_CHIPS.size + payload_bits // BITS_PER_SYMBOL * CHIPS_PER_SYMBOL


# ENCODED_TABLE[s] = CHIP_TABLE[s] differentially encoded from seed 0.
# Every row holds an even number of 1 chips, so every encoded row ends in 0:
# the encoder of a whole stream is back at state 0 at each row boundary, and
# encoding the stream equals concatenating the encoded rows.
ENCODED_TABLE = np.bitwise_xor.accumulate(CHIP_TABLE, axis=1)
ENCODED_TABLE.flags.writeable = False
_PREAMBLE_SYMBOLS = np.zeros(PREAMBLE_REPEATS, dtype=np.int64)


def build_frame(payload_bits) -> np.ndarray:
    """Assemble a frame: preamble chips + spread payload, differentially encoded.

    The 32-bit all-zero preamble spreads to 256 chips; every 4 payload bits
    spread to 32 chips, so the frame is 256 + 8 * n_payload_bits chips long.
    The whole stream is encoded as one run so the payload decode can key off
    the last preamble chip; since each row leaves the encoder at 0, that run
    is the encoded rows of its symbols (ENCODED_TABLE) laid end to end.
    """
    payload_bits = as_bits(payload_bits)
    frame_chips(payload_bits.size)  # validates the payload length
    symbols = np.concatenate((_PREAMBLE_SYMBOLS, bits_to_symbols(payload_bits)))
    return ENCODED_TABLE.take(symbols, axis=0).reshape(-1)


def min_pairwise_distance() -> int:
    """Minimum pairwise Hamming distance over the 16 chip rows (brute force)."""
    best = CHIPS_PER_SYMBOL
    for a in range(16):
        for b in range(a + 1, 16):
            d = int(np.count_nonzero(CHIP_TABLE[a] ^ CHIP_TABLE[b]))
            best = min(best, d)
    return best
