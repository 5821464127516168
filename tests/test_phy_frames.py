"""Tests for the bit/symbol/chip codecs and frame assembly."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmodem import phy_frames as pf


# ---------------------------------------------------------------------------
# Chip table structure and transcription
# ---------------------------------------------------------------------------


def test_chip_table_shape_and_values():
    assert pf.CHIP_TABLE.shape == (16, 32)
    assert pf.CHIP_TABLE.dtype == np.uint8
    assert np.isin(pf.CHIP_TABLE, (0, 1)).all()


def test_rows_1_to_7_are_cyclic_shifts_of_row_0():
    # Row s is row 0 rotated right by 4*s chips.
    for s in range(8):
        assert np.array_equal(pf.CHIP_TABLE[s], np.roll(pf.CHIP_TABLE[0], 4 * s)), s


def test_rows_8_to_15_invert_odd_chips_of_rows_0_to_7():
    mask = np.zeros(32, dtype=np.uint8)
    mask[1::2] = 1
    for s in range(8):
        assert np.array_equal(pf.CHIP_TABLE[s + 8], pf.CHIP_TABLE[s] ^ mask), s


def test_min_pairwise_distance_brute_force():
    # Independent brute force over all row pairs.
    dmin = min(
        int(np.count_nonzero(pf.CHIP_TABLE[a] ^ pf.CHIP_TABLE[b]))
        for a, b in itertools.combinations(range(16), 2)
    )
    assert pf.min_pairwise_distance() == dmin
    assert dmin == 12


# ---------------------------------------------------------------------------
# Bit/symbol packing
# ---------------------------------------------------------------------------


def test_bits_to_symbols_is_lsb_first():
    assert pf.bits_to_symbols([1, 0, 0, 0]) == np.array([1])
    assert pf.bits_to_symbols([0, 0, 0, 1]) == np.array([8])
    assert pf.bits_to_symbols([1, 1, 1, 1]) == np.array([15])
    got = pf.bits_to_symbols([0, 1, 0, 0, 1, 0, 1, 0])
    assert np.array_equal(got, [2, 5])


def test_symbols_to_bits_inverts_packing():
    symbols = np.arange(16)
    assert np.array_equal(pf.bits_to_symbols(pf.symbols_to_bits(symbols)), symbols)


@given(st.lists(st.integers(0, 1), min_size=4, max_size=64).filter(lambda b: len(b) % 4 == 0))
@settings(max_examples=40, deadline=None)
def test_bit_symbol_round_trip(bits):
    assert np.array_equal(pf.symbols_to_bits(pf.bits_to_symbols(bits)), bits)


def test_bits_to_symbols_rejects_bad_input():
    with pytest.raises(ValueError):
        pf.bits_to_symbols([1, 0, 1])  # not a multiple of 4
    with pytest.raises(ValueError):
        pf.bits_to_symbols([0, 2, 0, 0])
    with pytest.raises(ValueError):
        pf.symbols_to_bits([16])


# ---------------------------------------------------------------------------
# Spreading / despreading
# ---------------------------------------------------------------------------


def test_spread_symbols_concatenates():
    out = pf.spread_symbols([3, 12])
    assert out.size == 64
    assert np.array_equal(out[:32], pf.CHIP_TABLE[3])
    assert np.array_equal(out[32:], pf.CHIP_TABLE[12])
    assert pf.spread_symbols([]).size == 0


def test_despread_chips_exact_and_noisy():
    rng = np.random.default_rng(1)
    for s in range(16):
        assert pf.despread_chips(pf.CHIP_TABLE[s]) == (s, 0)
    # Up to 5 flips always decode (minimum distance 12).
    for _ in range(200):
        s = int(rng.integers(0, 16))
        chips = pf.CHIP_TABLE[s].copy()
        flips = rng.choice(32, size=int(rng.integers(1, 6)), replace=False)
        chips[flips] ^= 1
        symbol, dist = pf.despread_chips(chips)
        assert symbol == s and dist == flips.size


def test_despread_ties_break_to_lowest_symbol():
    # Flip half of the differing chips between two rows: equidistant input.
    a, b = 0, 4
    diff = np.nonzero(pf.CHIP_TABLE[a] ^ pf.CHIP_TABLE[b])[0]
    chips = pf.CHIP_TABLE[a].copy()
    chips[diff[: diff.size // 2]] ^= 1
    da = int(np.count_nonzero(chips ^ pf.CHIP_TABLE[a]))
    db = int(np.count_nonzero(chips ^ pf.CHIP_TABLE[b]))
    assert da == db
    symbol, dist = pf.despread_chips(chips)
    assert symbol == min(a, b) and dist == da


def test_despread_stream_matches_per_symbol_calls():
    rng = np.random.default_rng(2)
    symbols = rng.integers(0, 16, 20)
    chips = pf.spread_symbols(symbols)
    noisy = chips.copy()
    noisy[rng.choice(chips.size, 30, replace=False)] ^= 1
    got_syms, got_dist = pf.despread_stream(noisy)
    for i in range(20):
        s, d = pf.despread_chips(noisy[32 * i : 32 * (i + 1)])
        assert got_syms[i] == s and got_dist[i] == d


def test_despread_rejects_wrong_sizes():
    with pytest.raises(ValueError):
        pf.despread_chips(np.zeros(31, dtype=np.uint8))
    with pytest.raises(ValueError):
        pf.despread_stream(np.zeros(33, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Differential coding
# ---------------------------------------------------------------------------


def test_differential_encode_definition():
    chips = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    enc = pf.differential_encode(chips)
    assert enc.dtype == np.uint8
    prev = 0  # the encoder seed
    for k, c in enumerate(chips):
        prev = c ^ prev
        assert enc[k] == prev


@given(st.lists(st.integers(0, 1), min_size=1, max_size=100))
@settings(max_examples=40, deadline=None)
def test_differential_round_trip(chips):
    enc = pf.differential_encode(chips)
    dec = pf.differential_decode(enc)
    assert dec.dtype == np.uint8
    assert np.array_equal(dec, chips)


# ---------------------------------------------------------------------------
# Frame layout and assembly
# ---------------------------------------------------------------------------


def test_frame_layout_chip_counts():
    layout = pf.FrameLayout(payload_bits=200)
    assert layout.preamble_chips == 256
    assert layout.payload_chips == 1600
    assert layout.total_chips == 1856
    with pytest.raises(ValueError):
        pf.FrameLayout(payload_bits=6)
    with pytest.raises(ValueError):
        pf.FrameLayout(payload_bits=0)


def test_preamble_is_eight_repeats_of_row_0():
    pre = pf.PREAMBLE_CHIPS
    assert pre.size == 256
    assert np.array_equal(pre.reshape(8, 32), np.tile(pf.CHIP_TABLE[0], (8, 1)))
    # 32 all-zero bits spread to the same chips.
    assert np.array_equal(pre, pf.spread_symbols(pf.bits_to_symbols(np.zeros(32))))


def test_preamble_chips_are_read_only():
    with pytest.raises(ValueError):
        pf.PREAMBLE_CHIPS[0] ^= 1


def test_build_frame_is_encoded_source_stream():
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 2, 40).astype(np.uint8)
    frame = pf.build_frame(payload)
    assert frame.dtype == np.uint8 and frame.shape == (256 + 8 * payload.size,)
    source = pf.frame_source_chips(payload)
    assert np.array_equal(frame, pf.differential_encode(source))
    assert np.array_equal(source[:256], pf.PREAMBLE_CHIPS)
    assert np.array_equal(
        source[256:], pf.spread_symbols(pf.bits_to_symbols(payload))
    )

