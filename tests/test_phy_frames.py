"""Tests for the bit/symbol/chip codecs and frame assembly."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualmodem import phy_frames as pf

from frame_reference import differential_encode, frame_source_chips, spread_symbols


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


def test_non_binary_payloads_are_rejected_not_truncated():
    # A cast to uint8 would encode 0.7 as an all-zero payload.
    with pytest.raises(ValueError, match="0/1"):
        pf.build_frame(np.full(200, 0.7))
    for bits in ([0.5, 0, 0, 0], [0, 0, -1, 0], [np.nan, 0, 0, 0], [0, 0, 0, 257]):
        with pytest.raises(ValueError, match="0/1"):
            pf.bits_to_symbols(bits)
    payload = np.random.default_rng(4).integers(0, 2, 40).astype(np.uint8)
    want = pf.build_frame(payload)
    assert np.array_equal(pf.build_frame(payload.astype(np.float64)), want)
    assert np.array_equal(pf.build_frame(payload.astype(bool)), want)


# ---------------------------------------------------------------------------
# Spreading / despreading
# ---------------------------------------------------------------------------


def test_spread_symbols_concatenates():
    out = spread_symbols([3, 12])
    assert out.size == 64
    assert np.array_equal(out[:32], pf.CHIP_TABLE[3])
    assert np.array_equal(out[32:], pf.CHIP_TABLE[12])
    assert spread_symbols([]).size == 0


@pytest.mark.parametrize("fn", [spread_symbols, pf.symbols_to_bits])
def test_symbols_must_be_whole_indices(fn):
    # A cast to int64 would read 0.5 as symbol 0 and 3.7 as symbol 3.
    for symbols in ([0.5], [3.7], [np.nan], [-1], [16], [2.0, 16.0]):
        with pytest.raises(ValueError, match="symbol indices"):
            fn(symbols)
    assert np.array_equal(fn([3.0, 12.0]), fn(np.array([3, 12], dtype=np.uint8)))


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
    chips = spread_symbols(symbols)
    noisy = chips.copy()
    noisy[rng.choice(chips.size, 30, replace=False)] ^= 1
    got_syms, got_dist = pf.despread_stream(noisy)
    for i in range(20):
        s, d = pf.despread_chips(noisy[32 * i : 32 * (i + 1)])
        assert got_syms[i] == s and got_dist[i] == d


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=32 * n, max_size=32 * n)
    )
)
@example([0] * 32)
@example([1] * 32)
@settings(max_examples=60, deadline=None)
def test_despread_chips_is_despread_stream_per_block(bits):
    chips = np.array(bits, dtype=np.uint8)
    symbols, distances = pf.despread_stream(chips)
    for i in range(symbols.size):
        got = pf.despread_chips(chips[32 * i : 32 * (i + 1)])
        assert got == (symbols[i], distances[i])
        assert all(type(value) is int for value in got)


def _despread_stream_reference(chips):
    """Broadcast-XOR form of despread_stream: 32 chip comparisons per row."""
    blocks = np.asarray(chips, dtype=np.uint8).reshape(-1, 32)
    distances = (blocks[:, None, :] ^ pf.CHIP_TABLE[None, :, :]).sum(axis=2)
    symbols = distances.argmin(axis=1)
    return symbols, distances[np.arange(blocks.shape[0]), symbols]


@pytest.mark.parametrize("n_blocks", [0, 1, 50, 257])
def test_despread_stream_matches_broadcast_xor_reference(n_blocks):
    rng = np.random.default_rng(n_blocks)
    chips = spread_symbols(rng.integers(0, 16, n_blocks))
    for flips in (0, 3, 9, 16):
        noisy = chips.copy()
        for i in range(n_blocks):
            noisy[32 * i + rng.choice(32, flips, replace=False)] ^= 1
        for stream in (noisy, rng.integers(0, 2, 32 * n_blocks).astype(np.uint8)):
            got = pf.despread_stream(stream)
            want = _despread_stream_reference(stream)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


def test_despread_rejects_wrong_sizes():
    with pytest.raises(ValueError):
        pf.despread_chips(np.zeros(31, dtype=np.uint8))
    with pytest.raises(ValueError):
        pf.despread_stream(np.zeros(33, dtype=np.uint8))


@pytest.mark.parametrize("fn", [pf.despread_chips, pf.despread_stream])
def test_despread_rejects_values_other_than_0_and_1(fn):
    # A cast to uint8 would read 0.9 as chip 0 and keep 2 as a third value.
    for chips in (np.full(32, 0.9), np.full(32, 2), np.full(32, 2, dtype=np.uint8), [np.nan] * 32):
        with pytest.raises(ValueError, match="0/1"):
            fn(chips)
    row = pf.CHIP_TABLE[5]
    assert np.array_equal(np.ravel(fn(row.astype(np.float64))), np.ravel(fn(row)))


# ---------------------------------------------------------------------------
# Differential coding
# ---------------------------------------------------------------------------


def test_differential_encode_definition():
    chips = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    enc = differential_encode(chips)
    assert enc.dtype == np.uint8
    prev = 0  # the encoder seed
    for k, c in enumerate(chips):
        prev = c ^ prev
        assert enc[k] == prev


@given(st.lists(st.integers(0, 1), min_size=1, max_size=100))
@settings(max_examples=40, deadline=None)
def test_differential_round_trip(chips):
    enc = differential_encode(chips)
    dec = pf.differential_decode(enc)
    assert dec.dtype == np.uint8
    assert np.array_equal(dec, chips)


@pytest.mark.parametrize("fn", [differential_encode, pf.differential_decode])
def test_differential_coding_rejects_non_binary_chips(fn):
    # A cast to uint8 would code [0.7, 2, 1] as the non-binary [0, 2, 3].
    for chips in ([0.7, 2, 1], [0, 2, 1], np.array([0, 2, 1], dtype=np.uint8), [np.nan, 0]):
        with pytest.raises(ValueError, match="0/1"):
            fn(chips)
    chips = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(fn(chips.astype(np.float64)), fn(chips))


# ---------------------------------------------------------------------------
# Frame layout and assembly
# ---------------------------------------------------------------------------


def test_frame_chips_counts_and_validation():
    assert pf.frame_chips(200) == 1856
    assert pf.frame_chips(200) == pf.build_frame(np.zeros(200, dtype=np.uint8)).size
    for payload_bits in (6, 0, 200.0):
        with pytest.raises(ValueError, match="payload_bits"):
            pf.frame_chips(payload_bits)


def test_preamble_is_eight_repeats_of_row_0():
    pre = pf.PREAMBLE_CHIPS
    assert pre.size == 256
    assert np.array_equal(pre.reshape(8, 32), np.tile(pf.CHIP_TABLE[0], (8, 1)))
    # 32 all-zero bits spread to the same chips.
    assert np.array_equal(pre, spread_symbols(pf.bits_to_symbols(np.zeros(32))))


def test_preamble_chips_are_read_only():
    with pytest.raises(ValueError):
        pf.PREAMBLE_CHIPS[0] ^= 1


@given(st.integers(1, 100).flatmap(lambda n: st.lists(st.integers(0, 1), min_size=4 * n, max_size=4 * n)))
@example([0] * 4)
@example([1] * 4)
@example([0] * 400)
@example([1] * 400)
@settings(max_examples=60, deadline=None)
def test_build_frame_equals_one_encoder_run(bits):
    # The encoded-row table must give what one differential-encoder run over
    # the whole source stream gives, payload boundaries included.
    payload = np.array(bits, dtype=np.uint8)
    frame = pf.build_frame(payload)
    assert frame.dtype == np.uint8
    assert np.array_equal(frame, differential_encode(frame_source_chips(payload)))


def test_encoded_table_rows_and_parity_guard():
    assert pf.ENCODED_TABLE.dtype == np.uint8 and pf.ENCODED_TABLE.shape == (16, 32)
    for s in range(16):
        assert np.array_equal(pf.ENCODED_TABLE[s], differential_encode(pf.CHIP_TABLE[s]))
    with pytest.raises(ValueError):
        pf.ENCODED_TABLE[0, 0] ^= 1
    # Every row holds an even number of 1 chips, so every encoded row ends
    # in 0 and build_frame may lay encoded rows end to end
    # (test_build_frame_equals_one_encoder_run checks the frames that gives).
    assert not pf.ENCODED_TABLE[:, -1].any()


def test_build_frame_is_encoded_source_stream():
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 2, 40).astype(np.uint8)
    frame = pf.build_frame(payload)
    assert frame.dtype == np.uint8 and frame.shape == (256 + 8 * payload.size,)
    source = frame_source_chips(payload)
    assert np.array_equal(frame, differential_encode(source))
    assert np.array_equal(source[:256], pf.PREAMBLE_CHIPS)
    assert np.array_equal(
        source[256:], spread_symbols(pf.bits_to_symbols(payload))
    )

