"""Tests for the half-sine O-QPSK modulator."""

import numpy as np
import pytest

from dualmodem import phy_frames as pf
from dualmodem.tx_oqpsk import (
    SIGN_PATTERN_BITS,
    IqBuffer,
    half_sine_taps,
    modulate,
    period_table,
)

from frame_reference import SIGN_FACTORS, chip_amplitudes, frame_source_chips


def test_half_sine_taps_small_case():
    taps = half_sine_taps(4)
    want = np.array([0.0, np.sqrt(0.5), 1.0, np.sqrt(0.5)])
    assert np.allclose(taps, want, atol=1e-12)


def test_half_sine_taps_shape_and_peak():
    taps = half_sine_taps(16)
    assert taps.size == 16
    assert taps[0] == 0.0
    assert taps[8] == pytest.approx(1.0)
    assert np.allclose(taps[1:], taps[1:][::-1])  # symmetric about the peak
    with pytest.raises(ValueError):
        half_sine_taps(7)
    with pytest.raises(ValueError):
        half_sine_taps(2)


def test_sign_pattern_period_and_offset():
    # The XOR-bit form flags exactly the negative signs of the float form.
    assert SIGN_PATTERN_BITS.dtype == np.uint8
    assert np.array_equal(SIGN_PATTERN_BITS, (SIGN_FACTORS < 0).astype(np.uint8))


def test_chip_amplitudes_applies_signs():
    # The bit form the receivers use, ANTIPODAL[chip ^ sign bit], gives the
    # float form's amplitudes bit for bit, at every chip index mod 4.
    for n in (1, 4, 5, 32, 1857):
        chips = np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)
        got = pf.ANTIPODAL[chips ^ np.resize(SIGN_PATTERN_BITS, n)]
        assert got.tobytes() == chip_amplitudes(chips).tobytes(), n


def test_modulate_output_length():
    assert len(modulate(np.array([1, 0], dtype=np.uint8), sps=8)) == 24
    rng = np.random.default_rng(0)
    chips = rng.integers(0, 2, 33).astype(np.uint8)
    assert len(modulate(chips, sps=8)) == 34 * 8
    assert len(modulate(chips, sps=4)) == 34 * 4


def test_modulate_validation():
    with pytest.raises(ValueError):
        modulate(np.zeros(0, dtype=np.uint8))
    with pytest.raises(ValueError):
        modulate(np.array([0, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        modulate(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        modulate(np.array([0, 1], dtype=np.uint8), sps=5)


def test_modulate_rejects_values_other_than_0_and_1():
    # A cast to uint8 would turn 0.5 and 0.9 into valid chips.
    for chips in ([0.5, 1, 0.9], [0, -1], [1.0, np.nan], [0, 256]):
        with pytest.raises(ValueError, match="0/1"):
            modulate(chips)
    want = modulate(np.array([1, 0, 0, 1], dtype=np.uint8)).samples
    for same in ([1.0, 0.0, 0.0, 1.0], [True, False, False, True]):
        assert np.array_equal(modulate(same).samples, want)


def _reference_modulate(chips, sps, head_bit, tail_bit):
    """The modulator as one expression per rail, with complex temporaries,
    for any edge chips; modulate's are both 0."""
    n_chips = chips.size
    pulse = half_sine_taps(2 * sps)
    amps = chip_amplitudes(chips)
    # The edge chips sit at chip indices -1 and n_chips.
    head_amp = (2.0 * head_bit - 1.0) * SIGN_FACTORS[-1 % 4]
    tail_amp = (2.0 * tail_bit - 1.0) * SIGN_FACTORS[n_chips % 4]
    out = np.zeros((n_chips + 1) * sps, dtype=np.complex128)
    i_blocks = (amps[0::2][:, None] * pulse).reshape(-1)
    out[: i_blocks.size] += i_blocks
    q_blocks = (amps[1::2][:, None] * pulse).reshape(-1)
    out[sps : sps + q_blocks.size] += 1j * q_blocks
    out[:sps] += 1j * (head_amp * pulse[sps:])
    tail_half = tail_amp * pulse[:sps]
    out[n_chips * sps :] += tail_half if n_chips % 2 == 0 else 1j * tail_half
    return out


# 1856 chips make a 200-bit frame's 14,856 samples; 2056 chips make 16,456,
# past the 16,384 samples from which numpy computes into temporaries in place.
# The short counts cover every chip count mod 4 and both edge-chip rails.
@pytest.mark.parametrize(
    "n_chips,sps",
    [
        pytest.param(n, sps, id=str(n) if sps == 8 else f"{n}-sps{sps}")
        for sps in (8, 2, 4, 16)
        for n in (1856, 2055, 2056, 1, 2, 3, 5, 31, 32, 33)
    ],
)
@pytest.mark.parametrize("edge_bits", [(0, 0)])
def test_modulate_matches_reference_bit_for_bit(n_chips, sps, edge_bits):
    chips = np.random.default_rng(n_chips).integers(0, 2, n_chips).astype(np.uint8)
    got = modulate(chips, sps=sps).samples
    want = _reference_modulate(chips, sps, *edge_bits)
    assert got.tobytes() == want.tobytes()


def test_period_table_is_read_only():
    table = period_table(8)
    assert table.shape == (8, 8) and table.dtype == np.complex128
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    with pytest.raises(ValueError):
        period_table(3)


def test_constant_envelope():
    rng = np.random.default_rng(2)
    frame = pf.build_frame(rng.integers(0, 2, 64).astype(np.uint8))
    buf = modulate(frame)
    env = np.abs(buf.samples)
    assert np.max(np.abs(env - 1.0)) < 1e-9


def test_phase_ramps_carry_source_chips():
    # The per-chip phase advance is +pi/2 for source chip 1, -pi/2 for 0,
    # with no differential decoding needed: the sign convention folds the
    # encoder into the waveform.
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 2, 32).astype(np.uint8)
    frame = pf.build_frame(payload)
    source = frame_source_chips(payload)
    buf = modulate(frame)
    z = buf.samples
    sps = buf.sps
    for k in range(len(frame)):
        dphi = np.angle(z[(k + 1) * sps] * np.conj(z[k * sps]))
        want = np.pi / 2 if source[k] else -np.pi / 2
        assert dphi == pytest.approx(want, abs=1e-9), k


def test_boundary_samples_alternate_rails():
    # At chip boundaries the waveform hits a pure rail value: the amplitude
    # of the chip that peaks there, on I for even chips and Q for odd ones.
    chips = np.array([1, 0, 0, 1, 1, 1, 0, 0], dtype=np.uint8)
    buf = modulate(chips)
    amps = chip_amplitudes(chips)
    z = buf.samples
    for k in range(chips.size):
        got = z[(k + 1) * buf.sps]
        want = amps[k] * (1.0 if k % 2 == 0 else 1.0j)
        assert got == pytest.approx(want, abs=1e-12), k


def test_head_and_tail_halves_keep_envelope():
    # Without the virtual edge pulses the first and last half chips would
    # dip; with them the envelope is flat from sample 0.
    chips = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    buf = modulate(chips)
    assert np.all(np.abs(np.abs(buf.samples) - 1.0) < 1e-9)


def test_iq_buffer_metadata():
    buf = IqBuffer(samples=np.zeros(8), sps=4, chip_rate_hz=2e6)
    assert buf.sample_rate_hz == 8e6
    assert buf.sample_period_s == pytest.approx(1.25e-7)
    assert len(buf) == 8
    with pytest.raises(ValueError):
        IqBuffer(samples=np.zeros(4), sps=3)
    with pytest.raises(ValueError):
        IqBuffer(samples=np.zeros((2, 2)))
