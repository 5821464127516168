"""Reference forms of a frame's source (pre-encoding) chip stream, its
differential encoding, the transmitter's sign-adjusted chip amplitudes, the
coherent chain's preamble, the preamble correlation both chains sync on and
the mode controller's hysteresis.

The transmitter never forms the source chips or runs the encoder:
phy_frames.build_frame gathers rows of the pre-encoded table, and each
receiver chain builds one block of the preamble.  The package states the
chip sign convention as XOR bits (tx_oqpsk.SIGN_PATTERN_BITS); here it is
the float factors of the plain form.  The tests check the framer, the
modulator and both receiver chains against these plain forms.
"""

import numpy as np

from dualmodem import phy_frames as pf
from dualmodem.mode_controller import K_UP, MODE_MSK, MODE_QPSK

# The transmitter's per-chip sign factor, period 4 in the chip index.
SIGN_FACTORS = np.array([1.0, -1.0, -1.0, 1.0])

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
    pf.frame_chips(payload_bits.size)  # validates the payload length
    return np.concatenate([pf.PREAMBLE_CHIPS, spread_symbols(pf.bits_to_symbols(payload_bits))])


def differential_encode(chips) -> np.ndarray:
    """Chip-level differential encoding: out[k] = chips[k] XOR out[k-1].

    out[-1] is the encoder seed, 0.
    """
    chips = pf.as_bits(chips, "chips")
    # XOR prefix scan: out[k] = chips[0] ^ ... ^ chips[k]
    return np.bitwise_xor.accumulate(chips)


def chip_amplitudes(chips) -> np.ndarray:
    """The sign-adjusted rail amplitude of each chip, chips[0] being chip
    index 0: (2*chip - 1) times SIGN_FACTORS[index % 4]."""
    chips = np.asarray(chips, dtype=np.float64)
    return (2.0 * chips - 1.0) * SIGN_FACTORS[np.arange(chips.size) % 4]


def preamble_reference_symbols() -> np.ndarray:
    """The 128 complex QPSK symbols of the encoded, sign-adjusted preamble."""
    amps = chip_amplitudes(differential_encode(pf.PREAMBLE_CHIPS))
    return amps[0::2] + 1j * amps[1::2]


def preamble_correlation_reference(stream, reference) -> np.ndarray:
    """_rxtypes.preamble_correlation in its plain form: the full-length
    np.correlate against the whole preamble `reference`, over the square
    root of each window's energy times the reference's."""
    stream = np.asarray(stream)
    if stream.size < reference.size:
        return np.zeros(1, dtype=np.result_type(stream, reference))
    corr = np.correlate(stream, reference, mode="valid")
    energy = np.concatenate(([0.0], np.cumsum(np.abs(stream) ** 2)))
    window = energy[reference.size :] - energy[: -reference.size]
    return corr / (np.sqrt(window * np.sum(np.abs(reference) ** 2)) + 1e-30)


def step_mode_with_poor_run(state, good):
    """The controller with a demotion count of its own: K_UP consecutive
    good verdicts promote qpsk to msk and K_DOWN consecutive poor ones
    demote msk to qpsk.  state is (mode, good_run, poor_run)."""
    mode, good_run, poor_run = state
    good_run = good_run + 1 if good else 0
    poor_run = 0 if good else poor_run + 1
    new_mode = mode
    if mode == MODE_QPSK and good_run >= K_UP:
        new_mode = MODE_MSK
        good_run = 0
    elif mode == MODE_MSK and poor_run >= K_DOWN:
        new_mode = MODE_QPSK
        poor_run = 0
    return new_mode, good_run, poor_run
