"""Half-sine O-QPSK modulator for the 802.15.4 2.4 GHz PHY.

Even-indexed chips ride the I rail, odd-indexed chips the Q rail delayed by
one chip, and each chip is shaped with a half-sine pulse spanning two chip
periods.  With the deterministic per-chip sign pattern applied here the
result is exactly an MSK waveform: the instantaneous phase ramps +-pi/2 per
chip, and the ramp direction at chip k equals the pre-encoding chip value, so
a differential detector recovers the source chips with no differential
decoder.  A coherent sampler sees the encoded chips instead and decodes them
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHIP_RATE_HZ = 2_000_000.0

# Per-chip sign factor, period 4 in the chip index: +1 -1 -1 +1.  Chosen so
# that the chip-k phase ramp direction equals the pre-encoding chip (see
# module docstring); the convention is pinned by the loopback tests.
SIGN_PATTERN_PERIOD4 = np.array([1.0, -1.0, -1.0, 1.0])
# Same pattern as XOR bits for undoing it on hard sliced chips.
SIGN_PATTERN_BITS = np.array([0, 1, 1, 0], dtype=np.uint8)


@dataclass
class IqBuffer:
    """Complex baseband samples with their timing metadata."""

    samples: np.ndarray
    sps: int = 8
    chip_rate_hz: float = CHIP_RATE_HZ

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.sps < 2 or self.sps % 2:
            raise ValueError("sps must be an even integer >= 2")

    @property
    def sample_rate_hz(self) -> float:
        return self.sps * self.chip_rate_hz

    @property
    def sample_period_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    def __len__(self) -> int:
        return self.samples.size


def half_sine_taps(n_samples: int) -> np.ndarray:
    """Half-sine chip pulse, taps[n] = sin(pi*n/N) for n = 0..N-1.

    N is the full pulse support: two chip periods, i.e. N = 2*sps.
    """
    if n_samples < 4 or n_samples % 2:
        raise ValueError("pulse length must be an even integer >= 4")
    n = np.arange(n_samples)
    return np.sin(np.pi * n / n_samples)


def sign_pattern(n_chips: int, start_index: int = 0) -> np.ndarray:
    """The +-1 sign factors for chip indices start_index..start_index+n-1."""
    idx = (np.arange(start_index, start_index + n_chips)) % 4
    return SIGN_PATTERN_PERIOD4[idx]


def chip_amplitudes(chips, start_index: int = 0) -> np.ndarray:
    """Antipodal, sign-adjusted rail amplitudes for a chip vector.

    chips are 0/1; the result is (2*chip - 1) times the index-locked sign
    pattern.  start_index gives the absolute chip index of chips[0].
    """
    chips = np.asarray(chips, dtype=np.float64)
    return (2.0 * chips - 1.0) * sign_pattern(chips.size, start_index)


def modulate(chips, sps: int = 8, chip_rate_hz: float = CHIP_RATE_HZ) -> IqBuffer:
    """O-QPSK/half-sine modulate a chip stream.

    Returns (n_chips + 1) * sps complex samples: the Q rail trails the I rail
    by one chip.  Two half-pulse ramp chips of value 0 are folded into the
    burst edges (one before chip 0, one after the last chip) so the envelope
    is constant over the whole buffer and chip 0 has a phase ramp like every
    other chip; they occupy the same (n_chips + 1) * sps span.  The head chip
    is 0 because the differential encoder's seed is 0, so the first-chip ramp
    carries the frame's first source chip.
    """
    chips = np.asarray(chips, dtype=np.uint8)
    if chips.ndim != 1 or chips.size == 0:
        raise ValueError("need a one-dimensional, non-empty chip vector")
    if chips.max() > 1:
        raise ValueError("chips must be 0/1 valued")
    if sps < 2 or sps % 2:
        raise ValueError("sps must be an even integer >= 2")

    n_chips = chips.size
    n_pulse = 2 * sps
    pulse = half_sine_taps(n_pulse)
    amps = chip_amplitudes(chips)
    # Virtual 0 chips at indices -1 and n_chips keep the sign pattern's
    # index arithmetic.
    head_amp = -sign_pattern(1, start_index=-1)[0]
    tail_amp = -sign_pattern(1, start_index=n_chips)[0]

    out = np.zeros((n_chips + 1) * sps, dtype=np.complex128)
    i_rail, q_rail = out.real, out.imag

    # Rail pulses abut with no overlap (spacing equals the pulse support), so
    # each rail is a plain concatenation of scaled pulses, written row by row
    # into the rail's part of the buffer.  A negative amplitude turns the
    # pulse's zero first tap into -0.0; adding +0.0 keeps every zero +0.0.
    even = amps[0::2]
    odd = amps[1::2]
    i_rows = i_rail[: even.size * n_pulse].reshape(even.size, n_pulse)
    np.multiply(even[:, None], pulse, out=i_rows)
    i_rows += 0.0
    q_rows = q_rail[sps : sps + odd.size * n_pulse].reshape(odd.size, n_pulse)
    np.multiply(odd[:, None], pulse, out=q_rows)
    q_rows += 0.0

    # Head: second half of the virtual chip -1 pulse; chip -1 is odd-indexed,
    # so it belongs on the Q rail.
    q_rail[:sps] += head_amp * pulse[sps:]
    # Tail: first half of the virtual chip n_chips pulse on its rail (even
    # index -> I rail).
    tail_rail = i_rail if n_chips % 2 == 0 else q_rail
    tail_rail[n_chips * sps :] += tail_amp * pulse[:sps]

    return IqBuffer(samples=out, sps=sps, chip_rate_hz=chip_rate_hz)
