"""Half-sine O-QPSK modulator for the 802.15.4 2.4 GHz PHY.

Even-indexed chips ride the I rail, odd-indexed chips the Q rail delayed by
one chip, and each chip is shaped with a half-sine pulse spanning two chip
periods.  With the deterministic per-chip sign pattern applied here the
result is exactly an MSK waveform: the instantaneous phase ramps +-pi/2 per
chip, and the ramp direction at chip k equals the pre-encoding chip value, so
a differential detector recovers the source chips with no differential
decoder.  A coherent sampler sees the encoded chips instead and decodes them
downstream.

The burst is built by table lookup.  Chip k's pulse starts at sample k*sps,
so chip period p holds the first half of chip p's pulse and the second half
of chip p-1's, and nothing else.  Chip p rides I when p is even and Q when p
is odd, and chip p-1 the other rail, so a period is one of 8 blocks of sps
samples: one per parity of p and per sign of the two chips' amplitudes.
`modulate` computes each period's block index and gathers the blocks.  The
frame's chips come from a table too: every chip-table row holds an even
number of 1 chips, so the differential encoder is back at state 0 at every
symbol boundary, and phy_frames.build_frame gathers pre-encoded rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .phy_frames import as_bits, check_integer

CHIP_RATE_HZ = 2_000_000.0
DEFAULT_SPS = 8  # samples per chip

# Per-chip sign bit, period 4 in the chip index: chip k is sent with
# amplitude phy_frames.ANTIPODAL[chip ^ SIGN_PATTERN_BITS[k % 4]], that is
# (2*chip - 1) * (+1, -1, -1, +1)[k % 4].  Chosen so that the chip-k phase
# ramp direction equals the pre-encoding chip (see module docstring); the
# convention is pinned by the loopback tests.
SIGN_PATTERN_BITS = np.array([0, 1, 1, 0], dtype=np.uint8)


def check_sps(sps: int) -> None:
    """Raise ValueError unless sps (samples per chip) is an even integer >= 2."""
    check_integer(sps, "sps", 2, step=2)


@dataclass
class IqBuffer:
    """Complex baseband samples with their timing metadata."""

    samples: np.ndarray
    sps: int = DEFAULT_SPS
    chip_rate_hz: float = CHIP_RATE_HZ

    def __post_init__(self):
        # Contiguous, so that the samples can be read as interleaved floats.
        self.samples = np.asarray(self.samples, dtype=np.complex128, order="C")
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        check_sps(self.sps)
        if not 0.0 < self.chip_rate_hz < float("inf"):
            raise ValueError("chip_rate_hz must be finite and positive")

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
    check_integer(n_samples, "n_samples", 4, step=2)
    n = np.arange(n_samples)
    return np.sin(np.pi * n / n_samples)


# The table row of chip period p is 4*(p odd) + 2*(chip p's amplitude is
# positive) + (chip p-1's is).  A chip's amplitude is positive when the chip
# differs from its sign-pattern bit, so the row is (2*chip[p] + chip[p-1])
# XOR a key of period 4 in p: 4*(p odd) + 2*SIGN_PATTERN_BITS[p % 4] +
# SIGN_PATTERN_BITS[(p - 1) % 4].  The four keys as one native uint32 word,
# to XOR four periods' rows at a time, computed in Python ints.
_PERIOD_KEYS = np.array(
    [4 * (p % 2) + 2 * int(SIGN_PATTERN_BITS[p]) + int(SIGN_PATTERN_BITS[p - 1])
     for p in range(4)], dtype=np.uint8
).view(np.uint32)


@functools.cache
def period_table(sps: int) -> np.ndarray:
    """The 8 possible chip periods as an 8 x sps complex array, read-only.

    Row 4*odd + 2*a + b holds the first pulse half, +1 if a else -1, on I
    (Q when odd) and the second pulse half, +1 if b else -1, on the other
    rail.  Adding 0.0 turns the -0.0 that a negative amplitude makes of the
    pulse's zero first tap into +0.0, the value a rail summed into zeros has.
    """
    check_sps(sps)
    pulse = half_sine_taps(2 * sps)
    rows = np.arange(8)[:, None]
    first = np.where(rows & 2, 1.0, -1.0) * pulse[:sps] + 0.0
    second = np.where(rows & 1, 1.0, -1.0) * pulse[sps:] + 0.0
    odd = rows & 4
    table = np.empty((8, sps), dtype=np.complex128)
    table.real = np.where(odd, second, first)
    table.imag = np.where(odd, first, second)
    table.flags.writeable = False
    return table


def modulate(chips, sps: int = DEFAULT_SPS) -> IqBuffer:
    """O-QPSK/half-sine modulate a chip stream.

    Returns (n_chips + 1) * sps complex samples: the Q rail trails the I rail
    by one chip.  Two half-pulse ramp chips of value 0 are folded into the
    burst edges (one before chip 0, one after the last chip) so the envelope
    is constant over the whole buffer and chip 0 has a phase ramp like every
    other chip; they occupy the same (n_chips + 1) * sps span.  The head chip
    is 0 because the differential encoder's seed is 0, so the first-chip ramp
    carries the frame's first source chip.
    """
    chips = as_bits(chips, "chips")
    if chips.ndim != 1 or chips.size == 0:
        raise ValueError("need a one-dimensional, non-empty chip vector")
    table = period_table(sps)  # raises on a bad sps

    n_chips = chips.size
    # Row of period p (see _PERIOD_KEYS), with the 0 edge chips at indices
    # -1 and n_chips, in a buffer padded to whole uint32 words.  Doubling
    # the words doubles each 0/1 byte with no carry.  Only integer loops the
    # receivers also run are used (uint32 multiply, uint8 or, uint32 xor):
    # each further numpy loop maps more of numpy's code into the process,
    # which shows in peak RSS.
    rows = np.zeros(n_chips // 4 * 4 + 4, dtype=np.uint8)
    rows[:n_chips] = chips
    words = rows.view(np.uint32)
    words *= 2
    rows[1 : n_chips + 1] |= chips
    words ^= _PERIOD_KEYS
    samples = table.take(rows[: n_chips + 1], axis=0).reshape(-1)
    return IqBuffer(samples=samples, sps=sps)
