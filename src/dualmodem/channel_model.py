"""Baseband impairment channel: delay, carrier offset, phase offset, AWGN.

Applies z[n] = exp(j*(2*pi*f_d*n*T_s + theta)) * x[n - tau] + w[n] with
complex white Gaussian noise of variance sigma^2 = 10^(-snr_db/10) against a
unit-power signal.  SNR is therefore defined per complex sample at the
oversampled rate, which is the convention used throughout the simulations.
The carrier ramp comes from two short phasor tables (`phasor_ramp`), so its
phasors match exp of the directly formed phase to float64 rounding, not bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phy_frames
from .tx_oqpsk import IqBuffer

# Columns of phasor_ramp's fine table: the ramp's row length.  A power of
# two, so that w * RAMP_COLUMNS is exact.
RAMP_COLUMNS = 128

# The longest lead a packet may open with: 62.5 ms at sps = 8, 14 times the
# longest 802.15.4 frame, in 16 MB of samples (a lead of 1e9 would ask 16 GB).
MAX_TAU_SAMPLES = 1_000_000


@dataclass
class ChannelParams:
    """Impairment settings.  snr_db=None disables noise."""

    f_d_hz: float = 0.0
    theta_rad: float = 0.0
    tau_samples: float = 0.0
    snr_db: float | None = None
    seed: int | None = None

    def __post_init__(self):
        noise = ("snr_db",) if self.snr_db is not None else ()
        for name in ("f_d_hz", "theta_rad", "tau_samples") + noise:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau_samples < 0:
            raise ValueError("tau_samples must be non-negative")
        if self.tau_samples != int(self.tau_samples):
            raise ValueError("tau_samples must be a whole number of samples")
        if self.tau_samples > MAX_TAU_SAMPLES:
            raise ValueError(f"tau_samples must not exceed {MAX_TAU_SAMPLES}")
        if self.seed is not None:
            phy_frames.check_integer(self.seed, "seed", 0)
        # Keep theta in the principal interval (-pi, pi].
        t = math.remainder(self.theta_rad, 2.0 * math.pi)
        if t <= -math.pi:
            t += 2.0 * math.pi
        self.theta_rad = t


def check_offset(f_d_hz: float, chip_rate_hz: float) -> None:
    """Raise unless |f_d_hz| stays below half the chip rate."""
    if abs(f_d_hz) >= chip_rate_hz / 2.0:
        raise ValueError("f_d magnitude must stay below half the chip rate")


def noise_sigma(snr_db: float) -> float:
    """Total complex noise standard deviation for unit signal power."""
    return math.sqrt(10.0 ** (-snr_db / 10.0))


def phasor_ramp(size: int, f_hz: float, sample_period_s: float, theta_rad: float) -> np.ndarray:
    """exp(j*(w*n + theta_rad)) for n = 0..size-1, w = 2*pi*f_hz*sample_period_s.

    A phase-decomposed phasor synthesizer (Tierney, Rader & Gold, "A digital
    frequency synthesizer", 1971): with n = RAMP_COLUMNS*q + r, the angle-sum
    identity makes the ramp the outer product of a coarse table
    exp(j*(w*RAMP_COLUMNS*q + theta_rad)) over ceil(size/RAMP_COLUMNS) rows
    and a fine table exp(j*w*r) over RAMP_COLUMNS columns.  A 16,456-sample
    ramp costs 257 complex exps and one broadcast multiply, and no
    full-length phase array is formed.  Against exp of the directly formed
    phase it differs by float64 rounding only, a few eps of the largest
    phase, the size of that phase's own rounding.
    """
    w = 2.0 * np.pi * f_hz * sample_period_s
    coarse = np.exp(1j * (w * RAMP_COLUMNS * np.arange(-(-size // RAMP_COLUMNS)) + theta_rad))
    fine = np.exp(1j * w * np.arange(RAMP_COLUMNS))
    return np.multiply(coarse[:, None], fine).reshape(-1)[:size]


def apply(buf: IqBuffer, params: ChannelParams) -> IqBuffer:
    """Run a buffer through the impairment channel.

    The output is extended by the delay so no signal falls off the end;
    rotation uses absolute output-sample time.  With f_d != 0 the output
    is a `phasor_ramp` that the delayed signal is multiplied into in place,
    so the channel holds no second full-length array; with f_d = 0 the
    rotation is a single phasor.  The noise is added to the output in
    place: first its real draws, then its imaginary ones, both drawn into
    one array.
    """
    check_offset(params.f_d_hz, buf.chip_rate_hz)
    x = buf.samples
    d = int(params.tau_samples)
    if params.f_d_hz != 0.0:
        # The lead is silence times the ramp, which keeps the zero signs of
        # that product; x stays the first factor, as in x * ramp.
        out = phasor_ramp(x.size + d, params.f_d_hz, buf.sample_period_s, params.theta_rad)
        out[:d] *= 0.0
        np.multiply(x, out[d:], out=out[d:])
    else:
        if d == 0:
            out = x.copy()
        else:
            out = np.zeros(x.size + d, dtype=np.complex128)
            out[d : d + x.size] = x
        if params.theta_rad != 0.0:
            out *= np.exp(1j * params.theta_rad)

    if params.snr_db is not None:
        rng = np.random.default_rng(params.seed)
        scale = noise_sigma(params.snr_db) / math.sqrt(2.0)
        noise = rng.standard_normal(out.size)
        noise *= scale
        out.real += noise
        rng.standard_normal(out=noise)
        noise *= scale
        out.imag += noise

    return IqBuffer(samples=out, sps=buf.sps, chip_rate_hz=buf.chip_rate_hz)
