"""Baseband impairment channel: delay, carrier offset, phase offset, AWGN.

Applies z[n] = exp(j*(2*pi*f_d*n*T_s + theta)) * x[n - tau] + w[n] with
complex white Gaussian noise of variance sigma^2 = 10^(-snr_db/10) against a
unit-power signal.  SNR is therefore defined per complex sample at the
oversampled rate, which is the convention used throughout the simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tx_oqpsk import IqBuffer


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
    """exp(j*(2*pi*f_hz*n*sample_period_s + theta_rad)) for n = 0..size-1.

    The phase is built in place in one float array and exponentiated in
    place in the complex result, so the call allocates no other full-length
    array.
    """
    phase = np.arange(size, dtype=np.float64)
    phase *= 2.0 * np.pi * f_hz
    phase *= sample_period_s
    phase += theta_rad
    rot = np.empty(size, dtype=np.complex128)
    rot.real = 0.0
    rot.imag = phase
    return np.exp(rot, out=rot)


def apply(buf: IqBuffer, params: ChannelParams) -> IqBuffer:
    """Run a buffer through the impairment channel.

    The output is extended by the delay so no signal falls off the end;
    rotation uses absolute output-sample time, and with f_d = 0 it is a
    single phasor.  The noise is added to the output in place: first
    its real draws, then its imaginary ones, both drawn into one array.
    """
    check_offset(params.f_d_hz, buf.chip_rate_hz)
    x = buf.samples
    if params.tau_samples == 0:
        out = x.copy()
    else:
        d = int(params.tau_samples)
        out = np.zeros(x.size + d, dtype=np.complex128)
        out[d : d + x.size] = x

    if params.f_d_hz != 0.0:
        out *= phasor_ramp(out.size, params.f_d_hz, buf.sample_period_s, params.theta_rad)
    elif params.theta_rad != 0.0:
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
