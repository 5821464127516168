"""Tests for the baseband impairment channel."""

import math

import numpy as np
import pytest

from dualmodem.channel_model import RAMP_COLUMNS, ChannelParams, apply, noise_sigma, phasor_ramp
from dualmodem.tx_oqpsk import IqBuffer


def _tone(n=512, sps=8):
    t = np.arange(n)
    return IqBuffer(samples=np.exp(0.25j * t), sps=sps, chip_rate_hz=2e6)


def test_identity_when_unimpaired():
    buf = _tone()
    out = apply(buf, ChannelParams())
    assert np.array_equal(out.samples, buf.samples)
    assert out.sps == buf.sps and out.chip_rate_hz == buf.chip_rate_hz


def test_rotation_is_exact():
    buf = _tone()
    f_d, theta = 12_500.0, 0.7
    out = apply(buf, ChannelParams(f_d_hz=f_d, theta_rad=theta))
    n = np.arange(len(buf))
    want = buf.samples * np.exp(1j * (2 * np.pi * f_d * n * buf.sample_period_s + theta))
    assert np.allclose(out.samples, want, atol=1e-12)


def test_integer_delay_pads_front():
    buf = _tone(64)
    out = apply(buf, ChannelParams(tau_samples=5))
    assert len(out) == 64 + 5
    assert np.all(out.samples[:5] == 0)
    assert np.array_equal(out.samples[5:], buf.samples)


def test_fractional_delay_requires_flag():
    with pytest.raises(ValueError):
        ChannelParams(tau_samples=1.5)
    with pytest.raises(ValueError):
        ChannelParams(tau_samples=-1)


@pytest.mark.parametrize("field", ["f_d_hz", "theta_rad", "tau_samples", "snr_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_impairments_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ChannelParams(**{field: value})


def test_theta_normalized_to_principal_interval():
    p = ChannelParams(theta_rad=3 * np.pi)
    assert -np.pi < p.theta_rad <= np.pi
    assert p.theta_rad == pytest.approx(np.pi)


def test_noise_sigma_value():
    assert noise_sigma(10.0) == pytest.approx(np.sqrt(0.1))
    assert noise_sigma(0.0) == pytest.approx(1.0)


def test_noise_power_matches_snr():
    buf = IqBuffer(samples=np.zeros(500_000, dtype=np.complex128), sps=8, chip_rate_hz=2e6)
    for snr_db in (0.0, 10.0):
        out = apply(buf, ChannelParams(snr_db=snr_db, seed=4))
        measured = np.mean(np.abs(out.samples) ** 2)
        ratio = measured / noise_sigma(snr_db) ** 2
        assert 0.97 < ratio < 1.03, (snr_db, ratio)


def test_noise_is_seed_deterministic():
    buf = _tone()
    a = apply(buf, ChannelParams(snr_db=5.0, seed=11))
    b = apply(buf, ChannelParams(snr_db=5.0, seed=11))
    c = apply(buf, ChannelParams(snr_db=5.0, seed=12))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_frequency_offset_bound():
    buf = _tone()
    with pytest.raises(ValueError):
        apply(buf, ChannelParams(f_d_hz=1.1e6))


def test_impairments_compose():
    buf = _tone(128)
    params = ChannelParams(f_d_hz=5e3, theta_rad=-1.2, tau_samples=3, snr_db=None)
    out = apply(buf, params)
    n = np.arange(len(out))
    delayed = np.concatenate([np.zeros(3, dtype=np.complex128), buf.samples])
    want = delayed * np.exp(1j * (2 * np.pi * 5e3 * n * buf.sample_period_s - 1.2))
    assert np.allclose(out.samples, want, atol=1e-12)


# Bound set from float64 before measuring, per sample n, with u = eps/2,
# w = 2*pi*f*T and X_n = |w| n + |theta|.  The direct phase is formed in
# four roundings, so it is off by at most 4u X_n.  The ramp's w takes two
# roundings, a row start's phase two more (w*RAMP_COLUMNS is exact) and an
# offset's phase one, so the two phases that make sample n are off by at
# most 4u X_n together.  Each complex exp adds at most 4u and the product
# 4u, so the two sides part by at most u (8 X_n + 16); doubling it gives
#   |phasor_ramp - exp(j*phase)| <= eps * (8 X_n + 16).
# 68,680 samples is a 1,016-bit frame with a 1600-sample lead.
@pytest.mark.parametrize("size", [0, 1, 127, 128, 129, 16_456, 68_680])
@pytest.mark.parametrize("f_d", [12_500.0, -37_500.0, 999_999.0, -999_999.0])
def test_phasor_ramp_matches_exp_of_direct_phase(size, f_d):
    period = 1.0 / 16e6  # sps = 8 at 2 Mchip/s
    n = np.arange(size)
    eps = np.finfo(np.float64).eps
    for theta in (-np.pi, 0.0, np.pi):
        got = phasor_ramp(size, f_d, period, theta)
        want = np.exp(1j * (2.0 * np.pi * f_d * n * period + theta))
        tol = eps * (8 * (abs(2.0 * np.pi * f_d * period) * n + abs(theta)) + 16)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= tol), theta


def _reference_apply(buf, params):
    """The channel with integer delay, as full-length expressions."""
    x = buf.samples
    out = np.zeros(x.size + int(params.tau_samples), dtype=np.complex128)
    out[int(params.tau_samples) :] = x
    if params.f_d_hz != 0.0:
        # The ramp at n = RAMP_COLUMNS*q + r as the outer product of the
        # phasors at the row starts and the phasors of the in-row offsets.
        # Every product is formed out of place and the tables' product as
        # a broadcast, as in the channel: numpy rounds a product that it
        # computes into an elided temporary of 16,384 or more samples, or
        # against a broadcast operand, by other loops.
        w = 2.0 * np.pi * params.f_d_hz * buf.sample_period_s
        q = np.arange(-(-out.size // RAMP_COLUMNS))
        r = np.arange(RAMP_COLUMNS)
        starts = np.exp(1j * (w * RAMP_COLUMNS * q + params.theta_rad))
        offsets = np.exp(1j * w * r)
        out = out * np.outer(starts, offsets).ravel()[: out.size]
    elif params.theta_rad != 0.0:
        out *= np.exp(1j * params.theta_rad)
    if params.snr_db is not None:
        rng = np.random.default_rng(params.seed)
        scale = noise_sigma(params.snr_db) / math.sqrt(2.0)
        out.real += scale * rng.standard_normal(out.size)
        out.imag += scale * rng.standard_normal(out.size)
    return out


# 14,856 samples is a 200-bit frame; with a 1600-sample delay the output
# reaches 16,456, past the 16,384 samples from which numpy computes into
# temporaries in place.
@pytest.mark.parametrize("n", [14_856, 16_456])
@pytest.mark.parametrize("f_d", [0.0, 50e3])
@pytest.mark.parametrize("tau", [0, 1600])
@pytest.mark.parametrize("theta", [0.0, -2.1])
@pytest.mark.parametrize("snr_db", [None, 3.0])
def test_apply_matches_reference_bit_for_bit(n, f_d, tau, theta, snr_db):
    rng = np.random.default_rng(n)
    buf = IqBuffer(samples=np.exp(1j * rng.uniform(-np.pi, np.pi, n)), sps=8, chip_rate_hz=2e6)
    params = ChannelParams(f_d_hz=f_d, theta_rad=theta, tau_samples=tau, snr_db=snr_db, seed=9)
    assert apply(buf, params).samples.tobytes() == _reference_apply(buf, params).tobytes()
