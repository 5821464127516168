"""The receiver contract: metamorphic relations every chain satisfies.

Each relation transforms a buffer in a way that must not change what a
receiver recovers, or must change it in a known way, and runs on both
chains through their shared pipeline (_rxtypes.receive).  hypothesis draws
the carrier phase, payload, SNR and noise seed, derandomized so that every
run checks the same cases.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmodem import phy_frames as pf
from dualmodem import rx_msk, rx_qpsk
from dualmodem.channel_model import ChannelParams, apply
from dualmodem.tx_oqpsk import IqBuffer, modulate

SPS = 8
CHAINS = pytest.mark.parametrize("chain", [rx_msk.demodulate, rx_qpsk.demodulate],
                                 ids=["msk", "qpsk"])
CONTRACT = settings(derandomize=True, max_examples=20, deadline=None)

thetas = st.floats(-np.pi, np.pi)
seeds = st.integers(0, 2**31 - 1)
# From where qpsk misses nearly every frame to where msk decodes nearly all.
snrs = st.floats(-20.0, 10.0)


def _buf(samples, sps=SPS):
    return IqBuffer(samples=np.asarray(samples, dtype=np.complex128), sps=sps, chip_rate_hz=2e6)


def _frame_buf(payload, sps=SPS):
    return modulate(pf.build_frame(payload), sps=sps)


def _payload(seed):
    return np.random.default_rng(seed).integers(0, 2, 200).astype(np.uint8)


def _noiseless(seed, theta):
    """A noiseless burst at sample 0, rotated by theta, and its payload."""
    payload = _payload(seed)
    return apply(_frame_buf(payload), ChannelParams(theta_rad=theta)), payload


def _noisy(seed, theta, snr_db):
    return apply(_frame_buf(_payload(seed)), ChannelParams(theta_rad=theta, snr_db=snr_db,
                                                           seed=seed))


def _outcome(report):
    """Everything a report states, in a form == compares."""
    bits = None if report.payload_bits is None else report.payload_bits.tobytes()
    timing = report.timing and (report.timing.tau_hat, report.timing.v.tobytes())
    carrier = report.carrier and (report.carrier.f_d_hat_hz, report.carrier.theta_hat_rad,
                                  report.carrier.peak_to_median)
    return (report.mode, report.frame_start, bits, report.preamble_match_count, timing, carrier)


def _decisions(report):
    """What a report decided: the frame, its start, its bits, its match count
    and the timing phase (the estimates' floats round with the scale)."""
    bits = None if report.payload_bits is None else report.payload_bits.tobytes()
    return (report.frame_start, bits, report.preamble_match_count, report.timing.tau_hat)


def _lead(buf, n):
    return _buf(np.concatenate((np.zeros(n), buf.samples)))


# ---------------------------------------------------------------------------
# Leads, trailing silence and scale
# ---------------------------------------------------------------------------


@CHAINS
@CONTRACT
@given(seed=seeds, theta=thetas, lead=st.sampled_from([8, 800, 8_000]))
def test_a_lead_of_whole_chips_shifts_only_the_frame_start(chain, seed, theta, lead):
    buf, payload = _noiseless(seed, theta)
    base = chain(buf)
    assert base.frame_found and np.array_equal(base.payload_bits, payload)
    shifted = chain(_lead(buf, lead))
    assert shifted.frame_found
    assert shifted.frame_start == base.frame_start + lead
    assert np.array_equal(shifted.payload_bits, base.payload_bits)
    assert shifted.preamble_match_count == base.preamble_match_count


@CHAINS
@pytest.mark.parametrize("lead", [803, 8_005])
@pytest.mark.xfail(strict=True, reason="ROADMAP item 10b: the timing window reads the lead's"
                   " silence, not the preamble, so tau_hat misses a lead that is not whole chips")
def test_a_lead_past_the_timing_window_shifts_only_the_frame_start(chain, lead):
    buf, payload = _noiseless(5, 0.7)
    report = chain(_lead(buf, lead))
    assert report.frame_found and np.array_equal(report.payload_bits, payload)
    assert report.frame_start == lead


@CHAINS
@CONTRACT
@given(seed=seeds, theta=thetas, snr_db=snrs)
def test_trailing_silence_changes_nothing(chain, seed, theta, snr_db):
    for buf in (_noiseless(seed, theta)[0], _noisy(seed, theta, snr_db)):
        padded = _buf(np.concatenate((buf.samples, np.zeros(20_000))))
        assert _outcome(chain(padded)) == _outcome(chain(buf))


@CHAINS
@CONTRACT
@given(seed=seeds, theta=thetas, snr_db=snrs, scale=st.sampled_from([1e-9, 1e9]))
def test_scale_changes_no_decision(chain, seed, theta, snr_db, scale):
    for buf in (_noiseless(seed, theta)[0], _noisy(seed, theta, snr_db)):
        assert _decisions(chain(_buf(buf.samples * scale))) == _decisions(chain(buf))


# ---------------------------------------------------------------------------
# Non-finite samples and degenerate input
# ---------------------------------------------------------------------------


@CHAINS
@CONTRACT
@given(seed=seeds, theta=thetas, snr_db=snrs, index=st.integers(0, 14_855),
       value=st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.inf)]))
def test_a_non_finite_sample_reads_as_zero(chain, seed, theta, snr_db, index, value):
    buf = _noisy(seed, theta, snr_db)
    bad, zeroed = buf.samples.copy(), buf.samples.copy()
    bad[index], zeroed[index] = value, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(chain(_buf(bad))) == _outcome(chain(_buf(zeroed)))


@CHAINS
@pytest.mark.parametrize("n_samples", [0, 1, SPS, 2 * SPS - 1])
def test_demodulate_short_buffer_reports_no_frame(chain, n_samples):
    report = chain(_buf(np.ones(n_samples)))
    assert not report.frame_found
    assert report.payload_bits is None


@CHAINS
def test_demodulate_all_nan_reports_no_frame(chain):
    report = chain(_buf(np.full(14_856, np.nan)))
    assert not report.frame_found
    assert report.payload_bits is None


@CHAINS
@pytest.mark.parametrize(
    "value",
    [np.nan, complex(np.nan, 0.0), np.inf, -np.inf, 1j * np.inf],
    ids=["nan", "nan+0j", "inf", "-inf", "1j*inf"],
)
def test_demodulate_erases_a_non_finite_sample(chain, value):
    # One bad sample anywhere in a noiseless frame, the timing head and the
    # two ends included, costs no bit and raises no warning.
    payload = np.random.default_rng(4).integers(0, 2, 200).astype(np.uint8)
    clean = _frame_buf(payload).samples
    for index in (3, 100, 519, 520, 2_000, 7_000, clean.size - 1):
        samples = clean.copy()
        samples[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = chain(_buf(samples))
        assert report.frame_found and report.frame_start == 0, index
        assert np.array_equal(report.payload_bits, payload), index


@CHAINS
def test_demodulate_ignores_nan_sync_lags(chain):
    # One NaN inside the burst makes every later preamble-correlation lag NaN
    # on the coherent chain; the true, earlier lag must still win.
    payload = np.random.default_rng(3).integers(0, 2, 200).astype(np.uint8)
    buf = apply(_frame_buf(payload), ChannelParams(tau_samples=1600))
    buf.samples[9000] = np.nan
    report = chain(buf)
    assert report.frame_found
    assert report.frame_start == 1600
    assert np.array_equal(report.payload_bits, payload)
