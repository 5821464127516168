"""Tally oracle: what each chain books over a corpus of impaired buffers.

Every RuntimeCounters field, found flag and preamble match count of both
chains, over 240 buffers (f_d 0 and 50 kHz, a lead of 0 and 1,600 samples,
-12 to +6 dB, six packets each), hashed into one sha256.  The digest was
recorded before the stages stopped booking their own tallies; a change that
moves where a tally is booked must leave it as it is.

The digest predates the pricing of the coherent chain's gate-open work, so
the test takes that work back out by its formulas first: the tuned filter's
complex MACs and compensate's rotation are the only tallies that moved.
"""

import dataclasses
import hashlib

import numpy as np

from dualmodem import phy_frames as pf
from dualmodem import rx_msk, rx_qpsk
from dualmodem._rxtypes import RxConfig
from dualmodem.channel_model import ChannelParams, apply
from dualmodem.complexity_meter import RuntimeCounters
from dualmodem.rx_qpsk import RB_CONFIDENCE_MIN
from dualmodem.tx_oqpsk import modulate

CORPUS_DIGEST = "0d75bc6c0442d4c88f54b81457659d89a7376c6f950392971415f1f163999ad5"


def _without_gate_open_pricing(counter, report, n_samples, sps):
    """The tallies as booked when every matched-filter tap cost two real
    MACs and compensate booked nothing."""
    est = report.carrier
    if est is None or not est.peak_to_median >= RB_CONFIDENCE_MIN:
        return counter
    n_taps = 2 * sps
    n = len(range(report.timing.tau_hat + sps, n_samples + n_taps - 1, sps))
    if est.f_d_hat_hz:
        counter.mf_mults -= 2 * n * n_taps
        counter.mf_adds -= 2 * n * n_taps
    counter.fft_mults -= 5 * n
    counter.fft_adds -= 3 * n
    return counter


def _corpus_rows():
    rng = np.random.default_rng(2024)
    cfg = RxConfig()
    for f_d_hz in (0.0, 50e3):
        for tau in (0.0, 1600.0):
            for snr_db in range(-12, 7, 2):
                for i in range(6):
                    payload = rng.integers(0, 2, cfg.payload_bits).astype(np.uint8)
                    params = ChannelParams(
                        f_d_hz=f_d_hz,
                        theta_rad=float(rng.uniform(-np.pi, np.pi)),
                        tau_samples=tau,
                        snr_db=float(snr_db),
                        seed=int(rng.integers(2**32)),
                    )
                    buf = apply(modulate(pf.build_frame(payload)), params)
                    for chain in (rx_qpsk, rx_msk):
                        counter = RuntimeCounters()
                        report = chain.demodulate(buf, cfg, counter=counter)
                        counter = _without_gate_open_pricing(counter, report, len(buf), buf.sps)
                        yield (
                            report.mode,
                            f_d_hz,
                            tau,
                            snr_db,
                            i,
                            report.frame_found,
                            report.preamble_match_count,
                            dataclasses.astuple(counter),
                        )


def test_corpus_tallies_are_pinned():
    rows = list(_corpus_rows())
    assert len(rows) == 480
    assert any(row[5] for row in rows) and not all(row[5] for row in rows)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == CORPUS_DIGEST
