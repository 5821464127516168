"""Noiseless loopback of both chains over oversampling, payload length,
carrier offset and lead.

The shortest frames at sps = 2 hold fewer samples than one preamble at
sps = 8, so every guard a chain applies before its first stage must scale
with sps.
"""

import itertools

import numpy as np
import pytest

from dualmodem import phy_frames as pf
from dualmodem import rx_msk, rx_qpsk
from dualmodem._rxtypes import RxConfig
from dualmodem.channel_model import ChannelParams, apply
from dualmodem.tx_oqpsk import modulate

GRID = list(itertools.product((2, 4, 6, 8, 16), (4, 8, 64, 200), (0.0, 30e3), (0, 37)))


@pytest.mark.parametrize("chain", [rx_qpsk, rx_msk], ids=["qpsk", "msk"])
def test_noiseless_loopback_grid(chain):
    rng = np.random.default_rng(15)
    failed = []
    for sps, n_bits, f_d_hz, lead in GRID:
        payload = rng.integers(0, 2, n_bits).astype(np.uint8)
        params = ChannelParams(
            f_d_hz=f_d_hz, theta_rad=float(rng.uniform(-np.pi, np.pi)), tau_samples=lead
        )
        buf = apply(modulate(pf.build_frame(payload), sps=sps), params)
        report = chain.demodulate(buf, RxConfig(payload_bits=n_bits))
        if not (
            report.frame_found
            and np.array_equal(report.payload_bits, payload)
            and report.frame_start == lead
        ):
            failed.append((sps, n_bits, f_d_hz, lead))
    assert failed == []
