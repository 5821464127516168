"""Byte-identity oracle: the sweep CSV of small fixed-seed configs.

Any change meant to keep behaviour (a refactor or a speed-up) must leave
these sha256 digests as they are; a change that alters the random stream or
a decision on purpose re-pins them and says so.  Every digest was recorded
at the parent of the change that added it, before that change touched src/.
"""

import hashlib

import pytest

from dualmodem.sim_harness import SweepConfig, ber_sweep, sweep_csv

GRID = dict(snr_start_db=-10.0, snr_stop_db=10.0, snr_step_db=4.0, packets_per_point=16)

PINNED = {
    "qpsk": (
        dict(mode="qpsk"),
        "3e0cb2343a4b2e6b17a24c00d806785b7184913f3bf3863e151aac1a9a1ce2bc",
    ),
    "msk": (
        dict(mode="msk"),
        "ade0f57b5d0bb9a3f43b3e14f700fce4679d55b1915dd07356fcfb1acdd96118",
    ),
    "auto": (
        dict(mode="auto", f_d_hz=50e3, tau_samples=1600.0),
        "9572e5fb69cf8d4da916432a42b1d57415083fb998b5b4e4249e7bfc05edab3a",
    ),
    # Opens the carrier gate at f_d = 50 kHz on 16,456-sample buffers, so the
    # tuned matched filter and the decision-rate compensate both run.
    "qpsk-offset": (
        dict(mode="qpsk", f_d_hz=50e3, tau_samples=1600.0),
        "1f0bd6816d85026c6ad9fbdec79750bc699904606725fa759d4a6b4aeea55bd2",
    ),
    # The msk chain alone under a carrier rotation and a lead.
    "msk-offset": (
        dict(mode="msk", f_d_hz=50e3, tau_samples=1600.0),
        "7ca55bceb9aa083cff43e76214b75f335b5f23acfd7bb9469949e6cfbeba0aba",
    ),
    # A negative offset, which turns the carrier ramp the other way.
    "qpsk-negative-offset": (
        dict(mode="qpsk", f_d_hz=-37.5e3),
        "6f51c4cccfd6f12fac18ce440b87c4685833a9b608ae038a8f54898d79ed37e5",
    ),
}


# A pooled sweep must give the serial bytes.  The serial cases keep their
# plain ids.
@pytest.mark.parametrize(
    "name, workers",
    [
        pytest.param(name, workers, id=name if workers == 0 else f"{name}-workers{workers}")
        for workers in (0, 2)
        for name in sorted(PINNED)
    ],
)
def test_sweep_csv_bytes_are_pinned(name, workers):
    overrides, digest = PINNED[name]
    text = sweep_csv(ber_sweep(SweepConfig(**GRID, **overrides), workers=workers))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
