"""Guard: every stage perfbench times runs when its chain demodulates.

perfbench/run.py's CHAIN_LAYERS names, per chain, the stages it times as
rx_<chain>.<stage> by wrapping that name in the chain's module.  A stage
the chain stopped calling through its own module would read a zero time
there, and nothing else would fail.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from dualmodem import phy_frames, rx_msk, rx_qpsk
from dualmodem._rxtypes import RxConfig
from dualmodem.channel_model import ChannelParams, apply
from dualmodem.tx_oqpsk import modulate

RUN_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# Each chain with a clean channel that runs all its stages: qpsk needs a
# carrier offset its estimate can find, or compensate never runs.
CHAINS = {"qpsk": (rx_qpsk, ChannelParams(f_d_hz=50e3)), "msk": (rx_msk, ChannelParams())}


def _chain_layers() -> dict:
    """CHAIN_LAYERS as the script states it, read without importing it."""
    for node in ast.parse(RUN_SCRIPT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CHAIN_LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_SCRIPT} assigns no CHAIN_LAYERS")


def test_the_script_times_both_chains():
    assert set(_chain_layers()) == set(CHAINS)


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_every_timed_stage_runs(monkeypatch, chain):
    module, params = CHAINS[chain]
    stages = _chain_layers()[chain][0]
    called = []
    for stage in stages:

        def wrapper(*args, _stage=stage, _inner=getattr(module, stage), **kwargs):
            called.append(_stage)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, stage, wrapper)
    payload = np.random.default_rng(3).integers(0, 2, RxConfig.payload_bits).astype(np.uint8)
    report = module.demodulate(apply(modulate(phy_frames.build_frame(payload)), params))
    assert report.frame_found and np.array_equal(report.payload_bits, payload)
    assert set(called) == set(stages)
