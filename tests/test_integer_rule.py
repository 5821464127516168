"""One integer rule: every integer setting, count and stage index is checked
by phy_frames.check_integer.

The table holds each call that takes one, with the argument's name and its
bounds.  A fractional value, a whole float and one step past each bound are
refused with a ValueError naming the argument and its lower bound; the
bounds themselves are accepted.  The guard keeps the rule in one place: no
other module imports `numbers` to restate it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from dualmodem import phy_frames, rx_msk, rx_qpsk, sim_harness
from dualmodem.channel_model import ChannelParams
from dualmodem.complexity_meter import ComplexityParams, check_n_fft
from dualmodem.sim_harness import SweepConfig, ber_sweep
from dualmodem.tx_oqpsk import IqBuffer, check_sps, half_sine_taps

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dualmodem"

SPS = 8
BUF = IqBuffer(np.ones(8 * SPS, dtype=np.complex128), sps=SPS)
ONE_POINT = SweepConfig(snr_start_db=10.0, snr_stop_db=10.0, packets_per_point=1)

# (call of the value, argument name, low, high or None, step)
SITES = (
    (check_sps, "sps", 2, None, 2),
    (half_sine_taps, "n_samples", 4, None, 2),
    (check_n_fft, "n_fft", 64, None, 1),
    (phy_frames.frame_chips, "payload_bits", 4, phy_frames.MAX_PAYLOAD_BITS, 4),
    (lambda v: SweepConfig(packets_per_point=v), "packets_per_point", 1, None, 1),
    (lambda v: SweepConfig(master_seed=v), "master_seed", 0, None, 1),
    (lambda v: SweepConfig(match_threshold=v), "match_threshold", 0, 256, 1),
    (lambda v: ComplexityParams(l_pulses=v), "l_pulses", 1, None, 1),
    (lambda v: ComplexityParams(n_preamble=v), "n_preamble", 1, None, 1),
    (lambda v: ComplexityParams(n_sample=v), "n_sample", 4, None, 4),
    (lambda v: ber_sweep(ONE_POINT, workers=v), "workers", 0, None, 1),
    (lambda v: rx_msk.diff_detect(BUF, v), "tau", 0, SPS - 1, 1),
    (lambda v: rx_qpsk.matched_filter(BUF, phase=v), "phase", 0, SPS - 1, 1),
    (lambda v: rx_qpsk.elg_timing(BUF, l_pulses=v, initial_phase=0), "l_pulses", 1, None, 1),
    # The first pulse's early and late samples must lie in the 64-sample buffer.
    (lambda v: rx_qpsk.elg_timing(BUF, initial_phase=v), "initial_phase",
     rx_qpsk.ELG_DELTA - 2 * SPS, 8 * SPS - 2 * SPS - rx_qpsk.ELG_DELTA - 1, 1),
    (lambda v: ChannelParams(snr_db=0.0, seed=v), "seed", 0, None, 1),
)


def test_every_integer_setting_and_index_follows_one_rule(monkeypatch):
    def no_pool(**kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(sim_harness, "ProcessPoolExecutor", no_pool)
    for call, name, low, high, step in SITES:
        refused = [2.5, float(low), low - step]
        if high is not None:
            refused.append(high + step)
        for value in refused:
            with pytest.raises(ValueError, match=rf"\b{name}\b.*(?<![\d-]){low}\b"):
                call(value)
        call(low)
        if high is not None:
            call(high)


def test_only_phy_frames_states_what_an_integer_is():
    restated = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "phy_frames":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif isinstance(node, ast.Attribute) and node.attr == "Integral":
                modules = ["numbers"]
            else:
                continue
            if "numbers" in modules:
                restated.append(f"{path.stem}:{node.lineno}")
    assert restated == []
