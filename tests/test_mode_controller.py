"""Tests for the SNR-driven mode controller."""

import numpy as np
import pytest

from dualmodem import sim_harness
from dualmodem.mode_controller import (
    MODE_MSK,
    MODE_QPSK,
    ModeState,
    preamble_match_count,
    step_mode,
)


def _run(verdicts):
    state = ModeState()
    for verdict in verdicts:
        state = step_mode(state, verdict)
    return state


def test_preamble_match_count():
    rng = np.random.default_rng(0)
    ref = rng.integers(0, 2, 256).astype(np.uint8)
    assert preamble_match_count(ref, ref) == 256
    flipped = ref.copy()
    flipped[rng.choice(256, 13, replace=False)] ^= 1
    assert preamble_match_count(flipped, ref) == 243
    with pytest.raises(ValueError):
        preamble_match_count(ref[:128], ref)


def test_verdict_threshold_edge(monkeypatch):
    # The auto sweep counts a packet good once its preamble match count
    # reaches the threshold; three good packets promote the fourth to msk.
    cfg = sim_harness.SweepConfig(
        snr_start_db=0.0, snr_stop_db=0.0, packets_per_point=4, mode="auto", match_threshold=251
    )
    for match, msk_fraction in ((251, 0.25), (250, 0.0)):

        def run_packet(cfg, snr_db, snr_index, packet_index, mode, match=match):
            return sim_harness.PacketRecord(snr_db, mode, True, 0, match, cfg.payload_bits)

        monkeypatch.setattr(sim_harness, "run_packet", run_packet)
        assert sim_harness.ber_sweep(cfg).points[0].msk_fraction == msk_fraction


def test_promotion_needs_k_up_consecutive_good():
    state = ModeState()
    state = step_mode(state, True)
    state = step_mode(state, True)
    assert state.mode == MODE_QPSK and state.good_run == 2
    state = step_mode(state, True)
    assert state.mode == MODE_MSK
    assert state.switch_count == 1


def test_poor_verdict_resets_good_run():
    state = _run([True, True, False, True, True])
    assert state.mode == MODE_QPSK and state.good_run == 2


def test_single_poor_demotes_from_msk():
    state = _run([True] * 3)
    assert state.mode == MODE_MSK
    state = step_mode(state, False)
    assert state.mode == MODE_QPSK
    assert state.switch_count == 2


def test_alternating_verdicts_never_promote():
    state = ModeState()
    for _ in range(20):
        state = step_mode(state, True)
        state = step_mode(state, False)
        assert state.mode == MODE_QPSK


def test_mode_state_validation():
    with pytest.raises(ValueError):
        ModeState(mode="fsk")

