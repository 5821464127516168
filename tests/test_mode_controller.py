"""Tests for the SNR-driven mode controller."""

import itertools

import pytest

from dualmodem import sim_harness
from dualmodem.mode_controller import MODE_MSK, MODE_QPSK, ModeState, step_mode

from frame_reference import step_mode_with_poor_run


def _run(verdicts):
    state = ModeState()
    for verdict in verdicts:
        state = step_mode(state, verdict)
    return state


def test_verdict_threshold_edge(monkeypatch):
    # The auto sweep counts a packet good once its preamble match count
    # reaches the threshold; three good packets promote the fourth to msk.
    cfg = sim_harness.SweepConfig(
        snr_start_db=0.0, snr_stop_db=0.0, packets_per_point=4, mode="auto", match_threshold=251
    )
    for match, msk_fraction in ((251, 0.25), (250, 0.0)):

        def run_packet(cfg, snr_db, snr_index, packet_index, mode, match=match):
            return sim_harness.PacketRecord(mode, True, 0, match)

        monkeypatch.setattr(sim_harness, "run_packet", run_packet)
        assert sim_harness.ber_sweep(cfg).points[0].msk_fraction == msk_fraction


def test_promotion_needs_k_up_consecutive_good():
    state = ModeState()
    state = step_mode(state, True)
    state = step_mode(state, True)
    assert state.mode == MODE_QPSK and state.good_run == 2
    state = step_mode(state, True)
    assert state.mode == MODE_MSK


def test_poor_verdict_resets_good_run():
    state = _run([True, True, False, True, True])
    assert state.mode == MODE_QPSK and state.good_run == 2


def test_single_poor_demotes_from_msk():
    state = _run([True] * 3)
    assert state.mode == MODE_MSK
    state = step_mode(state, False)
    assert state.mode == MODE_QPSK


def test_alternating_verdicts_never_promote():
    state = ModeState()
    for _ in range(20):
        state = step_mode(state, True)
        state = step_mode(state, False)
        assert state.mode == MODE_QPSK


def test_mode_state_validation():
    with pytest.raises(ValueError):
        ModeState(mode="fsk")


def test_matches_the_controller_with_a_demotion_count():
    # Demoting on one poor verdict is the K_DOWN = 1 case of a controller
    # that counts consecutive poor verdicts, on every 12-verdict sequence.
    for verdicts in itertools.product((False, True), repeat=12):
        state = ModeState()
        ref = (state.mode, state.good_run, 0)
        for good in verdicts:
            state = step_mode(state, good)
            ref = step_mode_with_poor_run(ref, good)
            assert (state.mode, state.good_run) == ref[:2], verdicts
