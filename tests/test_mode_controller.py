"""Tests for the SNR-driven mode controller."""

import numpy as np
import pytest

from dualmodem.mode_controller import (
    DEFAULT_MATCH_THRESHOLD,
    MODE_MSK,
    MODE_QPSK,
    ModeState,
    preamble_match_count,
    step_mode,
    verdict_from_match,
)


def _good():
    return verdict_from_match(256)


def _poor():
    return verdict_from_match(100)


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


def test_verdict_threshold_edge():
    assert verdict_from_match(DEFAULT_MATCH_THRESHOLD).good
    assert not verdict_from_match(DEFAULT_MATCH_THRESHOLD - 1).good
    v = verdict_from_match(250, threshold=251)
    assert not v.good and v.match_count == 250 and v.threshold == 251


def test_promotion_needs_k_up_consecutive_good():
    state = ModeState()
    state = step_mode(state, _good())
    state = step_mode(state, _good())
    assert state.mode == MODE_QPSK and state.good_run == 2
    state = step_mode(state, _good())
    assert state.mode == MODE_MSK
    assert state.switch_count == 1


def test_poor_verdict_resets_good_run():
    state = _run([_good(), _good(), _poor(), _good(), _good()])
    assert state.mode == MODE_QPSK and state.good_run == 2


def test_single_poor_demotes_from_msk():
    state = _run([_good()] * 3)
    assert state.mode == MODE_MSK
    state = step_mode(state, _poor())
    assert state.mode == MODE_QPSK
    assert state.switch_count == 2


def test_alternating_verdicts_never_promote():
    state = ModeState()
    for _ in range(20):
        state = step_mode(state, _good())
        state = step_mode(state, _poor())
        assert state.mode == MODE_QPSK


def test_override_pins_mode_but_tracks_runs():
    state = ModeState()
    for _ in range(5):
        state = step_mode(state, _good(), override=MODE_QPSK)
    assert state.mode == MODE_QPSK and state.good_run == 5
    with pytest.raises(ValueError):
        step_mode(state, _good(), override="both")


def test_history_is_trimmed():
    state = _run([_good()] * 12)
    assert len(state.history) == 8
    assert all(state.history)


def test_mode_state_validation():
    with pytest.raises(ValueError):
        ModeState(mode="fsk")

