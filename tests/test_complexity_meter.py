"""Tests for the operation-count models and runtime tallies."""

from dataclasses import fields

import numpy as np
import pytest

from dualmodem import phy_frames as pf
from dualmodem._rxtypes import RxConfig
from dualmodem.complexity_meter import (
    STAGE_BIT_DETECT,
    STAGE_CARRIER,
    STAGE_CHIP_TO_SYMBOL,
    STAGE_FRAME_SYNC,
    STAGE_MF_STR,
    STAGE_STR,
    ComplexityParams,
    OpCountReport,
    RuntimeCounters,
    StageOps,
    _RUNTIME_STAGES,
    fft_op_counts,
    msk_op_counts,
    qpsk_op_counts,
)
from dualmodem.rx_msk import demodulate as msk_demodulate
from dualmodem.tx_oqpsk import modulate


def _stage(report, name):
    return next(s for s in report.stages if s.name == name)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_msk_totals_exact():
    report = msk_op_counts(ComplexityParams())
    assert report.additions_total == 29_793
    assert report.multiplications_total == 6_144


def test_msk_stage_values():
    report = msk_op_counts(ComplexityParams())
    str_stage = _stage(report, STAGE_STR)
    assert str_stage.additions == 1_024
    assert str_stage.multiplications == 2_048
    assert dict(str_stage.other)["comparisons"] == 7
    sync = _stage(report, STAGE_FRAME_SYNC)
    assert sync.additions == 63**2 == 3_969
    assert sync.multiplications == 64**2 == 4_096
    c2s = _stage(report, STAGE_CHIP_TO_SYMBOL)
    assert c2s.additions == 24_800
    assert dict(c2s.other) == {"XOR": 25_600, "comparisons": 750}
    assert dict(_stage(report, STAGE_BIT_DETECT).other) == {"comparisons": 200}


def test_qpsk_totals_exact():
    report = qpsk_op_counts(ComplexityParams())
    assert report.additions_total == 104_617
    assert report.multiplications_total == 40_968


def test_qpsk_stage_values():
    report = qpsk_op_counts(ComplexityParams())
    mf = _stage(report, STAGE_MF_STR)
    assert mf.additions == 32 * 2 * 15**2 == 14_400
    assert mf.multiplications == 32 * 2 * 16**2 == 16_384
    assert dict(mf.other)["comparisons"] == 96
    carrier = _stage(report, STAGE_CARRIER)
    assert carrier.additions == 61_448
    assert carrier.multiplications == 20_488
    assert dict(carrier.other)["arctan"] == 1


def test_fft_op_counts_closed_form():
    assert fft_op_counts(2048) == (61_448, 20_488)
    adds, mults = fft_op_counts(256)
    assert adds == 7 * 128 * 7 - 5 * 256 + 8
    assert mults == 3 * 128 * 7 - 5 * 256 + 8
    with pytest.raises(ValueError):
        fft_op_counts(100)
    # The receiver's FFT rule: a power of two of at least 64 bins.
    with pytest.raises(ValueError):
        fft_op_counts(32)


def test_counts_scale_with_parameters():
    small = qpsk_op_counts(ComplexityParams(n_fft=256, n_bits=40))
    big = qpsk_op_counts(ComplexityParams(n_fft=4096, n_bits=400))
    assert small.additions_total < big.additions_total
    assert small.multiplications_total < big.multiplications_total


def test_params_validation():
    with pytest.raises(ValueError, match="n_fft"):
        ComplexityParams(n_fft=1000)
    # n_sample is two chips' worth of samples, at an sps some chain runs:
    # a multiple of 4, named as the model's own field.
    for n_sample in (15, 6, 2, 0):
        with pytest.raises(ValueError, match="n_sample"):
            ComplexityParams(n_sample=n_sample)
    # The receiver's rules (frame_chips, check_n_fft), under the model's
    # own field names.
    with pytest.raises(ValueError, match="n_bits"):
        ComplexityParams(n_bits=6)
    with pytest.raises(ValueError, match="n_fft"):
        ComplexityParams(n_fft=32)
    with pytest.raises(ValueError, match="n_bits"):
        ComplexityParams(n_bits=0)
    with pytest.raises(ValueError):
        ComplexityParams(l_pulses=0)
    # A fractional setting has no price: the model counts whole operations.
    for field, value, match in (("n_bits", 200.0, "n_bits"), ("l_pulses", 2.5, "l_pulses"),
                                ("n_preamble", 1.5, "n_preamble"), ("n_fft", 2048.0, "n_fft")):
        with pytest.raises(ValueError, match=match):
            ComplexityParams(**{field: value})
    with pytest.raises(ValueError):
        msk_op_counts(ComplexityParams(n_preamble=257))
    with pytest.raises(ValueError):
        qpsk_op_counts(ComplexityParams(n_preamble=129))


def test_stage_ops_validation():
    with pytest.raises(ValueError):
        StageOps(name="x", additions=-1)
    with pytest.raises(ValueError):
        StageOps(name="x", other=(("comparisons", -2),))


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def test_report_text_table():
    text = msk_op_counts(ComplexityParams()).as_text()
    lines = text.splitlines()
    assert "msk demodulator operation counts" in lines[0]
    assert lines[1].startswith("Stage")
    assert any(line.startswith("Total") for line in lines)
    assert "29793" in text and "6144" in text


def test_other_totals_aggregates_labels():
    report = msk_op_counts(ComplexityParams())
    totals = report.other_totals()
    assert totals["comparisons"] == 7 + 750 + 200
    assert totals["XOR"] == 25_600


# ---------------------------------------------------------------------------
# Runtime counters
# ---------------------------------------------------------------------------


def test_tally_correlation_search_books_per_search():
    c = RuntimeCounters()
    c.tally_correlation_search(64, 500)
    assert c.frame_sync_adds == 63**2
    assert c.frame_sync_mults == 64**2
    assert c.lags_searched == 500
    c.tally_correlation_search(64, 1)
    assert c.frame_sync_mults == 2 * 64**2
    # Input shorter than the reference leaves no lag, so no search ran.
    for n_lags in (0, -5):
        c.tally_correlation_search(64, n_lags)
    assert (c.frame_sync_mults, c.frame_sync_adds, c.lags_searched) == (2 * 64**2, 2 * 63**2, 501)


def test_tally_despread_matches_closed_form():
    c = RuntimeCounters()
    c.tally_despread(50)  # 200 payload bits
    closed = msk_op_counts(ComplexityParams())
    c2s = _stage(closed, STAGE_CHIP_TO_SYMBOL)
    assert c.despread_adds == c2s.additions
    assert c.despread_xors == dict(c2s.other)["XOR"]
    assert c.despread_comparisons == dict(c2s.other)["comparisons"]


def test_to_report_skips_empty_stages():
    c = RuntimeCounters()
    c.tally_despread(10)
    report = c.to_report()
    assert isinstance(report, OpCountReport)
    assert [s.name for s in report.stages] == [STAGE_CHIP_TO_SYMBOL]


def test_runtime_stage_table_books_every_counter_once():
    booked = []
    for _name, adds, mults, other in _RUNTIME_STAGES:
        booked += [field for field in (adds, mults) if field]
        booked += [field for _label, field in other]
    assert sorted(booked) == sorted(f.name for f in fields(RuntimeCounters))


def test_instrumented_run_crosschecks_closed_forms():
    rng = np.random.default_rng(1)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    buf = modulate(pf.build_frame(payload))
    counter = RuntimeCounters()
    report = msk_demodulate(buf, RxConfig(), counter=counter)
    assert report.frame_found
    closed = msk_op_counts(ComplexityParams(n_preamble=256))
    sync = _stage(closed, STAGE_FRAME_SYNC)
    # Same per-search convention as the closed form at full reference length.
    assert counter.frame_sync_adds == sync.additions
    assert counter.frame_sync_mults == sync.multiplications
    assert counter.despread_xors == 25_600
