"""Tests for the batch simulation driver and CLI."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dualmodem import phy_frames as pf
from dualmodem import rx_msk, rx_qpsk, sim_harness
from dualmodem.sim_harness import (
    CSV_COLUMNS,
    SweepConfig,
    ber_sweep,
    build_parser,
    config_from_sources,
    iq_export,
    iq_import,
    main,
    parse_config,
    run_packet,
    sweep_csv,
)
from dualmodem.tx_oqpsk import IqBuffer, modulate


def _tiny_cfg(**kw):
    base = dict(
        snr_start_db=6.0,
        snr_stop_db=10.0,
        snr_step_db=4.0,
        packets_per_point=20,
        master_seed=1,
    )
    base.update(kw)
    return SweepConfig(**base)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_snr_grid_is_inclusive():
    cfg = SweepConfig(snr_start_db=-20, snr_stop_db=14, snr_step_db=2)
    grid = cfg.snr_grid()
    assert grid.size == 18
    assert grid[0] == -20.0 and grid[-1] == 14.0


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(snr_step_db=0)
    with pytest.raises(ValueError):
        SweepConfig(packets_per_point=0)
    with pytest.raises(ValueError):
        SweepConfig(mode="fsk")
    with pytest.raises(ValueError):
        SweepConfig(payload_bits=30)
    with pytest.raises(ValueError, match="n_fft"):
        SweepConfig(n_fft=1000)


def test_parse_config_and_precedence(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "snr-start = -4  # trailing comment\n"
        "packets = 77\n"
        "mode = msk\n"
        "\n"
    )
    values = parse_config(cfgfile)
    assert values == {"snr_start": "-4", "packets": "77", "mode": "msk"}
    cfg = config_from_sources(values, {"packets": 5, "seed": 9})
    assert cfg.snr_start_db == -4.0  # from file
    assert cfg.packets_per_point == 5  # CLI overrides file
    assert cfg.mode == "msk"
    assert cfg.master_seed == 9


def test_parse_config_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("snr_start -4\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_config(bad)
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_sources({"snr_banana": "1"}, {})


# ---------------------------------------------------------------------------
# Packet runs and sweeps
# ---------------------------------------------------------------------------


def test_run_packet_ideal_channel_both_modes():
    cfg = _tiny_cfg()
    for mode in ("qpsk", "msk"):
        rec = run_packet(cfg, None, 0, 0, mode)
        assert rec.frame_found
        assert rec.bit_errors == 0
        assert rec.preamble_match == 256
        assert rec.mode == mode


def test_run_packet_is_deterministic():
    cfg = _tiny_cfg()
    a = run_packet(cfg, 4.0, 1, 7, "qpsk")
    b = run_packet(cfg, 4.0, 1, 7, "qpsk")
    assert a == b
    # At low SNR the per-packet error pattern depends on the packet index.
    c = run_packet(cfg, -10.0, 1, 7, "qpsk")
    d = run_packet(cfg, -10.0, 1, 8, "qpsk")
    assert (c.bit_errors, c.preamble_match) != (d.bit_errors, d.preamble_match)


def test_sweep_csv_schema():
    result = ber_sweep(_tiny_cfg())
    text = sweep_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2  # header + two SNR points
    first = lines[1].split(",")
    assert float(first[0]) == 6.0
    assert first[1] == "qpsk"
    assert int(first[2]) == 20


def test_serial_and_parallel_sweeps_match():
    cfg = _tiny_cfg(packets_per_point=30)
    serial = sweep_csv(ber_sweep(cfg, workers=0))
    parallel = sweep_csv(ber_sweep(cfg, workers=2))
    assert serial == parallel


def test_high_snr_sweep_is_clean():
    result = ber_sweep(_tiny_cfg(snr_start_db=10.0, snr_stop_db=10.0))
    point = result.points[0]
    assert point.frames_detected == point.packets
    assert point.bit_errors == 0 and point.ber == 0.0 and point.per == 0.0
    assert point.mean_preamble_match == 256.0
    assert point.adds_total > 0 and point.mults_total > 0


def test_exclude_missed_changes_denominator():
    cfg = _tiny_cfg(snr_start_db=-30.0, snr_stop_db=-30.0, packets_per_point=10)
    with_missed = ber_sweep(cfg).points[0]
    assert with_missed.frames_detected == 0
    assert with_missed.ber == 1.0 and with_missed.per == 1.0
    excl = ber_sweep(_tiny_cfg(snr_start_db=-30.0, snr_stop_db=-30.0, packets_per_point=10,
                               exclude_missed=True)).points[0]
    assert excl.ber == 0.0  # nothing detected, nothing counted
    assert excl.frames_missed == 10


# The stages the sweep benchmark traces by replacing module attributes from
# outside the program.  A stage the program reaches by another name would go
# untraced and read zero time.
TRACED_STAGES = {
    rx_qpsk: ("msk_timing", "rb_carrier_estimate", "compensate", "matched_filter", "demodulate"),
    rx_msk: ("msk_timing", "diff_detect", "detect_chips", "frame_sync_msk", "demodulate"),
    pf: ("build_frame", "despread_stream"),
    sim_harness: ("run_packet", "channel_apply", "modulate", "step_mode", "ProcessPoolExecutor"),
}


def test_every_traced_stage_is_called_through_its_module(monkeypatch):
    calls = {}
    for module, names in TRACED_STAGES.items():
        for name in names:
            key = f"{module.__name__}.{name}"
            calls[key] = 0

            def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    # Noiseless at f_d = 0, so the qpsk carrier gate opens and compensate runs.
    cfg = _tiny_cfg(snr_start_db=10.0, snr_stop_db=10.0, packets_per_point=2)
    for mode in ("qpsk", "msk"):
        assert sim_harness.run_packet(cfg, None, 0, 0, mode).bit_errors == 0
    ber_sweep(replace(cfg, mode="auto"))
    ber_sweep(cfg, workers=2)
    assert [key for key, n in calls.items() if n == 0] == []


def test_auto_mode_tracks_snr():
    low = ber_sweep(_tiny_cfg(mode="auto", snr_start_db=-12.0, snr_stop_db=-12.0,
                              packets_per_point=40)).points[0]
    assert low.qpsk_fraction > 0.9
    high = ber_sweep(_tiny_cfg(mode="auto", snr_start_db=12.0, snr_stop_db=12.0,
                               packets_per_point=40)).points[0]
    assert high.msk_fraction > 0.8
    assert high.mode_label == "auto"


# ---------------------------------------------------------------------------
# IQ import/export
# ---------------------------------------------------------------------------


def test_iq_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    buf = modulate(pf.build_frame(rng.integers(0, 2, 40).astype(np.uint8)))
    path = tmp_path / "capture.iq"
    iq_export(buf, path)
    back = iq_import(path)
    assert back.sps == buf.sps
    assert back.chip_rate_hz == buf.chip_rate_hz
    assert np.max(np.abs(back.samples - buf.samples)) < 1e-6  # float32 rounding


def test_iq_export_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        iq_export(IqBuffer(samples=np.zeros(0), sps=8, chip_rate_hz=2e6), tmp_path / "x.iq")


def test_iq_import_error_cases(tmp_path):
    empty = tmp_path / "empty.iq"
    empty.write_bytes(b"")
    (tmp_path / "empty.iq.meta").write_text("sps = 8\nchip_rate_hz = 2e6\n")
    with pytest.raises(ValueError, match="empty"):
        iq_import(empty)

    odd = tmp_path / "odd.iq"
    np.ones(3, dtype="<f4").tofile(odd)
    (tmp_path / "odd.iq.meta").write_text("sps = 8\nchip_rate_hz = 2e6\n")
    with pytest.raises(ValueError, match="truncated"):
        iq_import(odd)

    nometa = tmp_path / "nometa.iq"
    np.ones(4, dtype="<f4").tofile(nometa)
    (tmp_path / "nometa.iq.meta").write_text("chip_rate_hz = 2e6\n")
    with pytest.raises(ValueError, match="missing key"):
        iq_import(nometa)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--snr-start", "8", "--snr-stop", "8", "--snr-step", "2",
        "--packets", "5", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_cli_sweep_uses_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("snr-start = 8\nsnr-stop = 8\nsnr-step = 2\npackets = 3\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[2] == "3"


def test_cli_decode_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(4)
    payload = rng.integers(0, 2, 200).astype(np.uint8)
    path = tmp_path / "frame.iq"
    iq_export(modulate(pf.build_frame(payload)), path)
    for mode in ("qpsk", "msk"):
        rc = main(["decode", str(path), "--mode", mode])
        out = capsys.readouterr().out
        assert rc == 0
        assert "".join(str(b) for b in payload) in out
        assert "preamble_match: 256/256" in out


def test_cli_decode_noise_reports_failure(tmp_path, capsys):
    rng = np.random.default_rng(5)
    noise = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) / np.sqrt(2)
    path = tmp_path / "noise.iq"
    iq_export(IqBuffer(samples=noise, sps=8, chip_rate_hz=2e6), path)
    rc = main(["decode", str(path)])
    assert rc == 1
    assert "no frame found" in capsys.readouterr().out


def test_cli_complexity_prints_tables(capsys):
    rc = main(["complexity"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "29793" in out and "104617" in out
    assert "msk demodulator" in out and "qpsk demodulator" in out


def test_cli_selftest_passes(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("ok") == 3


def test_cli_rejects_zero_settings(tmp_path):
    with pytest.raises(ValueError):
        main(["complexity", "--sps", "0"])
    path = tmp_path / "frame.iq"
    iq_export(modulate(pf.build_frame(np.zeros(200, dtype=np.uint8))), path)
    with pytest.raises(ValueError):
        main(["decode", str(path), "--payload-bits", "0"])
    # msk never reads n_fft, but the setting is checked all the same.
    with pytest.raises(ValueError, match="n_fft"):
        main(["decode", str(path), "--mode", "msk", "--nfft", "0"])
    with pytest.raises(ValueError, match="n_fft"):
        main(["sweep", "--nfft", "0", "--packets", "1"])


def test_module_selftest_runs_without_warnings():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "dualmodem.sim_harness", "selftest"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""


def test_parser_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--mode", "fsk"])
