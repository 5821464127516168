"""Tests for the batch simulation driver and CLI."""

import hashlib
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dualmodem import phy_frames as pf
from dualmodem import rx_msk, rx_qpsk, sim_harness
from dualmodem.channel_model import MAX_TAU_SAMPLES
from dualmodem.complexity_meter import StageOps
from dualmodem.sim_harness import (
    CSV_COLUMNS,
    _CONFIG_FIELDS,
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


@pytest.mark.parametrize(
    "field, value",
    [("sps", 8.0), ("packets_per_point", 2.5), ("payload_bits", 200.0), ("n_fft", 2048.0),
     ("master_seed", 1.5), ("match_threshold", 2.5)],
)
def test_sweep_config_rejects_non_integer_counts(field, value):
    # A float that passes the range checks used to fail later in the sweep
    # with a TypeError.
    with pytest.raises(ValueError, match=field):
        SweepConfig(**{field: value})
    SweepConfig(**{field: np.int64(int(value))})  # numpy integers count as integers


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
    with pytest.raises(ValueError, match="whole number"):
        SweepConfig(tau_samples=1.5)
    with pytest.raises(ValueError, match="non-negative"):
        SweepConfig(tau_samples=-8.0)
    with pytest.raises(ValueError, match="finite"):
        SweepConfig(f_d_hz=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        SweepConfig(theta_rad=float("inf"))
    with pytest.raises(ValueError, match="half the chip rate"):
        SweepConfig(f_d_hz=1.5e6)
    with pytest.raises(ValueError, match="half the chip rate"):
        SweepConfig(f_d_hz=-1e6)
    with pytest.raises(ValueError, match="match_threshold"):
        SweepConfig(match_threshold=300)
    with pytest.raises(ValueError, match="match_threshold"):
        SweepConfig(match_threshold=-1)
    with pytest.raises(ValueError, match="master_seed"):
        SweepConfig(master_seed=-1)
    # A bad grid or sps fails here, not in snr_grid or at the first packet.
    for field in ("snr_start_db", "snr_stop_db", "snr_step_db"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SweepConfig(**{field: value})
    with pytest.raises(ValueError, match="snr_stop_db"):
        SweepConfig(snr_start_db=4.0, snr_stop_db=2.0)
    # A grid too large to build: finite, and with an infinite span.
    for start, stop, step in ((-20.0, 14.0, 1e-6), (-1e308, 1e308, 2.0)):
        with pytest.raises(ValueError, match="snr_step_db steps"):
            SweepConfig(snr_start_db=start, snr_stop_db=stop, snr_step_db=step)
    for sps in (0, 1, 3, 7, -2):
        with pytest.raises(ValueError, match="sps"):
            SweepConfig(sps=sps)
    # A lead or payload too long to allocate: 1e13 samples is 146 TiB per
    # packet.  The channel and the frame refuse them, and the sweep with them.
    for tau in (MAX_TAU_SAMPLES + 1.0, 1e9, 1e13):
        with pytest.raises(ValueError, match="tau_samples"):
            SweepConfig(tau_samples=tau)
    for bits in (pf.MAX_PAYLOAD_BITS + 4, 4 * 10**12):
        with pytest.raises(ValueError, match="payload_bits"):
            SweepConfig(payload_bits=bits)
    # The edges of each range are accepted.
    SweepConfig(tau_samples=float(MAX_TAU_SAMPLES))
    SweepConfig(payload_bits=pf.MAX_PAYLOAD_BITS)
    SweepConfig(snr_start_db=2.0, snr_stop_db=2.0, sps=2)
    SweepConfig(f_d_hz=-999_999.0, tau_samples=3.0, match_threshold=0)
    SweepConfig(match_threshold=256, master_seed=0)


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
    with pytest.raises(ValueError, match="'packets'"):
        config_from_sources({"packets": "ten"}, {})


# Every `dualmodem sweep` settings flag and its dest, as scripts and the
# sweep benchmark spell them.
SWEEP_FLAGS = {
    "--mode": "mode",
    "--snr-start": "snr_start",
    "--snr-stop": "snr_stop",
    "--snr-step": "snr_step",
    "--packets": "packets",
    "--payload-bits": "payload_bits",
    "--sps": "sps",
    "--nfft": "nfft",
    "--seed": "seed",
    "--fd-hz": "fd_hz",
    "--theta-rad": "theta_rad",
    "--tau-samples": "tau_samples",
    "--match-threshold": "match_threshold",
}


def test_cli_flags_follow_the_config_table():
    parser = build_parser()
    assert sorted(SWEEP_FLAGS.values()) == sorted(_CONFIG_FIELDS)
    absent = parser.parse_args(["sweep"])
    for flag, key in SWEEP_FLAGS.items():
        # An absent flag leaves a config-file value standing.
        assert getattr(absent, key) is None, key
        text = "msk" if key == "mode" else "2"
        _field, conv = _CONFIG_FIELDS[key]
        assert getattr(parser.parse_args(["sweep", flag, text]), key) == conv(text), flag
    # decode and complexity read their settings as sweep does; the defaults
    # come from config_from_sources alone.
    dec = parser.parse_args(["decode", "x.iq"])
    assert (dec.payload_bits, dec.nfft) == (None, None)
    cx = parser.parse_args(["complexity"])
    assert (cx.sps, cx.payload_bits, cx.nfft) == (None, None, None)


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


def test_run_packet_rejects_unknown_mode():
    # Unchecked, "MSK" would run the coherent chain under that label, and
    # "auto" would give a record that _aggregate_point cannot count.
    for mode in ("MSK", "auto", ""):
        with pytest.raises(ValueError, match="mode"):
            run_packet(_tiny_cfg(), 6.0, 0, 0, mode)


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


def test_detected_frame_errors_follow_from_the_csv():
    # A missed frame books every payload bit as an error, so the CSV row
    # gives the errors of the detected frames alone.
    # qpsk misses some frames and decodes others with errors at -14 dB, and
    # finds none at -30 dB.
    cfg = _tiny_cfg(snr_start_db=-30.0, snr_stop_db=-14.0, snr_step_db=16.0,
                    packets_per_point=40)
    points = ber_sweep(cfg).points
    for index, point in enumerate(points):
        records = [run_packet(cfg, point.snr_db, index, p, "qpsk")
                   for p in range(cfg.packets_per_point)]
        detected = sum(r.bit_errors for r in records if r.frame_found)
        missed = point.packets - point.frames_detected
        assert point.bit_errors - missed * cfg.payload_bits == detected
        assert point.ber == point.bit_errors / (point.packets * cfg.payload_bits)
    deaf, mixed = points
    assert deaf.frames_detected == 0 and deaf.ber == 1.0 and deaf.per == 1.0
    assert 0 < mixed.frames_detected < mixed.packets
    assert mixed.bit_errors > (mixed.packets - mixed.frames_detected) * cfg.payload_bits


# The stages the sweep benchmark traces by replacing module attributes from
# outside the program.  A stage the program reaches by another name would go
# untraced and read zero time.
TRACED_STAGES = {
    rx_qpsk: ("msk_timing", "rb_carrier_estimate", "compensate", "matched_filter", "demodulate"),
    rx_msk: ("msk_timing", "diff_detect", "detect_chips", "frame_sync_msk", "demodulate"),
    pf: ("build_frame", "despread_stream"),
    sim_harness: ("run_packet", "channel_apply", "modulate", "step_mode", "ProcessPoolExecutor"),
}


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool ber_sweep builds, on a host of 8 CPUs.
    The pool maps in this process, so no real process starts."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sim_harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sim_harness.os, "cpu_count", lambda: 8)
    return sizes


def test_a_pool_starts_no_more_processes_than_points(pool_sizes):
    # A fork pool starts all max_workers processes at its first submit, so
    # the count must already be capped when the pool is built.
    two_points = _tiny_cfg(packets_per_point=2)
    serial = sweep_csv(ber_sweep(two_points))
    for workers in (2, 3, 10**6):
        assert sweep_csv(ber_sweep(two_points, workers=workers)) == serial
    one_point = replace(two_points, snr_stop_db=two_points.snr_start_db)
    ber_sweep(one_point, workers=8)
    # workers > 1 still means a pool, however few points there are.
    assert pool_sizes == [2, 2, 2, 1]


@pytest.mark.parametrize("cpus, size", [(4, 4), (1, 1), (None, 1)])
def test_a_pool_starts_no_more_processes_than_cpus(pool_sizes, monkeypatch, cpus, size):
    monkeypatch.setattr(sim_harness.os, "cpu_count", lambda: cpus)
    ten_points = _tiny_cfg(snr_start_db=0.0, snr_stop_db=9.0, snr_step_db=1.0,
                           packets_per_point=1)
    assert sweep_csv(ber_sweep(ten_points, workers=10**6)) == sweep_csv(ber_sweep(ten_points))
    assert pool_sizes == [size]


def test_a_refused_worker_count_builds_no_pool(pool_sizes):
    three_points = _tiny_cfg(snr_stop_db=14.0, packets_per_point=1)
    assert three_points.snr_grid().size == 3
    for workers in (2.5, 2.0, -1, "2"):
        with pytest.raises(ValueError, match="workers"):
            ber_sweep(three_points, workers=workers)
    assert pool_sizes == []


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
    assert high.mode == "auto"


def test_auto_mode_counts_a_missed_frame_as_poor_at_threshold_zero():
    # At -20 dB no frame is found.  A missed frame reports 0 preamble
    # matches, which a threshold of 0 would pass were misses not poor.
    point = ber_sweep(SweepConfig(snr_start_db=-20.0, snr_stop_db=-20.0, packets_per_point=40,
                                  mode="auto", match_threshold=0)).points[0]
    assert point.frames_detected == 0
    assert point.msk_fraction == 0.0


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


def test_iq_round_trip_keeps_zero_signs_infinities_and_nan(tmp_path):
    # Every pairing of the special values, each exact in float32, on the I
    # and Q rails: the file holds them as little-endian float32 I,Q pairs,
    # and the import restores every bit.
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, -1.5])
    samples = np.empty(values.size**2, dtype=np.complex128)
    samples.real = np.repeat(values, values.size)
    samples.imag = np.tile(values, values.size)
    path = tmp_path / "special.iq"
    iq_export(IqBuffer(samples=samples, sps=8, chip_rate_hz=2e6), path)
    raw = np.fromfile(path, dtype="<f4")
    assert raw[0::2].tobytes() == samples.real.astype("<f4").tobytes()
    assert raw[1::2].tobytes() == samples.imag.astype("<f4").tobytes()
    assert iq_import(path).samples.tobytes() == samples.tobytes()


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


def test_cli_sweep_writes_csv(tmp_path, capsys):
    # stdout and --out carry the bytes of the library call.
    argv = ["sweep", "--snr-start", "8", "--snr-stop", "8", "--snr-step", "2",
            "--packets", "5", "--seed", "2"]
    expected = sweep_csv(ber_sweep(SweepConfig(snr_start_db=8.0, snr_stop_db=8.0,
                                               packets_per_point=5, master_seed=2)))
    lines = expected.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "sweep.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == expected.encode("ascii")


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


# sha256 of `dualmodem complexity` stdout, recorded before the preamble
# length moved into phy_frames.PREAMBLE_REPEATS.
_COMPLEXITY_SHA256 = {
    (): "7f77de5ec8c3c84f057a60af42742a4f25d625afcead440ca4cb3f108b0ccdf4",
    ("--sps", "4", "--payload-bits", "40", "--nfft", "256"):
        "ddcde60ad150b8a4196e586011ebad320e0e6f1f4d923a6d27cbc585cd621df6",
}


@pytest.mark.parametrize("flags", list(_COMPLEXITY_SHA256), ids=["defaults", "sps4-bits40-nfft256"])
def test_cli_complexity_output_is_pinned(flags, capsys):
    assert main(["complexity", *flags]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(out).hexdigest() == _COMPLEXITY_SHA256[flags]


def test_cli_selftest_passes(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("ok") == 4
    assert "qpsk loopback at 50 kHz offset, 1600-sample lead: ok" in out


@pytest.mark.parametrize("chain", ["msk_op_counts", "qpsk_op_counts"])
def test_cli_selftest_checks_the_multiplication_totals(chain, monkeypatch, capsys):
    # One stray multiplication, with every addition left as it is.
    counts = getattr(sim_harness, chain)
    extra = StageOps("extra", multiplications=1)
    monkeypatch.setattr(sim_harness, chain,
                        lambda params: replace(counts(params), stages=(*counts(params).stages, extra)))
    assert main(["selftest"]) == 1
    assert "complexity closed forms: FAILED" in capsys.readouterr().out


def _usage_error(capsys, argv, match=None) -> str:
    """Run the CLI on argv, which must refuse a setting as argparse refuses
    a bad flag: exit status 2, nothing on stdout and one `dualmodem
    <command>: error: ...` line on stderr, which `match` is searched in."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"dualmodem {argv[0]}: error: [^\n]+\n", err), err
    if match is not None:
        assert re.search(match, err), err
    return err


def test_cli_rejects_zero_settings(tmp_path, capsys):
    _usage_error(capsys, ["complexity", "--sps", "0"])
    path = tmp_path / "frame.iq"
    iq_export(modulate(pf.build_frame(np.zeros(200, dtype=np.uint8))), path)
    _usage_error(capsys, ["decode", str(path), "--payload-bits", "0"])
    # msk never reads n_fft, but the setting is checked all the same.
    _usage_error(capsys, ["decode", str(path), "--mode", "msk", "--nfft", "0"], "n_fft")
    _usage_error(capsys, ["sweep", "--nfft", "0", "--packets", "1"], "n_fft")
    # Bad impairments and thresholds fail before any packet runs, in the
    # caller and not inside a pool worker.
    _usage_error(capsys, ["sweep", "--tau-samples", "2.5", "--workers", "2", "--packets", "1"],
                 "whole number")
    _usage_error(capsys, ["sweep", "--fd-hz", "1.5e6", "--packets", "1"], "half the chip rate")
    _usage_error(capsys, ["sweep", "--mode", "auto", "--match-threshold", "300", "--packets", "1"],
                 "match_threshold")
    _usage_error(capsys, ["sweep", "--workers", "-2", "--packets", "1"], "workers")
    _usage_error(capsys, ["sweep", "--sps", "3", "--workers", "2", "--packets", "1"], "sps")
    _usage_error(capsys, ["sweep", "--sps", "0", "--packets", "1"], "sps")
    _usage_error(capsys, ["sweep", "--snr-start", "4", "--snr-stop", "2", "--packets", "1"],
                 "snr_stop_db")
    _usage_error(capsys, ["sweep", "--snr-start", "nan", "--packets", "1"], "finite")
    _usage_error(capsys, ["sweep", "--snr-start=-1e308", "--snr-stop=1e308", "--packets", "1"],
                 "snr_stop_db")
    _usage_error(capsys, ["sweep", "--seed", "-1", "--workers", "2", "--packets", "1"],
                 "master_seed")


def test_cli_refuses_an_unallocatable_lead(capsys):
    # 146 TiB of samples in the first packet.
    err = _usage_error(capsys, ["sweep", "--tau-samples", "1e13", "--packets", "1",
                                "--snr-start", "0", "--snr-stop", "0"])
    assert err == "dualmodem sweep: error: tau_samples must not exceed 1000000\n"


def test_cli_refuses_a_bad_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "s.cfg"
    for text, match in (("packets 3\n", "expected 'key = value'"),
                        ("speed = 3\n", "unknown config key 'speed'"),
                        ("packets = many\n", "config key 'packets'"),
                        ("sps = eight\n", "config key 'sps'")):
        cfgfile.write_text(text)
        _usage_error(capsys, ["sweep", "--config", str(cfgfile)], match)


_ONE_PACKET = ["--packets", "1", "--snr-start", "0", "--snr-stop", "0"]


def test_cli_refuses_the_retired_exclude_missed_setting(tmp_path, monkeypatch, capsys):
    # A missed frame always counts; a script that asks otherwise must fail
    # before any packet, never run a sweep that counts them silently.
    monkeypatch.setattr(sim_harness, "run_packet", None)
    _usage_error(capsys, ["sweep", *_ONE_PACKET, "--exclude-missed"],
                 "unrecognized arguments: --exclude-missed$")
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("exclude-missed = 1\n")
    _usage_error(capsys, ["sweep", *_ONE_PACKET, "--config", str(cfgfile)],
                 "unknown config key 'exclude_missed'")


def test_cli_refuses_an_unknown_flag_in_its_command(tmp_path, monkeypatch, capsys):
    # The command's own parser refuses the flag, before any packet runs.
    monkeypatch.setattr(sim_harness, "run_packet", None)
    path = tmp_path / "frame.iq"
    iq_export(modulate(pf.build_frame(np.zeros(200, dtype=np.uint8))), path)
    for argv, refused in ((["sweep", *_ONE_PACKET, "--bogus-flag"], "--bogus-flag"),
                          (["decode", str(path), "--bogus"], "--bogus"),
                          (["complexity", "--bogus"], "--bogus"),
                          (["selftest", "--bogus", "x"], "--bogus x")):
        err = _usage_error(capsys, argv)
        assert err == f"dualmodem {argv[0]}: error: unrecognized arguments: {refused}\n"


# {d} is a directory that holds frame.iq, a capture without its .meta sidecar.
@pytest.mark.parametrize(
    "argv, refused",
    [
        (["sweep", "--config", "{d}/missing.cfg"], "{d}/missing.cfg"),
        (["sweep", "--config", "{d}"], "{d}"),
        (["decode", "{d}/missing.iq"], "{d}/missing.iq"),
        (["decode", "{d}/frame.iq"], "{d}/frame.iq.meta"),
        (["sweep", *_ONE_PACKET, "--out", "{d}/missing/x.csv"], "{d}/missing/x.csv"),
        (["sweep", *_ONE_PACKET, "--out", "{d}"], "{d}"),
    ],
    ids=["sweep-config-missing", "sweep-config-directory", "decode-capture-missing",
         "decode-sidecar-missing", "sweep-out-directory-missing", "sweep-out-directory"],
)
def test_cli_refuses_a_path_it_cannot_open_before_any_packet(argv, refused, tmp_path, monkeypatch,
                                                              capsys):
    iq_export(modulate(pf.build_frame(np.zeros(200, dtype=np.uint8))), tmp_path / "frame.iq")
    (tmp_path / "frame.iq.meta").unlink()
    packets = []

    def counted(fn):
        def call(*args, **kwargs):
            packets.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(sim_harness, "run_packet", counted(sim_harness.run_packet))
    for chain in (rx_qpsk, rx_msk):
        monkeypatch.setattr(chain, "demodulate", counted(chain.demodulate))
    err = _usage_error(capsys, [arg.format(d=tmp_path) for arg in argv])
    assert f"'{refused.format(d=tmp_path)}'" in err
    assert packets == []


def test_cli_opens_no_out_file_for_a_refused_setting(tmp_path, capsys):
    out = tmp_path / "x.csv"
    _usage_error(capsys, ["sweep", "--packets", "0", "--out", str(out)], "packets_per_point")
    assert not out.exists()


def test_cli_keeps_the_traceback_of_an_error_in_a_packet(monkeypatch, capsys):
    # Only the settings are usage errors; a fault inside the sweep is not.
    def fail(*args):
        raise ValueError("packet fault")

    monkeypatch.setattr(sim_harness, "run_packet", fail)
    with pytest.raises(ValueError, match="packet fault"):
        main(["sweep", "--packets", "1", "--snr-start", "0", "--snr-stop", "0"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flags, match",
    [
        (["--sps", "3"], "sps"),
        (["--nfft", "32"], "n_fft"),
        (["--payload-bits", "0"], "payload_bits"),
        (["--payload-bits", str(4 * 10**12)], "payload_bits"),
    ],
    ids=["sps", "nfft", "payload-bits", "payload-bits-huge"],
)
def test_cli_complexity_rejects_what_sweep_rejects(flags, match, capsys):
    _usage_error(capsys, ["complexity", *flags], match)
    _usage_error(capsys, ["sweep", "--packets", "1", *flags], match)


@pytest.mark.parametrize("rate", ["0", "-2e6", "nan", "inf"])
def test_iq_import_rejects_bad_chip_rate(tmp_path, capsys, rate):
    path = tmp_path / "frame.iq"
    iq_export(modulate(pf.build_frame(np.zeros(200, dtype=np.uint8))), path)
    (tmp_path / "frame.iq.meta").write_text(f"sps = 8\nchip_rate_hz = {rate}\n")
    with pytest.raises(ValueError, match="chip_rate_hz"):
        iq_import(path)
    for mode in ("qpsk", "msk"):
        _usage_error(capsys, ["decode", str(path), "--mode", mode], "chip_rate_hz")


@pytest.mark.parametrize(
    "sidecar, key",
    [
        ("sps = eight\nchip_rate_hz = 2e6\n", "sps"),
        ("sps = 8.5\nchip_rate_hz = 2e6\n", "sps"),
        ("sps = 7\nchip_rate_hz = 2e6\n", "sps"),
        ("sps = 0\nchip_rate_hz = 2e6\n", "sps"),
        ("sps = 8\nchip_rate_hz = -2e6\n", "chip_rate_hz"),
        ("sps = 8\nchip_rate_hz = abc\n", "chip_rate_hz"),
        ("sps = 8\n", "chip_rate_hz"),
        ("sps = 8\nchip_rate_hz = 2e6\nsample_rate_hz = fast\n", "sample_rate_hz"),
    ],
    ids=["sps-word", "sps-fraction", "sps-odd", "sps-zero", "chip-rate-negative",
         "chip-rate-word", "chip-rate-missing", "sample-rate-word"],
)
def test_iq_import_names_the_sidecar_and_key_of_a_bad_value(tmp_path, sidecar, key):
    path = tmp_path / "frame.iq"
    iq_export(modulate(pf.build_frame(np.zeros(200, dtype=np.uint8))), path)
    (tmp_path / "frame.iq.meta").write_text(sidecar)
    with pytest.raises(ValueError) as info:
        iq_import(path)
    message = str(info.value)
    assert message.startswith(f"{path}.meta: ") and re.search(rf"\b{key}\b", message), message


def test_iq_import_checks_sample_rate(tmp_path, capsys):
    path = tmp_path / "frame.iq"
    iq_export(modulate(pf.build_frame(np.zeros(200, dtype=np.uint8))), path)
    meta = tmp_path / "frame.iq.meta"
    assert "sample_rate_hz = 16000000.0\n" in meta.read_text()
    for sidecar in (
        "sample_rate_hz = 1.0\nsps = 8\nchip_rate_hz = 2e6\n",
        "sample_rate_hz = 8e6\nsps = 8\nchip_rate_hz = 2e6\n",
        "sample_rate_hz = nan\nsps = 8\nchip_rate_hz = 2e6\n",
        "sample_rate_hz = fast\nsps = 8\nchip_rate_hz = 2e6\n",
        "sps = 8\nchip_rate_hz = 2e6\n",
    ):
        meta.write_text(sidecar)
        with pytest.raises(ValueError, match="sample_rate_hz"):
            iq_import(path)
        _usage_error(capsys, ["decode", str(path), "--mode", "qpsk"], "sample_rate_hz")
    # Any spelling of the right rate is accepted.
    meta.write_text("sample_rate_hz = 16e6\nsps = 8\nchip_rate_hz = 2e6\n")
    assert iq_import(path).sample_rate_hz == 16e6


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
    # decode runs one chain, so it takes no auto mode.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["decode", "x.iq", "--mode", "auto"])


_FAULT_PROBE = """
import resource
from dualmodem.sim_harness import SweepConfig, ber_sweep

grid = dict(snr_start_db=-10.0, snr_step_db=4.0, mode="qpsk", f_d_hz=50e3, tau_samples=1600.0)
ber_sweep(SweepConfig(snr_stop_db=-10.0, packets_per_point=8, **grid))
cfg = SweepConfig(snr_stop_db=10.0, packets_per_point=16, **grid)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ber_sweep(cfg)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / (cfg.packets_per_point * len(cfg.snr_grid())))
"""


def test_sweep_loop_reuses_freed_pages():
    # glibc returns freed full-length packet buffers to the kernel unless
    # ber_sweep first raises its mmap and trim thresholds; every packet then
    # faults dozens of pages in afresh.  Fresh interpreter, so no earlier
    # test has already moved the thresholds.
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the trim/re-fault cycle is specific to glibc malloc")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    faults_per_packet = float(proc.stdout.split()[-1])
    assert faults_per_packet < 5, faults_per_packet
