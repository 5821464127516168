"""Batch simulation driver and command-line front end.

Runs seeded Monte Carlo BER/PER sweeps over SNR, routes packets through the
coherent or non-coherent chain (or lets the mode controller pick), writes
fixed-schema CSV, and imports/exports raw interleaved IQ captures.

Determinism contract: every packet derives its Generator from
SeedSequence((master_seed, snr_index, packet_index)), so a sweep is a pure
function of its SweepConfig and serial and parallel runs emit byte-identical
CSV.  Per-point statistics are accumulated as integers and divided once.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import phy_frames, rx_msk, rx_qpsk
from ._rxtypes import RxConfig
from .channel_model import ChannelParams, apply as channel_apply
from .complexity_meter import ComplexityParams, msk_op_counts, qpsk_op_counts
from .mode_controller import DEFAULT_MATCH_THRESHOLD, MODE_MSK, MODE_QPSK, ModeState, step_mode
from .tx_oqpsk import IqBuffer, modulate

CSV_COLUMNS = (
    "snr_db",
    "mode",
    "packets",
    "frames_detected",
    "bit_errors",
    "ber",
    "per",
    "mean_preamble_match",
    "adds_total",
    "mults_total",
)

MODE_AUTO = "auto"


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep depends on; see the module determinism contract."""

    snr_start_db: float = -20.0
    snr_stop_db: float = 14.0
    snr_step_db: float = 2.0
    packets_per_point: int = 2000
    payload_bits: int = 200
    mode: str = MODE_QPSK
    sps: int = 8
    n_fft: int = 2048
    master_seed: int = 0
    f_d_hz: float = 0.0
    theta_rad: float | None = None
    tau_samples: float = 0.0
    match_threshold: int = DEFAULT_MATCH_THRESHOLD
    exclude_missed: bool = False

    def __post_init__(self):
        if self.snr_step_db <= 0:
            raise ValueError("snr_step_db must be positive")
        if self.packets_per_point < 1:
            raise ValueError("packets_per_point must be at least 1")
        if self.mode not in (MODE_QPSK, MODE_MSK, MODE_AUTO):
            raise ValueError(f"unknown mode {self.mode!r}")
        RxConfig(self.payload_bits, self.n_fft)  # validates the receiver settings

    def snr_grid(self) -> np.ndarray:
        n = int(np.floor((self.snr_stop_db - self.snr_start_db) / self.snr_step_db + 1e-9)) + 1
        return self.snr_start_db + self.snr_step_db * np.arange(max(n, 0))


@dataclass(frozen=True)
class PacketRecord:
    """Outcome of one Monte Carlo trial."""

    snr_db: float
    mode: str
    frame_found: bool
    bit_errors: int
    preamble_match: int
    n_bits: int


@dataclass(frozen=True)
class SweepPoint:
    snr_db: float
    mode_label: str
    packets: int
    frames_detected: int
    bit_errors: int
    ber: float
    per: float
    mean_preamble_match: float
    adds_total: int
    mults_total: int
    frames_missed: int
    qpsk_fraction: float
    msk_fraction: float


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    points: tuple[SweepPoint, ...]


def _packet_rng(master_seed: int, snr_index: int, packet_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, snr_index, packet_index)))


def run_packet(
    cfg: SweepConfig, snr_db: float | None, snr_index: int, packet_index: int, mode: str
) -> PacketRecord:
    """One trial: random payload, impaired channel, one receiver chain.

    A missed frame counts every payload bit as an error; that rule keeps the
    BER curve honest at SNRs where synchronization itself fails.
    """
    rng = _packet_rng(cfg.master_seed, snr_index, packet_index)
    payload = rng.integers(0, 2, cfg.payload_bits).astype(np.uint8)
    theta = cfg.theta_rad
    if theta is None:
        theta = float(rng.uniform(-np.pi, np.pi))
    noise_seed = int(rng.integers(0, 2**63))

    frame = phy_frames.build_frame(payload)
    buf = modulate(frame, sps=cfg.sps)
    params = ChannelParams(
        f_d_hz=cfg.f_d_hz,
        theta_rad=theta,
        tau_samples=cfg.tau_samples,
        snr_db=snr_db,
        seed=noise_seed,
    )
    rx = channel_apply(buf, params)

    rxcfg = RxConfig(payload_bits=cfg.payload_bits, n_fft=cfg.n_fft)
    if mode == MODE_MSK:
        report = rx_msk.demodulate(rx, rxcfg)
    else:
        report = rx_qpsk.demodulate(rx, rxcfg)

    if report.frame_found and report.payload_bits is not None:
        errors = int(np.count_nonzero(report.payload_bits != payload))
    else:
        errors = cfg.payload_bits
    return PacketRecord(
        snr_db=snr_db if snr_db is not None else float("inf"),
        mode=mode,
        frame_found=bool(report.frame_found),
        bit_errors=errors,
        preamble_match=int(report.preamble_match_count),
        n_bits=cfg.payload_bits,
    )


def _run_packet_task(args) -> PacketRecord:
    cfg, snr_db, snr_index, packet_index, mode = args
    return run_packet(cfg, snr_db, snr_index, packet_index, mode)


def _complexity_params(sps: int, payload_bits: int, n_fft: int) -> ComplexityParams:
    """The operation-count model of a chain run at these settings."""
    return ComplexityParams(
        l_pulses=32, n_sample=2 * sps, n_preamble=64, n_bits=payload_bits, n_fft=n_fft
    )


def _chain_op_totals(cfg: SweepConfig) -> dict[str, tuple[int, int]]:
    params = _complexity_params(cfg.sps, cfg.payload_bits, cfg.n_fft)
    msk = msk_op_counts(params)
    qpsk = qpsk_op_counts(params)
    return {
        MODE_MSK: (msk.additions_total, msk.multiplications_total),
        MODE_QPSK: (qpsk.additions_total, qpsk.multiplications_total),
    }


def _aggregate_point(
    cfg: SweepConfig, snr_db: float, records: list[PacketRecord], mode_label: str
) -> SweepPoint:
    per_chain = _chain_op_totals(cfg)
    packets = len(records)
    detected = sum(r.frame_found for r in records)
    missed = packets - detected
    match_sum = sum(r.preamble_match for r in records)
    n_qpsk = sum(r.mode == MODE_QPSK for r in records)

    if cfg.exclude_missed:
        bit_errors = sum(r.bit_errors for r in records if r.frame_found)
        denom = detected * cfg.payload_bits
    else:
        bit_errors = sum(r.bit_errors for r in records)
        denom = packets * cfg.payload_bits
    ber = bit_errors / denom if denom else 0.0
    packet_errors = sum(1 for r in records if r.bit_errors > 0 or not r.frame_found)
    adds = sum(per_chain[r.mode][0] for r in records)
    mults = sum(per_chain[r.mode][1] for r in records)
    return SweepPoint(
        snr_db=float(snr_db),
        mode_label=mode_label,
        packets=packets,
        frames_detected=int(detected),
        bit_errors=int(bit_errors),
        ber=ber,
        per=packet_errors / packets,
        mean_preamble_match=match_sum / packets,
        adds_total=int(adds),
        mults_total=int(mults),
        frames_missed=int(missed),
        qpsk_fraction=n_qpsk / packets,
        msk_fraction=(packets - n_qpsk) / packets,
    )


def _sweep_point_auto(cfg: SweepConfig, snr_db: float, snr_index: int) -> SweepPoint:
    # Mode decisions depend on packet order, so auto mode runs sequentially
    # and carries controller state across packets within the point.
    state = ModeState()
    records = []
    for p in range(cfg.packets_per_point):
        rec = run_packet(cfg, snr_db, snr_index, p, state.mode)
        records.append(rec)
        # A missed frame reports 0 preamble matches.
        state = step_mode(state, rec.preamble_match >= cfg.match_threshold)
    return _aggregate_point(cfg, snr_db, records, MODE_AUTO)


def ber_sweep(cfg: SweepConfig, workers: int = 0) -> SweepResult:
    """Run the whole SNR grid; workers > 1 parallelizes fixed-mode sweeps."""
    grid = [float(snr_db) for snr_db in cfg.snr_grid()]
    if cfg.mode == MODE_AUTO:
        points = [_sweep_point_auto(cfg, snr, snr_index) for snr_index, snr in enumerate(grid)]
        return SweepResult(config=cfg, points=tuple(points))

    tasks = (
        (cfg, snr, snr_index, p, cfg.mode)
        for snr_index, snr in enumerate(grid)
        for p in range(cfg.packets_per_point)
    )
    if workers > 1:
        # One pool for the whole sweep; map keeps task order.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = _points_in_order(cfg, grid, pool.map(_run_packet_task, tasks, chunksize=64))
    else:
        points = _points_in_order(cfg, grid, map(_run_packet_task, tasks))
    return SweepResult(config=cfg, points=tuple(points))


def _points_in_order(cfg: SweepConfig, grid: list[float], records) -> list[SweepPoint]:
    """Aggregate a grid-ordered record stream one point at a time, so only
    one point's records are held at once."""
    records = iter(records)
    return [
        _aggregate_point(cfg, snr, list(itertools.islice(records, cfg.packets_per_point)), cfg.mode)
        for snr in grid
    ]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def sweep_csv(result: SweepResult) -> str:
    """Fixed-column CSV, one row per SNR point."""
    lines = [",".join(CSV_COLUMNS)]
    for pt in result.points:
        row = (
            pt.snr_db,
            pt.mode_label,
            pt.packets,
            pt.frames_detected,
            pt.bit_errors,
            pt.ber,
            pt.per,
            pt.mean_preamble_match,
            pt.adds_total,
            pt.mults_total,
        )
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def iq_export(buf: IqBuffer, path) -> None:
    """Interleaved little-endian float32 I,Q pairs plus a .meta sidecar."""
    if len(buf) == 0:
        raise ValueError("refusing to export an empty buffer")
    inter = np.empty(2 * len(buf), dtype="<f4")
    inter[0::2] = buf.samples.real.astype(np.float32)
    inter[1::2] = buf.samples.imag.astype(np.float32)
    path = str(path)
    inter.tofile(path)
    with open(path + ".meta", "w", encoding="ascii") as fh:
        fh.write(f"sample_rate_hz = {buf.sample_rate_hz!r}\n")
        fh.write(f"sps = {buf.sps}\n")
        fh.write(f"chip_rate_hz = {buf.chip_rate_hz!r}\n")


def iq_import(path) -> IqBuffer:
    """Inverse of iq_export; refuses empty or odd-length float payloads."""
    path = str(path)
    raw = np.fromfile(path, dtype="<f4")
    if raw.size == 0:
        raise ValueError(f"{path}: empty IQ file")
    if raw.size % 2:
        raise ValueError(f"{path}: truncated IQ pair")
    meta = parse_config(path + ".meta")
    try:
        sps = int(meta["sps"])
        chip_rate = float(meta["chip_rate_hz"])
    except KeyError as exc:
        raise ValueError(f"{path}.meta: missing key {exc}") from exc
    samples = raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64)
    return IqBuffer(samples=samples, sps=sps, chip_rate_hz=chip_rate)


def parse_config(path) -> dict[str, str]:
    """Plain-text `key = value` pairs; # starts a comment; keys normalized."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = text.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_CONFIG_FIELDS = {
    "snr_start": ("snr_start_db", float),
    "snr_stop": ("snr_stop_db", float),
    "snr_step": ("snr_step_db", float),
    "packets": ("packets_per_point", int),
    "payload_bits": ("payload_bits", int),
    "mode": ("mode", str),
    "sps": ("sps", int),
    "nfft": ("n_fft", int),
    "seed": ("master_seed", int),
    "fd_hz": ("f_d_hz", float),
    "theta_rad": ("theta_rad", float),
    "tau_samples": ("tau_samples", float),
    "match_threshold": ("match_threshold", int),
    "exclude_missed": ("exclude_missed", lambda s: s.lower() in ("1", "true", "yes")),
}


def config_from_sources(file_values: dict[str, str], cli_values: dict) -> SweepConfig:
    """Defaults, overridden by config-file keys, overridden by CLI flags."""
    kwargs = {}
    for key, raw in file_values.items():
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        field, conv = _CONFIG_FIELDS[key]
        kwargs[field] = conv(raw)
    for key, value in cli_values.items():
        if value is None:
            continue
        field, _conv = _CONFIG_FIELDS[key]
        kwargs[field] = value
    return SweepConfig(**kwargs)


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=[MODE_QPSK, MODE_MSK, MODE_AUTO], default=None)
    p.add_argument("--snr-start", type=float, default=None, dest="snr_start")
    p.add_argument("--snr-stop", type=float, default=None, dest="snr_stop")
    p.add_argument("--snr-step", type=float, default=None, dest="snr_step")
    p.add_argument("--packets", type=int, default=None)
    p.add_argument("--payload-bits", type=int, default=None, dest="payload_bits")
    p.add_argument("--sps", type=int, default=None)
    p.add_argument("--nfft", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fd-hz", type=float, default=None, dest="fd_hz")
    p.add_argument("--theta-rad", type=float, default=None, dest="theta_rad")
    p.add_argument("--tau-samples", type=float, default=None, dest="tau_samples")
    p.add_argument("--match-threshold", type=int, default=None, dest="match_threshold")
    p.add_argument("--exclude-missed", action="store_const", const=True, default=None,
                   dest="exclude_missed")
    p.add_argument("--config", default=None, help="key = value file; flags override it")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--workers", type=int, default=0, help="process count for fixed-mode sweeps")


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    file_values = parse_config(args.config) if args.config else {}
    cli_values = {key: getattr(args, key, None) for key in _CONFIG_FIELDS}
    return config_from_sources(file_values, cli_values)


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    result = ber_sweep(cfg, workers=args.workers)
    text = sweep_csv(result)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decode(args) -> int:
    buf = iq_import(args.iq_file)
    rxcfg = RxConfig(payload_bits=args.payload_bits, n_fft=args.nfft)
    chain = rx_msk if args.mode == MODE_MSK else rx_qpsk
    report = chain.demodulate(buf, rxcfg)
    if not report.frame_found:
        print("no frame found")
        return 1
    bits = "".join(str(b) for b in report.payload_bits)
    print(f"mode: {report.mode}")
    print(f"frame_start_sample: {report.frame_start}")
    print(f"preamble_match: {report.preamble_match_count}/256")
    print(f"payload_bits: {bits}")
    return 0


def _cmd_complexity(args) -> int:
    params = _complexity_params(args.sps, args.payload_bits, args.nfft)
    print(msk_op_counts(params).as_text())
    print()
    print(qpsk_op_counts(params).as_text())
    return 0


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(7)
    ok = True
    for mode, chain in ((MODE_QPSK, rx_qpsk), (MODE_MSK, rx_msk)):
        payload = rng.integers(0, 2, 200).astype(np.uint8)
        buf = modulate(phy_frames.build_frame(payload))
        report = chain.demodulate(buf, RxConfig())
        good = report.frame_found and np.array_equal(report.payload_bits, payload)
        print(f"{mode} loopback: {'ok' if good else 'FAILED'}")
        ok = ok and good
    params = ComplexityParams()
    cm = (
        msk_op_counts(params).additions_total == 29_793
        and qpsk_op_counts(params).additions_total == 104_617
    )
    print(f"complexity closed forms: {'ok' if cm else 'FAILED'}")
    return 0 if (ok and cm) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmodem",
        description="Dual-mode IEEE 802.15.4 baseband modem simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo BER/PER sweep over SNR")
    _add_sweep_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dec = sub.add_parser("decode", help="decode frames from a raw IQ capture")
    p_dec.add_argument("iq_file")
    p_dec.add_argument("--mode", choices=[MODE_QPSK, MODE_MSK], default=MODE_QPSK)
    p_dec.add_argument("--payload-bits", type=int, default=200, dest="payload_bits")
    p_dec.add_argument("--nfft", type=int, default=2048)
    p_dec.set_defaults(func=_cmd_decode)

    p_cx = sub.add_parser("complexity", help="print per-stage operation counts")
    p_cx.add_argument("--sps", type=int, default=8)
    p_cx.add_argument("--payload-bits", type=int, default=200, dest="payload_bits")
    p_cx.add_argument("--nfft", type=int, default=2048)
    p_cx.set_defaults(func=_cmd_complexity)

    p_st = sub.add_parser("selftest", help="quick loopback and arithmetic checks")
    p_st.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
