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
import contextlib
import ctypes
import itertools
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import phy_frames, rx_msk, rx_qpsk
from ._rxtypes import RxConfig
from .channel_model import ChannelParams, apply as channel_apply, check_offset
from .complexity_meter import ComplexityParams, msk_op_counts, qpsk_op_counts
from .mode_controller import DEFAULT_MATCH_THRESHOLD, MODE_MSK, MODE_QPSK, ModeState, step_mode
from .tx_oqpsk import CHIP_RATE_HZ, DEFAULT_SPS, IqBuffer, check_sps, modulate

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

# The receiver chain behind each fixed mode.
_CHAINS = {MODE_QPSK: rx_qpsk, MODE_MSK: rx_msk}
_MODES = (*_CHAINS, MODE_AUTO)

# An SNR grid spans fewer steps than this: more than any sweep runs, few to build.
MAX_SNR_STEPS = 1_000_000


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep depends on; see the module determinism contract."""

    snr_start_db: float = -20.0
    snr_stop_db: float = 14.0
    snr_step_db: float = 2.0
    packets_per_point: int = 2000
    payload_bits: int = RxConfig.payload_bits
    mode: str = MODE_QPSK
    sps: int = DEFAULT_SPS
    n_fft: int = RxConfig.n_fft
    master_seed: int = 0
    f_d_hz: float = 0.0
    theta_rad: float | None = None
    tau_samples: float = 0.0
    match_threshold: int = DEFAULT_MATCH_THRESHOLD

    def __post_init__(self):
        if not np.isfinite((self.snr_start_db, self.snr_stop_db, self.snr_step_db)).all():
            raise ValueError("snr_start_db, snr_stop_db and snr_step_db must be finite")
        if self.snr_step_db <= 0:
            raise ValueError("snr_step_db must be positive")
        if self.snr_stop_db < self.snr_start_db:
            raise ValueError("snr_stop_db must not lie below snr_start_db")
        if not (self.snr_stop_db - self.snr_start_db) / self.snr_step_db < MAX_SNR_STEPS:
            raise ValueError(f"snr_start_db to snr_stop_db spans {MAX_SNR_STEPS} snr_step_db"
                             " steps or more")
        check_sps(self.sps)
        phy_frames.check_integer(self.packets_per_point, "packets_per_point", 1)
        phy_frames.check_integer(self.master_seed, "master_seed", 0)
        phy_frames.check_integer(self.match_threshold, "match_threshold", 0,
                                 phy_frames.PREAMBLE_CHIPS.size)
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        RxConfig(self.payload_bits, self.n_fft)  # validates the receiver settings
        theta = 0.0 if self.theta_rad is None else self.theta_rad
        ChannelParams(self.f_d_hz, theta, self.tau_samples)  # validates the impairments
        check_offset(self.f_d_hz, CHIP_RATE_HZ)

    def snr_grid(self) -> np.ndarray:
        n = int(np.floor((self.snr_stop_db - self.snr_start_db) / self.snr_step_db + 1e-9)) + 1
        return self.snr_start_db + self.snr_step_db * np.arange(n)


@dataclass(frozen=True)
class PacketRecord:
    """Outcome of one Monte Carlo trial."""

    mode: str
    frame_found: bool
    bit_errors: int
    preamble_match: int


@dataclass(frozen=True)
class SweepPoint:
    snr_db: float
    mode: str
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
    points: tuple[SweepPoint, ...]


def run_packet(
    cfg: SweepConfig, snr_db: float | None, snr_index: int, packet_index: int, mode: str
) -> PacketRecord:
    """One trial: random payload, impaired channel, one receiver chain.

    A missed frame counts every payload bit as an error; that rule keeps the
    BER curve honest at SNRs where synchronization itself fails.
    """
    chain = _CHAINS.get(mode)
    if chain is None:
        raise ValueError(f"a packet runs in mode 'qpsk' or 'msk', not {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, snr_index, packet_index)))
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
    report = chain.demodulate(rx, rxcfg)

    if report.frame_found:
        errors = int(np.count_nonzero(report.payload_bits != payload))
    else:
        errors = cfg.payload_bits
    return PacketRecord(
        mode=mode,
        frame_found=report.frame_found,
        bit_errors=errors,
        preamble_match=int(report.preamble_match_count),
    )


def _complexity_params(cfg: SweepConfig) -> ComplexityParams:
    """The operation-count model of a chain run at these settings."""
    return ComplexityParams(n_sample=2 * cfg.sps, n_bits=cfg.payload_bits, n_fft=cfg.n_fft)


def _aggregate_point(cfg: SweepConfig, snr_db: float, records: list[PacketRecord]) -> SweepPoint:
    params = _complexity_params(cfg)
    per_chain = {MODE_MSK: msk_op_counts(params), MODE_QPSK: qpsk_op_counts(params)}
    packets = len(records)
    detected = sum(r.frame_found for r in records)
    missed = packets - detected
    match_sum = sum(r.preamble_match for r in records)
    n_qpsk = sum(r.mode == MODE_QPSK for r in records)

    bit_errors = sum(r.bit_errors for r in records)
    packet_errors = sum(1 for r in records if r.bit_errors > 0 or not r.frame_found)
    adds = sum(per_chain[r.mode].additions_total for r in records)
    mults = sum(per_chain[r.mode].multiplications_total for r in records)
    return SweepPoint(
        snr_db=float(snr_db),
        mode=cfg.mode,
        packets=packets,
        frames_detected=int(detected),
        bit_errors=int(bit_errors),
        ber=bit_errors / (packets * cfg.payload_bits),
        per=packet_errors / packets,
        mean_preamble_match=match_sum / packets,
        adds_total=int(adds),
        mults_total=int(mults),
        frames_missed=int(missed),
        qpsk_fraction=n_qpsk / packets,
        msk_fraction=(packets - n_qpsk) / packets,
    )


def _sweep_point(cfg: SweepConfig, snr_index: int) -> SweepPoint:
    """Run one grid point's packets in order.  In auto mode the controller
    starts the point from a fresh ModeState, so no point depends on another
    and any process can run it."""
    snr_db = float(cfg.snr_grid()[snr_index])
    state = ModeState() if cfg.mode == MODE_AUTO else None
    records = []
    for p in range(cfg.packets_per_point):
        rec = run_packet(cfg, snr_db, snr_index, p, cfg.mode if state is None else state.mode)
        records.append(rec)
        if state is not None:
            # A missed frame is never good, whatever the threshold.
            state = step_mode(state, rec.frame_found and rec.preamble_match >= cfg.match_threshold)
    return _aggregate_point(cfg, snr_db, records)


def _hold_freed_pages() -> None:
    """Keep freed packet buffers mapped for the rest of the process.

    glibc serves blocks above M_MMAP_THRESHOLD (128 KiB at start) with
    mmap, and trims the heap top once it passes M_TRIM_THRESHOLD, so every
    full-length packet buffer would go back to the kernel when freed and
    fault its pages in again in the next packet.  Setting the mmap
    threshold to glibc's 64-bit maximum, 32 MiB, and the trim threshold to
    twice that keeps each packet's buffers on the heap, where the next
    packet reuses the pages.  Elsewhere than glibc this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD


def ber_sweep(cfg: SweepConfig, workers: int = 0) -> SweepResult:
    """Run the whole SNR grid in any mode, auto included; workers > 1 runs
    the points in a pool of that many processes, but never more than there
    are points or CPUs."""
    phy_frames.check_integer(workers, "workers", 0)
    _hold_freed_pages()
    indices = range(cfg.snr_grid().size)
    if workers > 1:
        # One pool for the whole sweep; map keeps point order.  A fork pool
        # starts all its processes at the first submit.
        with ProcessPoolExecutor(max_workers=min(workers, len(indices), os.cpu_count() or 1),
                                 initializer=_hold_freed_pages) as pool:
            points = tuple(pool.map(_sweep_point, itertools.repeat(cfg), indices))
    else:
        points = tuple(_sweep_point(cfg, i) for i in indices)
    return SweepResult(points=points)


def sweep_csv(result: SweepResult) -> str:
    """Fixed-column CSV, one row per SNR point, floats to 12 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for pt in result.points:
        row = (getattr(pt, column) for column in CSV_COLUMNS)
        lines.append(",".join(format(v, ".12g") if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def iq_export(buf: IqBuffer, path) -> None:
    """Interleaved little-endian float32 I,Q pairs (numpy's "<c8") plus a .meta sidecar."""
    if len(buf) == 0:
        raise ValueError("refusing to export an empty buffer")
    path = str(path)
    buf.samples.astype("<c8").tofile(path)
    with open(path + ".meta", "w", encoding="ascii") as fh:
        fh.write(f"sample_rate_hz = {buf.sample_rate_hz!r}\n")
        fh.write(f"sps = {buf.sps}\n")
        fh.write(f"chip_rate_hz = {buf.chip_rate_hz!r}\n")


def iq_import(path) -> IqBuffer:
    """Inverse of iq_export; refuses empty or odd-length float payloads and
    a sidecar value that is missing, malformed or out of range, or whose
    sample_rate_hz is not sps x chip_rate_hz, naming the sidecar and key."""
    path = str(path)
    raw = np.fromfile(path, dtype="<f4")
    if raw.size == 0:
        raise ValueError(f"{path}: empty IQ file")
    if raw.size % 2:
        raise ValueError(f"{path}: truncated IQ pair")
    meta_path = path + ".meta"
    meta = parse_config(meta_path)

    def read(key, conv):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
        try:
            return conv(meta[key])
        except ValueError as exc:
            raise ValueError(f"{meta_path}: {key} = {meta[key]}: {exc}") from exc

    sps, chip_rate_hz = read("sps", int), read("chip_rate_hz", float)
    try:
        buf = IqBuffer(samples=raw.view("<c8"), sps=sps, chip_rate_hz=chip_rate_hz)
    except ValueError as exc:  # its message names the key
        raise ValueError(f"{meta_path}: {exc}") from exc
    # iq_export writes the rate with repr, so its own sidecars match exactly.
    if read("sample_rate_hz", float) != buf.sample_rate_hz:
        raise ValueError(
            f"{meta_path}: sample_rate_hz = {meta['sample_rate_hz']} is not"
            f" sps x chip_rate_hz = {buf.sample_rate_hz!r}"
        )
    return buf


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


# Every sweep setting: config-file key -> (SweepConfig field, converter of
# its text).  The key is also the CLI flag's dest, and the flag is `--` plus
# the key with '-' for '_' (see _add_config_flags).
_CONFIG_FIELDS = {
    "mode": ("mode", str),
    "snr_start": ("snr_start_db", float),
    "snr_stop": ("snr_stop_db", float),
    "snr_step": ("snr_step_db", float),
    "packets": ("packets_per_point", int),
    "payload_bits": ("payload_bits", int),
    "sps": ("sps", int),
    "nfft": ("n_fft", int),
    "seed": ("master_seed", int),
    "fd_hz": ("f_d_hz", float),
    "theta_rad": ("theta_rad", float),
    "tau_samples": ("tau_samples", float),
    "match_threshold": ("match_threshold", int),
}


def config_from_sources(file_values: dict[str, str], cli_values: dict) -> SweepConfig:
    """Defaults, overridden by config-file keys, overridden by CLI flags."""
    kwargs = {}
    for key, raw in file_values.items():
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        field, conv = _CONFIG_FIELDS[key]
        try:
            kwargs[field] = conv(raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    for key, value in cli_values.items():
        if value is None:
            continue
        field, _conv = _CONFIG_FIELDS[key]
        kwargs[field] = value
    return SweepConfig(**kwargs)


def _add_config_flags(p: argparse.ArgumentParser, keys) -> None:
    """One flag per _CONFIG_FIELDS key.  An absent flag reads None, so that
    it overrides no config-file value and config_from_sources applies the
    default."""
    for key in keys:
        _field, conv = _CONFIG_FIELDS[key]
        p.add_argument("--" + key.replace("_", "-"), type=conv, dest=key,
                       choices=_MODES if key == "mode" else None)


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    config = getattr(args, "config", None)
    file_values = parse_config(config) if config else {}
    cli_values = {key: getattr(args, key, None) for key in _CONFIG_FIELDS}
    return config_from_sources(file_values, cli_values)


@contextlib.contextmanager
def _usage_errors(args):
    """Exit as argparse does on a bad flag (one `prog: error: ...` line, status 2)
    when a check made before the first packet refuses a setting, file or capture,
    or a file cannot be opened."""
    try:
        yield
    except (OSError, ValueError) as exc:
        args.parser.exit(2, f"{args.parser.prog}: error: {exc}\n")


def _cmd_sweep(args) -> int:
    with _usage_errors(args):
        cfg = _config_from_args(args)
        phy_frames.check_integer(args.workers, "workers", 0)
        # Opened, and so created or truncated, before the first packet, as
        # shell redirection would.
        out = (open(args.out, "w", encoding="ascii", newline="") if args.out
               else contextlib.nullcontext(sys.stdout))
    with out as fh:
        fh.write(sweep_csv(ber_sweep(cfg, workers=args.workers)))
    return 0


def _cmd_decode(args) -> int:
    with _usage_errors(args):
        cfg = _config_from_args(args)
        buf = iq_import(args.iq_file)
    report = _CHAINS[cfg.mode].demodulate(buf, RxConfig(cfg.payload_bits, cfg.n_fft))
    if not report.frame_found:
        print("no frame found")
        return 1
    bits = "".join(str(b) for b in report.payload_bits)
    print(f"mode: {report.mode}")
    print(f"frame_start_sample: {report.frame_start}")
    print(f"preamble_match: {report.preamble_match_count}/{phy_frames.PREAMBLE_CHIPS.size}")
    print(f"payload_bits: {bits}")
    return 0


def _cmd_complexity(args) -> int:
    with _usage_errors(args):
        params = _complexity_params(_config_from_args(args))
    print(msk_op_counts(params).as_text())
    print()
    print(qpsk_op_counts(params).as_text())
    return 0


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(7)
    ok = True
    # The offset case opens the qpsk carrier gate, so compensation runs.
    cases = [(f"{mode} loopback", chain, ChannelParams()) for mode, chain in _CHAINS.items()]
    cases.append(("qpsk loopback at 50 kHz offset, 1600-sample lead", rx_qpsk,
                  ChannelParams(f_d_hz=50e3, tau_samples=1600)))
    for label, chain, params in cases:
        payload = rng.integers(0, 2, RxConfig.payload_bits).astype(np.uint8)
        buf = channel_apply(modulate(phy_frames.build_frame(payload)), params)
        report = chain.demodulate(buf, RxConfig())
        good = report.frame_found and np.array_equal(report.payload_bits, payload)
        print(f"{label}: {'ok' if good else 'FAILED'}")
        ok = ok and good
    params = ComplexityParams()
    msk, qpsk = msk_op_counts(params), qpsk_op_counts(params)
    cm = (
        (msk.additions_total, msk.multiplications_total) == (29_793, 6_144)
        and (qpsk.additions_total, qpsk.multiplications_total) == (104_617, 40_968)
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
    _add_config_flags(p_sweep, _CONFIG_FIELDS)
    p_sweep.add_argument("--config", default=None, help="key = value file; flags override it")
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.add_argument("--workers", type=int, default=0,
                         help="process count; points run in parallel")
    p_sweep.set_defaults(func=_cmd_sweep, parser=p_sweep)

    p_dec = sub.add_parser("decode", help="decode frames from a raw IQ capture")
    p_dec.add_argument("iq_file")
    p_dec.add_argument("--mode", choices=[MODE_QPSK, MODE_MSK], default=MODE_QPSK)
    _add_config_flags(p_dec, ("payload_bits", "nfft"))
    p_dec.set_defaults(func=_cmd_decode, parser=p_dec)

    p_cx = sub.add_parser("complexity", help="print per-stage operation counts")
    _add_config_flags(p_cx, ("sps", "payload_bits", "nfft"))
    p_cx.set_defaults(func=_cmd_complexity, parser=p_cx)

    p_st = sub.add_parser("selftest", help="quick loopback and arithmetic checks")
    p_st.set_defaults(func=_cmd_selftest, parser=p_st)
    return parser


def main(argv=None) -> int:
    # An unknown flag is refused by its command's parser, as a bad setting is.
    args, unknown = build_parser().parse_known_args(argv)
    with _usage_errors(args):
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
