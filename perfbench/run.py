"""Sweep benchmark of the dualmodem simulator.

    python3 perfbench/run.py --workload qpsk-clean --seed 0 --seconds 20 --trace 0

Run from a checkout: the program is imported from `src/` next to this
directory.  The seed becomes the sweep's `master_seed`; the program only sees
the generated `SweepConfig`.  The public `sim_harness.ber_sweep` runs
repeatedly for about --seconds, and every sweep's CSV sha256 is checked
against the reference recorded for the workload and seed.  A seed without a
recorded reference is checked against the `dualmodem sweep` CLI run serially
in a fresh interpreter.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced sweeps and prints the per-layer metrics (see tracer.py).  Lines
starting with '#' are for people; the last line of stdout is one JSON object
with correct, attempted and failed (in packets) and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy

from tracer import Tracer
from workloads import PACKETS_PER_POINT, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
SETUP_RUNS = 7
US = 1e6
# Span store size of a traced run; see tracer.py for why it is fixed.
SPANS_PER_PACKET = 16
MAX_TRACED_SWEEPS = 32


def program_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def load_program():
    """Import the checkout's own `dualmodem`, never an installed copy."""
    if not (SRC / "dualmodem" / "__init__.py").is_file():
        sys.exit(f"run.py: no dualmodem package under {SRC}; run from a dualmodem checkout")
    sys.path.insert(0, str(SRC))
    import dualmodem
    from dualmodem import phy_frames, rx_msk, rx_qpsk, sim_harness

    if Path(dualmodem.__file__).resolve().parent != (SRC / "dualmodem").resolve():
        sys.exit(f"run.py: imported dualmodem from {dualmodem.__file__}, not {SRC}")
    return sim_harness, rx_qpsk, rx_msk, phy_frames


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def cli_reference(workload: Workload, seed: int, packets_per_point: int,
                  serial: bool = True) -> str:
    """sha256 of `dualmodem sweep` for the config, run in a fresh interpreter."""
    if serial:
        workload = replace(workload, workers=0)
    out = subprocess.run(
        [sys.executable, "-m", "dualmodem.sim_harness", *workload.cli_args(seed, packets_per_point)],
        cwd=ROOT,
        env=program_env(),
        capture_output=True,
        check=True,
    )
    return hashlib.sha256(out.stdout).hexdigest()


def reference(workload: Workload, seed: int, packets_per_point: int) -> tuple[str, str]:
    """(sha256, source) of the expected sweep CSV."""
    if packets_per_point == PACKETS_PER_POINT:
        refs = json.loads(REFERENCES.read_text())
        if refs["packets_per_point"] != PACKETS_PER_POINT:
            sys.exit("run.py: references.json was recorded at another packets_per_point")
        stored = refs["sha256"][workload.name].get(str(seed))
        if stored is not None:
            return stored, "stored"
    return cli_reference(workload, seed, packets_per_point), "cli"


@dataclass
class Tally:
    """Packets attempted and failed, and the packets and ber_sweep wall time
    of the sweeps that passed."""

    attempted: int = 0
    failed: int = 0
    sweeps: int = 0
    packets: int = 0
    seconds: float = 0.0

    def rate(self) -> float:
        """Packets per second over all passing sweeps.  On a shared host the
        machine's speed shifts between levels for seconds at a time; the
        pooled rate weighs each level by its time, where a median of a few
        sweeps jumps between levels."""
        return self.packets / self.seconds if self.seconds else 0.0


def timed_sweep(sim, cfg, workers: int, expected: str, tally: Tally):
    """One ber_sweep, timed alone.  All packets of a sweep that raises or
    whose CSV hash differs from `expected` count as failed."""
    packets = cfg.packets_per_point * len(cfg.snr_grid())
    tally.attempted += packets
    t0 = time.perf_counter()
    try:
        result = sim.ber_sweep(cfg, workers)
    except Exception:
        traceback.print_exc()
        tally.failed += packets
        return None
    wall = time.perf_counter() - t0
    if hashlib.sha256(sim.sweep_csv(result).encode()).hexdigest() != expected:
        tally.failed += packets
        return None
    tally.sweeps += 1
    tally.packets += packets
    tally.seconds += wall
    return result


def run_rounds(phases, seconds: float) -> None:
    """Run every phase once per round, until `seconds` is nearer to the time
    already spent than to the time after one more round.  At least one round
    runs, and a run measures `seconds` give or take half a round."""
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for phase in phases:
            phase()
        now = time.perf_counter()
        if now - t0 + (now - r0) / 2 > seconds:
            return


def setup_seconds(workload: Workload, seed: int) -> list[float]:
    """Import-plus-warm-up time in SETUP_RUNS fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name, str(seed)],
            cwd=ROOT,
            env=program_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def peak_rss_mib() -> float:
    """Largest resident set of this process and its finished children (pool workers)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def measure_untraced(program, workload, cfg, seconds, expected):
    sim = program[0]
    tally = Tally()
    run_rounds([lambda: timed_sweep(sim, cfg, workload.workers, expected, tally)], seconds)
    rss = peak_rss_mib()
    setup = setup_seconds(workload, cfg.master_seed)
    print(f"# {tally.sweeps} sweeps passed; setup_s is the median of {len(setup)} interpreters")
    metrics = {
        "packets_per_s": (tally.rate(), "packets/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    return [tally], metrics


# Per chain: the stage functions wrapped inside demodulate, and the
# RuntimeCounters fields reported per call.
CHAIN_LAYERS = {
    "qpsk": (("msk_timing", "rb_carrier_estimate", "compensate", "matched_filter"),
             ("mf_mults", "fft_mults", "frame_sync_mults", "despread_adds")),
    "msk": (("msk_timing", "diff_detect", "detect_chips", "frame_sync_msk"),
            ("diff_mults", "frame_sync_mults")),
}


class LayerProbe:
    """A Tracer on the program's layer boundaries, plus the per-call outcomes
    and RuntimeCounters tallies the per-layer metrics need."""

    def __init__(self, program, capacity: int):
        from dualmodem.complexity_meter import RuntimeCounters

        sim, rx_qpsk, rx_msk, phy_frames = program
        self.tracer = t = Tracer(capacity)
        self.counters = {chain: RuntimeCounters() for chain in CHAIN_LAYERS}
        self.found = dict.fromkeys(CHAIN_LAYERS, 0)
        self.gate_open = 0
        self.samples = 0
        self.switches = 0
        self._gate_min = rx_qpsk.RB_CONFIDENCE_MIN
        t.add(sim, "ber_sweep", "sim_harness.ber_sweep")
        t.add(sim, "run_packet", "sim_harness.run_packet")
        t.add(sim, "channel_apply", "channel_model.apply", after=self._on_channel)
        t.add(sim, "modulate", "tx_oqpsk.modulate")
        t.add(sim, "step_mode", "mode_controller.step_mode", after=self._on_step)
        t.add(phy_frames, "build_frame", "phy_frames.build_frame")
        t.add(phy_frames, "despread_stream", "phy_frames.despread_stream")
        for chain, module in (("qpsk", rx_qpsk), ("msk", rx_msk)):
            for stage in CHAIN_LAYERS[chain][0]:
                t.add(module, stage, f"rx_{chain}.{stage}")
            t.add(module, "demodulate", f"rx_{chain}.demodulate",
                  before=self._with_counter(chain), after=self._on_report)

    def _with_counter(self, chain):
        def before(args, kwargs):
            if len(args) < 3:
                kwargs.setdefault("counter", self.counters[chain])
        return before

    def _on_channel(self, args, buf):
        self.samples += len(buf)

    def _on_step(self, args, state):
        self.switches += state.mode != args[0].mode

    def _on_report(self, args, report):
        self.found[report.mode] += bool(report.frame_found)
        carrier = report.carrier
        self.gate_open += carrier is not None and carrier.peak_to_median >= self._gate_min


def _pct(values, q) -> float:
    """q-th percentile in microseconds; 0 for a layer that never ran."""
    return float(numpy.percentile(values, q)) * US if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def measure_traced(program, workload, cfg, seconds, expected):
    """Traced serial sweeps, alternating with untraced serial sweeps and, for
    a pooled workload, untraced pooled sweeps that count pool starts."""
    from dualmodem.complexity_meter import ComplexityParams, msk_op_counts, qpsk_op_counts

    sim = program[0]
    # Every wrapped layer runs at most once per packet, plus one ber_sweep span.
    sweep_spans = SPANS_PER_PACKET * cfg.packets_per_point * len(cfg.snr_grid()) + 1
    probe = LayerProbe(program, MAX_TRACED_SWEEPS * sweep_spans)
    pools = Tracer(MAX_TRACED_SWEEPS * len(cfg.snr_grid()))
    pools.add(sim, "ProcessPoolExecutor", "sim_harness.pool_start")
    traced, serial, pooled = Tally(), Tally(), Tally()
    traced_points = []

    def traced_phase():
        if probe.tracer.room < sweep_spans:
            return
        with probe.tracer.installed():
            result = timed_sweep(sim, cfg, 0, expected, traced)
        if result is not None:
            traced_points.extend(result.points)

    # Kernel time and minor page faults of the untraced serial sweeps.
    usage = {"minflt": 0, "utime": 0.0, "stime": 0.0}

    def serial_phase():
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        timed_sweep(sim, cfg, 0, expected, serial)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        for key in usage:
            usage[key] += getattr(r1, f"ru_{key}") - getattr(r0, f"ru_{key}")

    def pooled_phase():
        if pools.room < len(cfg.snr_grid()):
            return
        with pools.installed():
            timed_sweep(sim, cfg, workload.workers, expected, pooled)

    phases = [traced_phase, serial_phase]
    if workload.workers > 1:
        phases.append(pooled_phase)
    run_rounds(phases, seconds)

    tr = probe.tracer
    packets = len(tr.durations("sim_harness.run_packet"))
    sweep_time = sum(tr.durations("sim_harness.ber_sweep"))
    model = ComplexityParams(n_sample=2 * cfg.sps, n_bits=cfg.payload_bits, n_fft=cfg.n_fft)
    model_mults = {
        "qpsk": qpsk_op_counts(model).multiplications_total,
        "msk": msk_op_counts(model).multiplications_total,
    }
    parallel = pooled.rate() if workload.workers > 1 else serial.rate()
    m = {}

    def times(name, *quantiles):
        for q in quantiles:
            m[f"{name}.us_p{q}"] = (_pct(tr.durations(name), q), "us")

    times("sim_harness.run_packet", 50, 99)
    m["sim_harness.self_frac"] = (
        _ratio(sweep_time - sum(tr.durations("sim_harness.run_packet")), sweep_time), "ratio")
    m["sim_harness.pool_starts"] = (
        _ratio(len(pools.durations("sim_harness.pool_start")), pooled.sweeps), "count")
    m["sim_harness.parallel_eff"] = (
        _ratio(parallel, max(workload.workers, 1) * serial.rate()), "ratio")
    times("channel_model.apply", 50, 99)
    times("tx_oqpsk.modulate", 50)
    m["tx_oqpsk.samples_per_packet"] = (_ratio(probe.samples, packets), "count")
    times("phy_frames.build_frame", 50)
    times("phy_frames.despread_stream", 50)
    m["phy_frames.despread_stream.calls_per_packet"] = (
        _ratio(len(tr.durations("phy_frames.despread_stream")), packets), "ratio")
    for chain, (stages, tallies) in CHAIN_LAYERS.items():
        layer = f"rx_{chain}"
        calls = len(tr.durations(f"{layer}.demodulate"))
        times(f"{layer}.demodulate", 50, 99)
        if chain == "qpsk":
            m[f"{layer}.demodulate.self_us_p50"] = (
                _pct(tr.self_times(f"{layer}.demodulate"), 50), "us")
        for stage in stages:
            times(f"{layer}.{stage}", 50)
        m[f"{layer}.frame_found_frac"] = (_ratio(probe.found[chain], calls), "ratio")
        if chain == "qpsk":
            m[f"{layer}.carrier_gate_open_frac"] = (_ratio(probe.gate_open, calls), "ratio")
        counter = probe.counters[chain]
        for name in tallies:
            m[f"{layer}.{name}"] = (_ratio(getattr(counter, name), calls), "count")
        m[f"complexity_meter.{chain}.mults_measured_over_model"] = (
            _ratio(counter.to_report().multiplications_total, calls * model_mults[chain]),
            "ratio")
    times("mode_controller.step_mode", 50)
    m["mode_controller.switches_per_point"] = (
        _ratio(probe.switches, len(traced_points)), "count")
    m["mode_controller.msk_frac"] = (
        _ratio(sum(round(p.msk_fraction * p.packets) for p in traced_points), packets), "ratio")
    m["process.minor_faults_per_packet"] = (_ratio(usage["minflt"], serial.attempted), "count")
    m["process.sys_time_frac"] = (
        _ratio(usage["stime"], usage["utime"] + usage["stime"]), "ratio")
    m["trace.packets_per_s"] = (traced.rate(), "packets/s")
    m["trace.untraced_packets_per_s"] = (serial.rate(), "packets/s")
    m["trace.overhead_frac"] = (1.0 - _ratio(traced.rate(), serial.rate()), "ratio")
    print(f"# {traced.sweeps} traced, {serial.sweeps} untraced serial and "
          f"{pooled.sweeps} pooled sweeps passed; {packets} traced packets")
    return [traced, serial, pooled], m


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            packets_per_point: int = PACKETS_PER_POINT) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    program = load_program()
    sim = program[0]
    workload = WORKLOADS[workload_name]
    expected, source = reference(workload, seed, packets_per_point)
    print(f"# machine {json.dumps(machine())}")
    print(f"# workload {workload.name} seed {seed} packets_per_point {packets_per_point} "
          f"workers {workload.workers} reference {source} {expected}")
    cfg = sim.SweepConfig(**workload.config_kwargs(seed, packets_per_point))
    for chain in workload.chains:
        sim.run_packet(cfg, 0.0, 0, 0, chain)
    run = measure_traced if trace else measure_untraced
    tallies, metrics = run(program, workload, cfg, seconds, expected)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"# packets_failed_frac {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
