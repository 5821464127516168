"""Workload table of the sweep benchmark.

Each workload is one `SweepConfig` plus a worker count.  The table imports
nothing from the program, so a fresh interpreter can read it before timing
the program's own import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The -10..+10 dB grid crosses the qpsk carrier-gate threshold and the msk
# detection knee, so both chains do a mix of early exits and full decodes.
BASE = {"snr_start_db": -10.0, "snr_stop_db": 10.0, "snr_step_db": 2.0,
        "payload_bits": 200, "sps": 8, "n_fft": 2048}

# ber_sweep maps each SNR point's packets with chunksize=64, so 128 packets
# per point is the smallest size at which both workers of a 2-process pool
# get a chunk.  Every workload uses it so qpsk-clean-w2 differs from
# qpsk-clean only in the worker count.
PACKETS_PER_POINT = 128

# `dualmodem sweep` flag for each SweepConfig field the table sets.
_CLI_FLAGS = {
    "snr_start_db": "--snr-start",
    "snr_stop_db": "--snr-stop",
    "snr_step_db": "--snr-step",
    "packets_per_point": "--packets",
    "payload_bits": "--payload-bits",
    "sps": "--sps",
    "n_fft": "--nfft",
    "master_seed": "--seed",
    "mode": "--mode",
    "f_d_hz": "--fd-hz",
    "tau_samples": "--tau-samples",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    workers: int = 0
    impairments: dict = field(default_factory=dict)

    @property
    def chains(self) -> tuple[str, ...]:
        """Receiver chains the workload can route packets through."""
        return ("qpsk", "msk") if self.mode == "auto" else (self.mode,)

    def config_kwargs(self, seed: int, packets_per_point: int = PACKETS_PER_POINT) -> dict:
        """SweepConfig fields; the seed is the only input that varies."""
        return {
            **BASE,
            **self.impairments,
            "mode": self.mode,
            "packets_per_point": packets_per_point,
            "master_seed": seed,
        }

    def cli_args(self, seed: int, packets_per_point: int = PACKETS_PER_POINT) -> list[str]:
        """Arguments of the equivalent `dualmodem sweep` command."""
        args = ["sweep"]
        for key, value in self.config_kwargs(seed, packets_per_point).items():
            args += [_CLI_FLAGS[key], str(value)]
        if self.workers:
            args += ["--workers", str(self.workers)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qpsk-clean",
            "coherent chain at f_d=0, no lead, serial: timing, FFT carrier, "
            "compensation, matched filter and sync all run, so rx_qpsk changes show here",
            mode="qpsk",
        ),
        Workload(
            "msk-clean",
            "non-coherent chain, same inputs: rx_qpsk does no work and channel plus tx "
            "carry over half the time, so a qpsk-only change must leave it unchanged",
            mode="msk",
        ),
        Workload(
            "auto-offset",
            "controller switches chains per packet at f_d=50 kHz with 1600 samples of "
            "lead: the channel must rotate and shift, and qpsk misses frames up to 0 dB",
            mode="auto",
            impairments={"f_d_hz": 50e3, "tau_samples": 1600.0},
        ),
        Workload(
            "qpsk-clean-w2",
            "qpsk-clean with workers=2, so the process pool (one per SNR point, "
            "chunksize 64) is the only difference",
            mode="qpsk",
            workers=2,
        ),
    )
}
