"""The sweep benchmark's stored output, checked at its default seed.

perfbench/references.json holds the sweep-CSV sha256 of every workload in
perfbench/workloads.py, and the benchmark counts a sweep whose CSV hashes
otherwise as failed.  This test runs each workload at the default seed, with
its own worker count, and compares.  At a seed with no stored hash the
benchmark compares with perfbench's `cli_reference`, the sha256 of
`dualmodem sweep` stdout, so a second test checks that hash against the
library's CSV.  Both read the files and write none.
"""

import hashlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from dualmodem.sim_harness import SweepConfig, ber_sweep, sweep_csv

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCES = json.loads((BENCH / "references.json").read_text())


def _load_workloads():
    """perfbench/workloads.py as a module, compiled in memory so that no
    bytecode cache is written next to it."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_default_seed_matches_stored_reference(name):
    assert REFERENCES["packets_per_point"] == WORKLOADS.PACKETS_PER_POINT
    seed = REFERENCES["default_seed"]
    workload = WORKLOADS.WORKLOADS[name]
    cfg = SweepConfig(**workload.config_kwargs(seed))
    text = sweep_csv(ber_sweep(cfg, workers=workload.workers))
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCES["sha256"][name][str(seed)]


# No stored hash; a few packets per point keep the interpreters short.
UNSTORED_SEED, FEW_PACKETS = 4242, 3

_CLI_REFERENCE = """
import sys
sys.path.insert(0, sys.argv[1])
import run, workloads
print(run.cli_reference(workloads.WORKLOADS[sys.argv[2]], int(sys.argv[3]), int(sys.argv[4])))
"""


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_cli_reference_hashes_the_library_csv(name):
    assert str(UNSTORED_SEED) not in REFERENCES["sha256"][name]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CLI_REFERENCE, str(BENCH), name, str(UNSTORED_SEED),
         str(FEW_PACKETS)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    cfg = SweepConfig(**WORKLOADS.WORKLOADS[name].config_kwargs(UNSTORED_SEED, FEW_PACKETS))
    text = sweep_csv(ber_sweep(cfg))
    assert proc.stdout.strip() == hashlib.sha256(text.encode()).hexdigest()
