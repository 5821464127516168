"""Self-test of the sweep benchmark at the smallest size (one packet per SNR point).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TIMED_UNITS = {"us", "packets/s"}
# Ratios of wall or kernel times, and page faults: measured, not counted.
MEASURED = {"sim_harness.self_frac", "sim_harness.parallel_eff", "trace.overhead_frac",
            "process.minor_faults_per_packet", "process.sys_time_frac"}


def small(workload, trace, seed=0, packets_per_point=1):
    return run.measure(workload, seed, seconds=0, trace=trace, packets_per_point=packets_per_point)


def layer_attributes():
    program = run.load_program()
    targets = run.LayerProbe(program, 0).tracer.targets
    return {(m.__name__, a): getattr(m, a) for m, a, *_ in targets} | {
        ("sim_harness", "ProcessPoolExecutor"): program[0].ProcessPoolExecutor
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    result = small(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace and workload == "msk-clean":
        qpsk_times = [v["value"] for n, v in result["metrics"].items()
                      if n.startswith("rx_qpsk.") and v["unit"] == "us"]
        assert qpsk_times and not any(qpsk_times)


def test_wrong_reference_is_reported_as_failed(monkeypatch):
    seed0 = run.reference(WORKLOADS["qpsk-clean"], 0, 1)
    monkeypatch.setattr(run, "reference", lambda workload, seed, packets: seed0)
    for trace in (False, True):
        result = small("qpsk-clean", trace, seed=1)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] > 0


def test_traced_counts_repeat_exactly():
    def counts():
        # Four packets per point let the controller reach k_up=3 and switch.
        metrics = small("auto-offset", trace=True, packets_per_point=4)["metrics"]
        return {n: m["value"] for n, m in metrics.items()
                if m["unit"] not in TIMED_UNITS and n not in MEASURED}

    first = counts()
    assert first["mode_controller.switches_per_point"] > 0
    assert first == counts()


def test_runs_leave_wrapped_attributes_untouched():
    before = layer_attributes()
    small("qpsk-clean-w2", trace=False)
    assert layer_attributes() == before
    small("qpsk-clean-w2", trace=True)
    assert layer_attributes() == before


def test_benchmark_json_lists_the_workload_table():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_references_cover_default_and_held_out_seeds():
    refs = json.loads(run.REFERENCES.read_text())
    assert refs["packets_per_point"] == run.PACKETS_PER_POINT
    for name in WORKLOADS:
        table = refs["sha256"][name]
        assert str(refs["default_seed"]) in table and str(refs["held_out_seed"]) in table
    # The pool must not change the CSV: the two qpsk-clean configs hash alike.
    assert refs["sha256"]["qpsk-clean"] == refs["sha256"]["qpsk-clean-w2"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qpsk-clean", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
