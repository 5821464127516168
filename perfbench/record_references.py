"""Record the sweep-CSV sha256 of every workload for the stored seeds.

    python3 perfbench/record_references.py

Each hash is taken from the `dualmodem sweep` CLI in a fresh interpreter,
with the workload's own worker count, and written to references.json.  Run
it only at a commit whose sweep output is known good: the benchmark treats
these hashes as the correct output.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

from run import REFERENCES, cli_reference
from workloads import PACKETS_PER_POINT, WORKLOADS

DEFAULT_SEED = 0
# Kept apart from 0..STORED_SEEDS-1 so a claim can be re-checked on a seed
# it was not tuned against.
HELD_OUT_SEED = 1009
STORED_SEEDS = 32


def main() -> None:
    seeds = [*range(STORED_SEEDS), HELD_OUT_SEED]
    jobs = [(w, s) for w in WORKLOADS.values() for s in seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        hashes = list(pool.map(
            lambda job: cli_reference(*job, PACKETS_PER_POINT, serial=False), jobs))
    table = {name: {} for name in WORKLOADS}
    for (w, s), h in zip(jobs, hashes):
        table[w.name][str(s)] = h
    REFERENCES.write_text(json.dumps({
        "packets_per_point": PACKETS_PER_POINT,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "sha256": table,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
