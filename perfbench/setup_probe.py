"""Set-up time of one workload, taken in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Times importing `dualmodem` plus one warm-up packet on each chain the
workload uses, and prints the seconds.  `src/` must be on PYTHONPATH.
"""

import sys
import time

from workloads import WORKLOADS


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    t0 = time.perf_counter()
    from dualmodem import sim_harness

    cfg = sim_harness.SweepConfig(**workload.config_kwargs(seed))
    for chain in workload.chains:
        sim_harness.run_packet(cfg, 0.0, 0, 0, chain)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
