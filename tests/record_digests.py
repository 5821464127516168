"""Print the byte-identity digests the tests pin, as the code computes them now.

    PYTHONPATH=src python3 tests/record_digests.py

The 6 sweep-CSV digests of tests/test_sweep_bytes.py (PINNED) and the tally
digest of tests/test_stage_tallies.py (CORPUS_DIGEST), each next to the
value pinned there and marked when it differs.  The configs and the corpus
are imported from those two modules, so a change that moves bytes on purpose
re-pins by pasting the new values.  Serial sweeps only: the pooled cases of
test_sweep_bytes.py must match the serial bytes.
"""

from __future__ import annotations

import hashlib

from dualmodem.sim_harness import SweepConfig, ber_sweep, sweep_csv
from test_stage_tallies import CORPUS_DIGEST, _corpus_rows
from test_sweep_bytes import GRID, PINNED


def _line(name: str, digest: str, pinned: str) -> str:
    return f"{name:22} {digest}" + ("" if digest == pinned else f"  CHANGED (pinned {pinned})")


def main() -> None:
    print("PINNED (tests/test_sweep_bytes.py)")
    for name, (overrides, pinned) in PINNED.items():
        text = sweep_csv(ber_sweep(SweepConfig(**GRID, **overrides)))
        print(_line(name, hashlib.sha256(text.encode()).hexdigest(), pinned))
    print("CORPUS_DIGEST (tests/test_stage_tallies.py)")
    digest = hashlib.sha256(repr(list(_corpus_rows())).encode()).hexdigest()
    print(_line("corpus", digest, CORPUS_DIGEST))


if __name__ == "__main__":
    main()
