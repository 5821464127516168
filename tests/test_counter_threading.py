"""Guard: receiver stages are pure functions of their inputs.

Each chain's detector books the stages it ran into its RuntimeCounters, so
only the two demodulators, the pipeline they call (_rxtypes.receive) and
the two detectors it runs take a `counter`.  A stage that booked its own
tally from the inside would need one threaded through every signature
between it and the chain.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dualmodem"

BOOKED_BY = {"rx_qpsk.demodulate", "rx_msk.demodulate", "_rxtypes.receive",
             "rx_qpsk._detect", "rx_msk._detect"}


def _functions(node, prefix):
    """(qualified name, node) of every function and method under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def test_only_the_chains_and_their_tail_take_a_counter():
    takers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn in _functions(tree, path.stem):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if any(p is not None and p.arg == "counter" for p in params):
                takers.add(name)
    assert takers == BOOKED_BY
