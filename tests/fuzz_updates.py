"""Update fuzz: 160 seeded runs of deletions and contractions.

    python -m tests.fuzz_updates

Run from the root of a checkout; pytest does not collect this file.
Every run replays ``_replay_case(seed, n)`` of ``tests/test_spqr.py``
for n in 20, 24, 32 and 40 and seed in 0-39: up to 25 ops, each one
keeping one loop-free biconnected block of at least three edges.  After
each op the outcome must be ``intact``, ``check()`` must pass and the
tree must equal the oracle's.  Every failing run is printed as
``n seed step error``, and the exit status is 1 if any run failed.  It
takes about two minutes on one core.
"""

from __future__ import annotations

import sys
from pathlib import Path

# the package's source directory, as pytest's ``pythonpath`` setting
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planarconn.spqr import build_spqr, contract_edge, delete_edge

from .test_spqr import _replay_case

SIZES = (20, 24, 32, 40)
SEEDS = range(40)


def first_failure(n: int, seed: int) -> tuple[int, str] | None:
    """The first failing step of one run and its error, or None."""
    g, ops, wants = _replay_case(seed, n)
    tree = build_spqr(g)
    for step, ((op, e), want) in enumerate(zip(ops, wants)):
        try:
            log = (delete_edge if op == "d" else contract_edge)(tree, e)
            assert log.kind == "intact", f"outcome {log.kind}"
            tree = log.tree
            tree.check()
            assert tree.serialize() == want, "tree differs from the oracle's"
        except Exception as ex:
            return step, f"{type(ex).__name__}: {ex}"
    return None


def main() -> int:
    failed = 0
    for n in SIZES:
        for seed in SEEDS:
            res = first_failure(n, seed)
            if res is not None:
                failed += 1
                print(n, seed, *res, flush=True)
    print(f"{failed} of {len(SIZES) * len(SEEDS)} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
