"""Update fuzz: 160 seeded runs of deletions and contractions checked
against the oracle, and 40 larger ones checked without it.

    python -m tests.fuzz_updates

Run from the root of a checkout; pytest does not collect this file.
Every run replays the ops of ``_replay_ops(seed, n)`` of
``tests/test_spqr.py``: up to 25 ops, each one keeping one loop-free
biconnected block of at least three edges.  Each run is replayed on
two sides: the primal side on the tree of the start graph, and the dual
side on the tree of its dual, with each op swapped, a contraction for a
deletion and the other way round.  After each op the outcome must be
``intact``, ``check()`` must pass on both sides, and the dual tree must
have the primal tree's shape with S and P swapped (see
``test_duality.py``).

The oracle leg runs n in 20, 24, 32 and 40 and seed in 0-39, and the
primal tree must also equal the oracle's after each op.  It takes a
little over two minutes on one core, nearly all of it in the oracle.
The large leg runs n in 200 and 400 and seed in 0-19 with no oracle.
At these sizes the vertex-face graphs of the R nodes pass
``separators.N0`` vertices, so their detectors' separator trees have
internal nodes that every merge walks through.  It takes about a
minute.

Every failing run is printed as ``n seed step side error``, and the
exit status is 1 if any run failed.
"""

from __future__ import annotations

import sys
from pathlib import Path

# the package's source directory, as pytest's ``pythonpath`` setting
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planarconn.spqr import build_spqr, contract_edge, delete_edge

from .test_duality import shape
from .test_spqr import _replay_case, _replay_ops

# (sizes, seeds, whether the oracle checks every tree) per leg
LEGS = (((20, 24, 32, 40), range(40), True),
        ((200, 400), range(20), False))


def first_failure(n: int, seed: int,
                  oracle: bool = True) -> tuple[int, str, str] | None:
    """The first failing step of one run, its side and its error, or
    None.  Without ``oracle`` the primal tree is not compared with the
    oracle's."""
    if oracle:
        g, ops, wants = _replay_case(seed, n)
    else:
        g, ops, _ = _replay_ops(seed, n)
        wants = (None,) * len(ops)
    trees = {"primal": build_spqr(g), "dual": build_spqr(g.dual()[0])}
    for step, ((op, e), want) in enumerate(zip(ops, wants)):
        for side in trees:
            try:
                fn = delete_edge if (op == "d") == (side == "primal") \
                    else contract_edge
                log = fn(trees[side], e)
                assert log.kind == "intact", f"outcome {log.kind}"
                tree = trees[side] = log.tree
                tree.check()
                if side == "primal":
                    assert want is None or tree.serialize() == want, \
                        "tree differs from the oracle's"
                else:
                    assert shape(tree, True) == shape(trees["primal"]), \
                        "tree differs from the primal tree's dual"
            except Exception as ex:
                return step, side, f"{type(ex).__name__}: {ex}"
    return None


def main() -> int:
    failed = runs = 0
    for sizes, seeds, oracle in LEGS:
        for n in sizes:
            for seed in seeds:
                runs += 1
                res = first_failure(n, seed, oracle)
                if res is not None:
                    failed += 1
                    print(n, seed, *res, flush=True)
    print(f"{failed} of {runs} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
