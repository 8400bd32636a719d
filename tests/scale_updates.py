"""Update scaling: time per op as the graph doubles, family by family.

    python -m tests.scale_updates

Run from the root of a checkout; pytest does not collect this file.
The families:

- the ladder ``grid(2, k)`` for k = 100, 200, 400 and 800.  Deleting
  its inner rungs left to right dissolves one P node per op and merges
  the S node that keeps growing with the next square, so an update that
  costs the merged skeleton's size adds up to Theta(k^2);
- the chain ``k4_chain(k)`` of k K4s glued along edges, for the same
  k.  Deleting its seams left to right dissolves one two-edge P node
  between two R nodes per op, which are then linked directly and stay
  apart;
- the dense ``random_planar(k, 1)`` for k = 200, 400, 800 and 1600,
  with the first ``DENSE_STEPS`` deletions and contractions of
  ``_replay_ops`` in ``tests/test_spqr.py``, each of which keeps one
  block.  Its tree is one large R node with small neighbours, and
  most ops split the R node and keep most of it, so an update that
  walks the whole kept R node grows with k.

For each k it prints the edge count m, the fastest and the slowest of
three passes in microseconds per op, the ``EmbeddedMultigraph.build``
calls made inside the updates of one pass, the ``SpqrTree.set_parent``
calls per op in one pass and the ratio of the fastest pass to the
fastest at the size before.  An update cost that grows with the block
doubles per doubling.  A row is marked ``<-`` only when its fastest
pass is above 1.6 times the slowest pass at the size before, so that a
spread between repeats, which on a shared host can reach 2x, does not
mark it.  Every final tree then goes through ``check()``, outside the
timing, and the exit status is 1 if any check failed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# the package's source directory, as pytest's ``pythonpath`` setting
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planarconn.embed import EmbeddedMultigraph
from planarconn.spqr import SpqrTree, build_spqr, contract_edge, delete_edge

from .graphs import grid, inner_rungs, k4_chain
from .test_spqr import _replay_ops

REPEATS = 3
RATIO_MARK = 1.6
DENSE_STEPS = 100


def ladder(k: int) -> tuple[EmbeddedMultigraph, list[tuple[str, int]]]:
    g = grid(2, k)
    return g, [("d", e) for e in inner_rungs(g, k)]


def chain(k: int) -> tuple[EmbeddedMultigraph, list[tuple[str, int]]]:
    return k4_chain(k), [("d", e) for e in range(1, k)]


def dense(k: int) -> tuple[EmbeddedMultigraph, list[tuple[str, int]]]:
    g, ops, _ = _replay_ops(1, k, DENSE_STEPS)
    return g, list(ops)


FAMILIES = (("ladder grid(2, k), inner rungs deleted in order", ladder,
             (100, 200, 400, 800)),
            ("chain of k K4s glued along edges, seams deleted in order",
             chain, (100, 200, 400, 800)),
            (f"dense random_planar(k, 1), {DENSE_STEPS} ops that keep one "
             "block", dense, (200, 400, 800, 1600)))


def update_pass(g: EmbeddedMultigraph, ops: list[tuple[str, int]]
                ) -> tuple[float, int, int, object]:
    """Run the ops (``d`` deletes, ``c`` contracts) on the tree of g:
    seconds per op, ``build`` calls during the updates, ``set_parent``
    calls during the updates and the final tree."""
    tree = build_spqr(g)
    saved = EmbeddedMultigraph.__dict__["build"]
    build = saved.__func__
    set_parent = SpqrTree.set_parent
    calls = {"build": 0, "set_parent": 0}

    def counting_build(cls, *args):
        calls["build"] += 1
        return build(cls, *args)

    def counting_set_parent(self, node, parent):
        calls["set_parent"] += 1
        set_parent(self, node, parent)

    EmbeddedMultigraph.build = classmethod(counting_build)
    SpqrTree.set_parent = counting_set_parent
    try:
        t0 = time.perf_counter()
        for op, e in ops:
            tree = (delete_edge if op == "d" else contract_edge)(tree, e).tree
        secs = time.perf_counter() - t0
    finally:
        EmbeddedMultigraph.build = saved
        SpqrTree.set_parent = set_parent
    return secs / len(ops), calls["build"], calls["set_parent"], tree


def main() -> int:
    failed = 0
    for title, family, sizes in FAMILIES:
        print(title)
        print(f"{'k':>5} {'m':>6} {'us_min':>8} {'us_max':>8} {'builds':>7} "
              f"{'parents':>8} {'ratio':>6}")
        prev = None
        for k in sizes:
            g, ops = family(k)
            runs = [update_pass(g, ops) for _ in range(REPEATS)]
            secs = min(s for s, _, _, _ in runs)
            slowest = max(s for s, _, _, _ in runs)
            _, calls, parents, tree = runs[-1]
            note = ""
            if prev is not None:
                note = f"{secs / prev[0]:6.2f}"
                if secs > RATIO_MARK * prev[1]:
                    note += " <-"
            try:
                tree.check()
            except AssertionError as ex:
                failed += 1
                note += f" check failed: {ex}"
            print(f"{k:>5} {g.n_edges:>6} {secs * 1e6:>8.1f} "
                  f"{slowest * 1e6:>8.1f} {calls:>7} "
                  f"{parents / len(ops):>8.1f} {note}", flush=True)
            prev = secs, slowest
    if failed:
        print(f"{failed} trees failed check()")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
