"""Update scaling: time per op as the graph doubles, family by family.

    python -m tests.scale_updates

Run from the root of a checkout; pytest does not collect this file.
Each family is run for k = 100, 200, 400 and 800:

- the ladder ``grid(2, k)``.  Deleting its inner rungs left to right
  dissolves one P node per op and merges the S node that keeps growing
  with the next square, so an update that costs the merged skeleton's
  size adds up to Theta(k^2);
- the chain ``k4_chain(k)`` of k K4s glued along edges.  Deleting its
  seams left to right dissolves one two-edge P node between two R
  nodes per op, which are then linked directly and stay apart.

For each k it prints the edge count m, the fastest and the slowest of
three passes in microseconds per op, the ``EmbeddedMultigraph.build``
calls made inside the updates of one pass and the ratio of the fastest
pass to the fastest at k / 2.  An update cost that grows with the block
doubles per doubling.  A row is marked ``<-`` only when its fastest
pass is above 1.6 times the slowest pass at k / 2, so that a spread
between repeats, which on a shared host can reach 2x, does not mark
it.  Every final tree then goes through ``check()``, outside the
timing, and the exit status is 1 if any check failed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# the package's source directory, as pytest's ``pythonpath`` setting
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planarconn.embed import EmbeddedMultigraph
from planarconn.spqr import build_spqr, delete_edge

from .graphs import grid, inner_rungs, k4_chain

SIZES = (100, 200, 400, 800)
REPEATS = 3
RATIO_MARK = 1.6


def ladder(k: int) -> tuple[EmbeddedMultigraph, list[int]]:
    g = grid(2, k)
    return g, inner_rungs(g, k)


def chain(k: int) -> tuple[EmbeddedMultigraph, list[int]]:
    return k4_chain(k), list(range(1, k))


FAMILIES = (("ladder grid(2, k), inner rungs deleted in order", ladder),
            ("chain of k K4s glued along edges, seams deleted in order",
             chain))


def update_pass(family, k: int) -> tuple[int, float, int, object]:
    """Delete the family's edges in order: the edge count, seconds per
    op, ``build`` calls during the updates and the final tree."""
    g, ops = family(k)
    tree = build_spqr(g)
    saved = EmbeddedMultigraph.__dict__["build"]
    build = saved.__func__
    calls = 0

    def counting_build(cls, *args):
        nonlocal calls
        calls += 1
        return build(cls, *args)

    EmbeddedMultigraph.build = classmethod(counting_build)
    try:
        t0 = time.perf_counter()
        for e in ops:
            tree = delete_edge(tree, e).tree
        secs = time.perf_counter() - t0
    finally:
        EmbeddedMultigraph.build = saved
    return g.n_edges, secs / len(ops), calls, tree


def main() -> int:
    failed = 0
    for title, family in FAMILIES:
        print(title)
        print(f"{'k':>5} {'m':>6} {'us_min':>8} {'us_max':>8} {'builds':>7} "
              f"{'ratio':>6}")
        prev = None
        for k in SIZES:
            runs = [update_pass(family, k) for _ in range(REPEATS)]
            secs = min(s for _, s, _, _ in runs)
            slowest = max(s for _, s, _, _ in runs)
            m, _, calls, tree = runs[-1]
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
            print(f"{k:>5} {m:>6} {secs * 1e6:>8.1f} {slowest * 1e6:>8.1f} "
                  f"{calls:>7} {note}", flush=True)
            prev = secs, slowest
    if failed:
        print(f"{failed} trees failed check()")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
