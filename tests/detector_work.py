"""Detector work: how much the separating-4-cycle detectors do.

    python -m tests.detector_work

Run from the root of a checkout; pytest does not collect this file.
It replays the dense and then the sparse fixtures of
``perfbench/corpus`` through ``perfbench/harness.replay`` and prints
one line per kind:

- ``walks``: calls of ``fourcycle.cycle_is_separating``, the face walk
  that decides whether one 4-cycle separates;
- ``mutations``: calls of ``Detector.insert_edge``, ``contract_edge``
  and ``merge_across``;
- ``renames``: ``rename`` events of ``SeparatorTree.apply_contraction``
  and ``SeparatorTree.apply_retire``, one per separator-tree node that
  relabels the one endpoint it holds;
- ``retired``: calls of ``SeparatorTree.apply_retire``, the merges that
  ``Detector.merge_across`` does by retiring a degree-2 corner in place;
- ``candidates`` and ``lifted``: the growth of ``Detector``'s
  ``candidates_total`` and ``lifted_total`` over the mutations.

The counters come from wrappers put around those functions in the
loaded modules.  It only reads from ``perfbench``; the exit
status is 1 if any op failed.  It takes under ten seconds.
"""

from __future__ import annotations

import sys
from collections import Counter

from perfbench import harness

MUTATIONS = ("insert_edge", "contract_edge", "merge_across")


def _count(mods, work: Counter) -> None:
    """Wrap the counted functions so that they add to ``work``."""
    fourcycle, separators = mods["fourcycle"], mods["separators"]
    Detector, SeparatorTree = fourcycle.Detector, separators.SeparatorTree
    walk = fourcycle.cycle_is_separating
    contraction = SeparatorTree.apply_contraction
    retire = SeparatorTree.apply_retire

    def counted_walk(*args):
        work["walks"] += 1
        return walk(*args)

    def counted_contraction(self, e):
        events = contraction(self, e)
        work["renames"] += sum(ev[0] == "rename" for ev in events)
        return events

    def counted_retire(self, r, x):
        events = retire(self, r, x)
        work["retired"] += 1
        work["renames"] += sum(ev[0] == "rename" for ev in events)
        return events

    def counted_mutation(method):
        def run(self, *args, **kw):
            c0, l0 = self.candidates_total, self.lifted_total
            try:
                return method(self, *args, **kw)
            finally:
                work["mutations"] += 1
                work["candidates"] += self.candidates_total - c0
                work["lifted"] += self.lifted_total - l0
        return run

    fourcycle.cycle_is_separating = counted_walk
    SeparatorTree.apply_contraction = counted_contraction
    SeparatorTree.apply_retire = counted_retire
    for name in MUTATIONS:
        setattr(Detector, name, counted_mutation(getattr(Detector, name)))


def main() -> int:
    mods, _shim = harness.load_program()
    work: Counter = Counter()
    _count(mods, work)
    failed = 0
    for kind in ("dense", "sparse"):
        work.clear()
        for k, n, seed in harness.pool_entries():
            if k != kind:
                continue
            name = harness.graph_name(k, n, seed)
            res = harness.replay(
                mods, harness.read_graph(mods["embed"], name),
                harness.read_sequence(name), harness.Clock())
            failed += sum(bool(r.failure) for r in res.records)
        print(f"{kind}: walks {work['walks']}, mutations "
              f"{work['mutations']}, renames {work['renames']}, "
              f"retired {work['retired']}, "
              f"candidates {work['candidates']}, lifted {work['lifted']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
