"""Detector work: how much the separating-4-cycle detectors do.

    python -m tests.detector_work

Run from the root of a checkout; pytest does not collect this file.
It replays the dense and then the sparse fixtures of
``perfbench/corpus`` through ``perfbench/harness.replay`` and prints
one line per kind:

- ``walks``: calls of ``fourcycle.cycle_is_separating``, the face walk
  that decides whether one 4-cycle separates, counted apart inside
  ``spqr.build_spqr`` (``build``; a detector walks nothing when built
  and ``spqr`` queries none it has just built) and in the updates;
- ``mutations``: calls of ``Detector.insert_edge``, ``contract_edge``
  and ``merge_across``;
- ``renames``: ``rename`` events of ``SeparatorTree.apply_contraction``
  and ``SeparatorTree.apply_merge``, one per separator-tree node that
  relabels the one endpoint it holds;
- ``in-place merges``: calls of ``SeparatorTree.apply_merge``, the
  merges that ``Detector.merge_across`` does in place across a quad of
  four distinct corners, split by the degree of the endpoint that
  retires (2, or more);
- ``diagonal merges``: the other calls of ``Detector.merge_across``,
  which insert a diagonal, contract it and quasi-simplify; no R
  surgery makes one;
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
    fourcycle, separators, spqr = (mods["fourcycle"], mods["separators"],
                                   mods["spqr"])
    Detector, SeparatorTree = fourcycle.Detector, separators.SeparatorTree
    walk = fourcycle.cycle_is_separating
    build = spqr.build_spqr
    contraction = SeparatorTree.apply_contraction
    merge = SeparatorTree.apply_merge

    building = False

    def counted_build(g):
        nonlocal building
        building = True
        try:
            return build(g)
        finally:
            building = False

    def counted_walk(*args):
        work["build walks" if building else "walks"] += 1
        return walk(*args)

    def counted_contraction(self, e):
        events = contraction(self, e)
        work["renames"] += sum(ev[0] == "rename" for ev in events)
        return events

    def counted_merge(self, u, w, *corners):
        h = self.root.graph
        r = u + w - separators.merge_survivor(h, u, w)
        work["in-place 2" if h.degree(r) == 2 else "in-place >2"] += 1
        events = merge(self, u, w, *corners)
        work["renames"] += sum(ev[0] == "rename" for ev in events)
        return events

    def counted_mutation(method):
        def run(self, *args, **kw):
            c0, l0 = self.candidates_total, self.lifted_total
            try:
                return method(self, *args, **kw)
            finally:
                work["mutations"] += 1
                work[method.__name__] += 1
                work["candidates"] += self.candidates_total - c0
                work["lifted"] += self.lifted_total - l0
        return run

    spqr.build_spqr = counted_build
    fourcycle.cycle_is_separating = counted_walk
    SeparatorTree.apply_contraction = counted_contraction
    SeparatorTree.apply_merge = counted_merge
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
        in_place = work["in-place 2"] + work["in-place >2"]
        print(f"{kind}: walks build {work['build walks']}, updates "
              f"{work['walks']}, mutations "
              f"{work['mutations']}, renames {work['renames']}, "
              f"in-place merges {in_place} (degree 2: "
              f"{work['in-place 2']}, more: {work['in-place >2']}), "
              f"diagonal merges {work['merge_across'] - in_place}, "
              f"candidates {work['candidates']}, lifted {work['lifted']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
