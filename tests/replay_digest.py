"""Replay digest: one line that says whether a change kept the trees.

    python -m tests.replay_digest

Run from the root of a checkout; pytest does not collect this file.
It replays the 24 fixtures of ``perfbench/corpus`` through
``perfbench/harness.replay``, which compares the trees after every op
with the fixture's digests, and prints the number of per-op records
(the builds included), how many failed, the summed ``parent_changes``
and ``split_edges`` counters and a sha256 prefix over every record's
graph, op index, op, node kind hit, outcome and failure, in fixture
order.  ``parent_changes`` counts the parent pointers rewritten on
nodes that stay in a tree; a node that leaves is not counted.  Two
checkouts that print the same line made the same trees, reached them
through the same node kinds and outcomes and counted the same tree
work.  It only reads from ``perfbench``; the exit status is
1 if any op failed.  It takes under ten seconds.
"""

from __future__ import annotations

import hashlib
import sys

from perfbench import harness


def main() -> int:
    mods, _shim = harness.load_program()
    h = hashlib.sha256()
    records = failed = parent_changes = split_edges = 0
    for kind, n, seed in harness.pool_entries():
        name = harness.graph_name(kind, n, seed)
        res = harness.replay(mods, harness.read_graph(mods["embed"], name),
                             harness.read_sequence(name), harness.Clock())
        for r in res.records:
            h.update(repr((r.graph, r.index, r.op, r.hit, r.outcome,
                           r.failure)).encode())
            failed += bool(r.failure)
        records += len(res.records)
        parent_changes += res.parent_changes
        split_edges += res.split_edges
    print(f"{records} records, {failed} failed, parent_changes "
          f"{parent_changes}, split_edges {split_edges}, "
          f"digest {h.hexdigest()[:16]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
