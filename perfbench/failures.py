"""Record every op of the fixture corpus that the program gets wrong.

    python3 perfbench/failures.py

Replays each fixture ``REPEATS`` times and writes the union of the ops
that failed to ``corpus/known_failures.json``, one entry per op:
workload, graph, op index (-1 is the initial build), op, kind of node
hit, the reason and in how many replays it failed.  ``spqr`` iterates
sets of objects hashed by identity, so a few ops fail in some replays
only; the repeats catch those.  These are the concrete targets for
making the decremental SPQR-tree correct, and ``run.py`` counts any
other failed op as a new one.
"""

from __future__ import annotations

import json

import harness

REPEATS = 3


def main() -> None:
    mods, _shim = harness.load_program()
    found: dict = {}
    for kind, n, seed in harness.pool_entries():
        name = harness.graph_name(kind, n, seed)
        g = harness.read_graph(mods["embed"], name)
        seq = harness.read_sequence(name)
        for _ in range(REPEATS):
            for r in harness.replay(mods, g, seq, harness.Clock()).records:
                if r.failure:
                    entry = found.setdefault((name, r.index), {
                        "workload": kind, "graph": name, "op_index": r.index,
                        "op": r.op, "hit": r.hit, "reason": r.failure,
                        "replays_failed": 0})
                    entry["replays_failed"] += 1
        for (graph, _i), entry in sorted(found.items()):
            if graph == name:
                print(json.dumps(entry), flush=True)
    harness.KNOWN_FAILURES.write_text(json.dumps(
        {"replays": REPEATS, "failures": [found[k] for k in sorted(found)]},
        indent=1) + "\n")


if __name__ == "__main__":
    main()
