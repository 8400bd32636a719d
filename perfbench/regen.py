"""Regenerate the benchmark's fixture corpus from the program itself.

    python3 perfbench/regen.py

Writes, under ``perfbench/corpus/``:

* ``graphs/<kind>_n<n>_s<seed>.txt`` -- ``random_planar(n, seed,
  max_face_degree)`` in ``write_graph_text`` form (kind ``dense`` uses
  the default bound 8, kind ``sparse`` uses 24);
* ``ops/<name>.json`` -- the op sequence for that graph and, per op,
  the expected digest of every block it touches.

Op sequences depend on the graph alone (never on what ``spqr``
returns).  Expected digests come from ``oracle.canonical_spqr`` for
blocks of at most ``ORACLE_MAX_EDGES`` edges and otherwise from a
from-scratch ``spqr.build_spqr`` of the benchmark's own copy of the
block; each digest records which reference produced it.

The sizes and seeds in ``harness.POOLS`` are fixed once and never
re-chosen: a fixture that exposes a defect or a regression stays in.
The whole corpus is always rebuilt, so graphs and op files stay in
step.
"""

from __future__ import annotations

import argparse
import json
import random

import harness

ORACLE_MAX_EDGES = 40


def dense_ops(g, rng: random.Random) -> list[list]:
    """Deletions and contractions, each leaving the graph biconnected
    with at least three edges, until no such op remains."""
    g = g.copy()
    ops = []
    while True:
        cands = [(op, e) for e in sorted(g.edge_ids()) for op in "dc"]
        rng.shuffle(cands)
        for op, e in cands:
            if _stays_one_block(g, op, e):
                break
        else:
            return ops
        ops.append([op, e])
        if op == "d":
            g.delete_edge(e, report=False)
        else:
            g.contract_edge(e, report=False)


def _stays_one_block(g, op: str, e: int) -> bool:
    u, w = g.endpoints(e)
    ren = {max(u, w): min(u, w)} if op == "c" else {}
    triples = []
    for f in g.edge_ids():
        if f == e:
            continue
        a, b = g.endpoints(f)
        triples.append((f, ren.get(a, a), ren.get(b, b)))
    blocks = harness.biconnected_blocks(triples)
    return len(blocks) == 1 and len(blocks[0]) >= 3


def sparse_ops(g, rng: random.Random) -> list[list]:
    """Unrestricted: a uniformly random real edge of a live block,
    contracted or deleted at odds 3:1, until no live block remains.
    (At even odds nearly every deletion hits a long S cycle and shatters
    its block, leaving few ops per graph and little S/P surgery.)"""
    model = harness.Model(g)
    ops = []
    while True:
        live = model.live_edges()
        if not live:
            return ops
        e = rng.choice(live)
        op = "c" if rng.random() < 0.75 else "d"
        ops.append([op, e])
        model.apply(op, e)


def reference(mods, model: harness.Model, bid: int) -> list:
    h = model.block_graph(bid)
    if h.n_edges <= ORACLE_MAX_EDGES:
        return [harness.digest(mods["oracle"].canonical_spqr(h)), "oracle"]
    return [harness.digest(mods["spqr"].build_spqr(h).serialize()), "build"]


def expectations(mods, g, ops) -> tuple[list, list]:
    """Expected digests of the initial blocks and, per op, of every
    live block the op produced or renamed, sorted by digest."""
    model = harness.Model(g)
    first = sorted(reference(mods, model, b) for b in model.blocks
                   if model.live(b))
    per_op = []
    for op, e in ops:
        made, renamed, _dying, _keep = model.apply(op, e)
        touched = [b for b in made if model.live(b)] + renamed
        per_op.append(sorted(reference(mods, model, b) for b in touched))
    return first, per_op


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    mods, _shim = harness.load_program()
    gens = harness.load_generators()
    (harness.CORPUS / "graphs").mkdir(parents=True, exist_ok=True)
    (harness.CORPUS / "ops").mkdir(parents=True, exist_ok=True)
    for kind, n, seed in harness.pool_entries():
        name = harness.graph_name(kind, n, seed)
        bound = harness.FACE_DEGREE[kind]
        g = gens.random_planar(n, seed, max_face_degree=bound)
        text = mods["embed"].write_graph_text(g)
        (harness.CORPUS / "graphs" / f"{name}.txt").write_text(text)
        print(f"{name}: {g.n_vertices} vertices, {g.n_edges} edges",
              flush=True)
        rng = random.Random(name)
        ops = dense_ops(g, rng) if kind == "dense" else sparse_ops(g, rng)
        first, per_op = expectations(mods, g, ops)
        doc = {"graph": name, "n": n, "seed": seed, "max_face_degree": bound,
               "oracle_max_edges": ORACLE_MAX_EDGES,
               "build": first, "ops": ops, "expect": per_op}
        (harness.CORPUS / "ops" / f"{name}.json").write_text(
            json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"{name}: {len(ops)} ops", flush=True)


if __name__ == "__main__":
    main()
