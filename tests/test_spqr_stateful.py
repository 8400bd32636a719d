"""Stateful fuzz of SPQR-tree maintenance against the oracle.

A state machine keeps every live block of a random plane graph with
its SPQR-tree and deletes or contracts real edges of any of them, so it
also reaches the outcomes that break a block: "path" (an S deletion),
"star" (a P contraction) and "pair" (two edges left).  After each step
the blocks an update reports must be the blocks of the graph, each
block's tree must pass ``check()`` and equal the oracle's, and every
node the update counted as re-parented must be in one of those trees.
Each block also carries the SPQR-tree of its own dual, which takes the
swapped op, a contraction for a deletion and the other way round: the
two outcomes must match, block by block, up to swapping S and P (see
``test_duality.py``).  A contraction renames the retired vertex in the
other blocks holding it, as a block-cut layer would; shapes carry no
vertex labels, so only the primal trees are renamed.  The run is
derandomized and keeps no example database, so one checkout repeats it
exactly; hypothesis also draws constants from the source files, so an
edit elsewhere can change the examples.  ``conftest.py`` keeps
hypothesis's storage out of the checkout.

None of the machine's examples retires a label that another live block
holds, so ``test_rename_in_block_follows_a_retired_cut_vertex`` makes
that rename deterministically, through an R node and into one.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from planarconn import spqr
from planarconn.embed import edge_of, rev
from planarconn.generators import random_planar
from planarconn.oracle import canonical_spqr

from .test_duality import outcome, real_edges, shape, trees_by_edges
from .test_spqr import parent_moves


def _blocks(g) -> list[frozenset[int]]:
    """The edge sets of g's blocks: lowpoint search with an edge stack.
    A loop is a block of its own."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    out = [frozenset([e]) for e in g.edge_ids() if g.is_loop(e)]

    def search(v: int, via: int | None) -> None:
        index[v] = low[v] = len(index)
        for d in g.rotation(v):
            e = edge_of(d)
            w = g.vertex_of_dart(rev(d))
            if e == via or w == v:
                continue
            if w not in index:
                stack.append(e)
                search(w, e)
                low[v] = min(low[v], low[w])
                if low[w] >= index[v]:
                    block = set()
                    while not block or f != e:
                        f = stack.pop()
                        block.add(f)
                    out.append(frozenset(block))
            elif index[w] < index[v]:
                stack.append(e)
                low[v] = min(low[v], index[w])

    for v in g.vertices():
        if v not in index:
            search(v, None)
    return out


def _edge_subgraph(g, edges):
    """g restricted to ``edges`` and their ends, embedding kept."""
    h = g.copy()
    for e in list(h.edge_ids()):
        if e not in edges:
            h.delete_edge(e)
    for v in [v for v in h.vertices() if h.degree(v) == 0]:
        h.delete_vertex(v)
    return h


class SpqrMachine(RuleBasedStateMachine):
    """Live blocks as ``[graph, tree, the oracle's serialization, the
    tree of the graph's dual]``."""

    @initialize(n=st.integers(12, 24), seed=st.integers(0, 999))
    def build(self, n, seed):
        g = random_planar(n, seed)
        self.blocks = [[g, spqr.build_spqr(g), canonical_spqr(g),
                        spqr.build_spqr(g.dual()[0])]]

    @rule(data=st.data(), op=st.sampled_from("dc"))
    def update(self, data, op):
        # no precondition: rules a precondition disables are filtered
        # out of the draw, which fails hypothesis's filter health check
        if not self.blocks:
            return  # every block fell apart into blocks of < 3 edges
        # largest first: draws lean to small indices, and large blocks
        # hold the R nodes
        self.blocks.sort(key=lambda b: -b[0].n_edges)
        i = data.draw(st.integers(0, len(self.blocks) - 1), label="block")
        g, tree, _, dual = self.blocks.pop(i)
        e = data.draw(st.sampled_from(sorted(g.edge_ids())), label="edge")
        h = g.copy()
        with parent_moves() as moved:
            if op == "d":
                h.delete_edge(e)
                log = spqr.delete_edge(tree, e)
            else:
                h.contract_edge(e)
                log = spqr.contract_edge(tree, e)
        dlog = (spqr.contract_edge if op == "d" else spqr.delete_edge)(dual, e)
        assert outcome(log) == outcome(dlog, True)
        duals = trees_by_edges(dlog)
        if log.kind == "intact":
            parts = [(log.tree, real_edges(log.tree))]
        elif log.kind == "pair":
            assert h.n_edges == 2
            assert log.pair_ends == tuple(sorted(h.vertices()))
            parts = [(None, frozenset(log.pair_edges))]
        else:
            assert log.kind == ("path" if op == "d" else "star")
            parts = [(p.tree, real_edges(p.tree) if p.tree
                      else frozenset(p.edges)) for p in log.pieces]
        assert sorted(map(sorted, (es for _t, es in parts))) == \
            sorted(map(sorted, _blocks(h)))
        assert set(moved) <= {x for t, _es in parts if t for x in t.nodes()}
        for t, es in parts:
            if t is None:
                assert len(es) < 3
                continue
            t.check()
            sub = _edge_subgraph(h, es)
            want = canonical_spqr(sub)
            assert t.serialize() == want
            self.blocks.append([sub, t, want, duals[real_edges(t)]])
        if op == "c":
            self._rename(log.retired_vertex, log.merged_vertex)

    def _rename(self, dying, keep):
        # the blocks just made hold ``keep`` only: they come from h
        for block in self.blocks:
            g, t, _, _ = block
            if not g.has_vertex(dying):
                continue
            node = next(x for x in t.nodes() if x.graph.has_vertex(dying))
            spqr.rename_vertex_in_block(t, node, dying, keep)
            g.rename_vertex(dying, keep)
            block[2] = canonical_spqr(g)

    @invariant()
    def every_block_matches_oracle(self):
        for _g, t, want, dual in self.blocks:
            t.check()
            assert t.serialize() == want
            assert shape(t) == shape(dual, True)


SpqrMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=20, derandomize=True,
    database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestSpqrMachine = SpqrMachine.TestCase


def _retire_a_cut_vertex(seed):
    """Split ``random_planar(40, seed, 12)`` into a path by deleting a
    real S edge, then contract a real edge of one piece at a cut vertex
    whose label retires while an R node of another piece's tree holds
    it: the graph after both ops, the other pieces' trees, and the
    retired and surviving labels."""
    g = random_planar(40, seed, max_face_degree=12)
    for e in [e for x in spqr.build_spqr(g).nodes() if x.kind == "S"
              for e in x.real_ids()]:
        log = spqr.delete_edge(spqr.build_spqr(g), e)
        trees = [p.tree for p in log.pieces if p.tree]
        for a in trees:
            for f in real_edges(a):
                v = max(a.node_of_edge[f].graph.endpoints(f))
                others = [t for t in trees if t is not a]
                if any(y.kind == "R" and y.graph.has_vertex(v)
                       for t in others for y in t.nodes()):
                    clog = spqr.contract_edge(a, f)
                    assert clog.retired_vertex == v
                    h = g.copy()
                    h.delete_edge(e)
                    h.contract_edge(f)
                    return h, others, v, clog.merged_vertex
    raise AssertionError("no cut vertex retires that an R node holds")


@pytest.mark.parametrize("entry", ["R", "S"])
def test_rename_in_block_follows_a_retired_cut_vertex(entry):
    # seed 12's retired label lies on an S, an R and two more S nodes of
    # one other piece: entered at its R node, or at an S node from
    # which the cascade reaches the R node
    h, others, dying, keep = _retire_a_cut_vertex(12)
    kinds = []
    for t in others:
        holders = [y for y in t.nodes() if y.graph.has_vertex(dying)]
        if not holders:
            continue
        kinds += [y.kind for y in holders]
        node = next((y for y in holders if y.kind == entry), holders[0])
        before = t.renames
        spqr.rename_vertex_in_block(t, node, dying, keep)
        assert t.renames == before + len(holders)
        assert not any(y.graph.has_vertex(dying) for y in t.nodes())
        t.check()
        assert t.serialize() == canonical_spqr(
            _edge_subgraph(h, set(real_edges(t))))
    assert "R" in kinds and "S" in kinds
