"""Tests for the SPQR-tree of a biconnected plane multigraph."""

from __future__ import annotations

import pytest

from planarconn.embed import (
    NotBiconnected,
    TooFewEdges,
    from_straight_line_drawing,
)
from planarconn.generators import random_planar
from planarconn.oracle import canonical_spqr
from planarconn.spqr import build_spqr, delete_edge

from .graphs import parallel_bundle, path


@pytest.mark.parametrize("n", (12, 16, 20, 24))
def test_build_matches_oracle(n):
    for seed in range(10):
        g = random_planar(n, seed)
        tree = build_spqr(g)
        assert tree.serialize() == canonical_spqr(g)
        tree.check()


def test_build_rejects_bad_input():
    with pytest.raises(NotBiconnected):
        build_spqr(path(4))
    with pytest.raises(TooFewEdges):
        build_spqr(parallel_bundle(2))  # only 2 edges


def test_delete_links_two_r_nodes():
    # two K4s sharing {0, 1} plus the real edge 0-1: deleting that edge
    # dissolves the two-edge P node between the R nodes, which are then
    # linked directly and stay apart
    coords = {0: (0, 1), 1: (0, -1), 2: (-1, 0), 3: (-2, 0), 4: (1, 0),
              5: (2, 0)}
    edges = [(0, 0, 1), (1, 0, 2), (2, 1, 2), (3, 0, 3), (4, 1, 3),
             (5, 2, 3), (6, 0, 4), (7, 1, 4), (8, 0, 5), (9, 1, 5),
             (10, 4, 5)]
    g = from_straight_line_drawing(coords, edges)
    tree = build_spqr(g)
    h = g.copy()
    h.delete_edge(0, report=False)
    log = delete_edge(tree, 0)
    assert log.kind == "intact"
    assert log.tree.serialize() == canonical_spqr(h)
    log.tree.check()
