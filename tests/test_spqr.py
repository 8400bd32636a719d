"""Tests for the SPQR-tree of a biconnected plane multigraph."""

from __future__ import annotations

import pytest

from planarconn.embed import NotBiconnected, TooFewEdges
from planarconn.generators import random_planar
from planarconn.oracle import canonical_spqr
from planarconn.spqr import build_spqr

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
