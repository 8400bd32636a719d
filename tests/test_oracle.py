"""Tests for the brute-force reference implementations."""

from __future__ import annotations

import itertools
import random

import pytest

from planarconn.embed import edge_of
from planarconn.oracle import (
    NotBiconnected,
    canonical_spqr,
    four_cycle_edges,
    fv_correspondence_check,
    is_biconnected,
    menger_k,
    separating_4cycles,
    separation_classes,
    separation_pairs,
    simple_4cycles,
)

from .graphs import (
    ALL_SMALL,
    cube,
    cycle,
    diamond,
    grid,
    k4,
    k24,
    parallel_bundle,
    path,
    triangle,
    wheel,
)


# ----------------------------------------------------------------------
# menger_k

def test_menger_k4():
    g = k4()
    for u, v in itertools.combinations(range(4), 2):
        assert menger_k(g, u, v, 3)
        assert not menger_k(g, u, v, 4)


def test_menger_c5():
    g = cycle(5)
    for u, v in itertools.combinations(range(5), 2):
        assert menger_k(g, u, v, 2)
        assert not menger_k(g, u, v, 3)


def test_menger_diamond_degree2_pair():
    g = diamond()
    assert not menger_k(g, 1, 2, 3)
    assert menger_k(g, 1, 2, 2)
    assert menger_k(g, 0, 3, 3)


def test_menger_parallel_edges_count():
    g = parallel_bundle(3)
    assert menger_k(g, 0, 1, 3)
    assert not menger_k(g, 0, 1, 4)


def test_menger_k24():
    g = k24()
    assert menger_k(g, 0, 1, 4)
    assert not menger_k(g, 0, 1, 5)
    assert menger_k(g, 2, 3, 2)
    assert not menger_k(g, 2, 3, 3)


def test_menger_cube_triconnected():
    g = cube()
    for u, v in itertools.combinations(range(8), 2):
        assert menger_k(g, u, v, 3)


def test_menger_same_vertex_rejected():
    with pytest.raises(ValueError):
        menger_k(k4(), 1, 1, 2)


def test_menger_disconnected():
    g = path(2)
    g.add_vertex(9)
    assert not menger_k(g, 0, 9, 1)


# ----------------------------------------------------------------------
# separation classes and pairs

def test_classes_c5_nonadjacent():
    g = cycle(5)
    cls = sorted(sorted(c) for c in separation_classes(g, 0, 2))
    assert cls == [[0, 1], [2, 3, 4]]


def test_classes_direct_edge_is_singleton():
    g = diamond()
    cls = separation_classes(g, 0, 3)
    assert frozenset([4]) in cls
    assert len(cls) == 3


def test_separation_pairs_k4_empty():
    assert separation_pairs(k4()) == set()


def test_separation_pairs_c4():
    assert separation_pairs(cycle(4)) == {frozenset((0, 2)),
                                          frozenset((1, 3))}


def test_separation_pairs_c5():
    want = {frozenset((i, (i + 2) % 5)) for i in range(5)}
    assert separation_pairs(cycle(5)) == want


def test_separation_pairs_diamond():
    assert separation_pairs(diamond()) == {frozenset((0, 3))}


def test_separation_pairs_bundles():
    # three parallel edges fall under the all-singleton exception,
    # four do not
    assert separation_pairs(parallel_bundle(3)) == set()
    assert separation_pairs(parallel_bundle(4)) == {frozenset((0, 1))}


def test_separation_pairs_k24():
    assert separation_pairs(k24()) == {frozenset((0, 1))}


def test_separation_pairs_cube_empty():
    assert separation_pairs(cube()) == set()


def test_menger_linkage():
    # on a biconnected graph, a separation pair exists iff some
    # nonadjacent pair misses 3 vertex-disjoint paths
    for name, make in ALL_SMALL.items():
        g = make()
        if not is_biconnected(g):
            continue
        adjacent = {frozenset(g.endpoints(e)) for e in g.edge_ids()}
        weak = any(
            not menger_k(g, u, v, 3)
            for u, v in itertools.combinations(sorted(g.vertices()), 2)
            if frozenset((u, v)) not in adjacent)
        assert bool(separation_pairs(g)) == weak, name


# ----------------------------------------------------------------------
# 4-cycles

def test_4cycles_c4_single_facial():
    cycles = simple_4cycles(cycle(4))
    assert len(cycles) == 1
    assert separating_4cycles(cycle(4)) == set()


def test_4cycles_k24_all_edges_separating():
    g = k24()
    sep, fac = four_cycle_edges(g)
    assert sep == set(range(8))


def test_4cycles_fv_k4_none_separating():
    fv, _ = k4().vertex_face_graph()
    assert separating_4cycles(fv) == set()


def test_4cycles_cube_all_facial():
    g = cube()
    sep, fac = four_cycle_edges(g)
    assert sep == set()
    assert fac == set(range(12))


def test_4cycles_parallel_edges_distinct():
    # doubling one edge of C4 doubles the cycles through it
    g = cycle(4)
    du = next(d for d in g.rotation(0) if edge_of(d) == 0)
    dw = next(d for d in g.rotation(1) if edge_of(d) == 0)
    g.insert_edge(0, 1, after_u=du, after_w=dw, eid=9)
    assert len(simple_4cycles(g)) >= 2


def test_4cycles_loops_ignored():
    g = triangle()
    assert simple_4cycles(g) == []


# ----------------------------------------------------------------------
# biconnectivity helper

def test_is_biconnected():
    assert is_biconnected(k4())
    assert is_biconnected(cycle(3))
    assert is_biconnected(parallel_bundle(2))
    assert not is_biconnected(path(4))
    assert not is_biconnected(path(2))
    g = path(3)
    assert not is_biconnected(g)


# ----------------------------------------------------------------------
# canonical SPQR

def test_spqr_c5_single_s():
    assert canonical_spqr(cycle(5)) == "S(v=0,1,2,3,4;e=0,1,2,3,4)[]"


def test_spqr_c6_merges_back_to_one_s():
    assert canonical_spqr(cycle(6)) == "S(v=0,1,2,3,4,5;e=0,1,2,3,4,5)[]"


def test_spqr_k4_single_r():
    assert canonical_spqr(k4()) == "R(v=0,1,2,3;e=0,1,2,3,4,5)[]"


def test_spqr_bundle_single_p():
    assert canonical_spqr(parallel_bundle(3)) == "P(v=0,1;e=0,1,2)[]"
    assert canonical_spqr(parallel_bundle(4)) == "P(v=0,1;e=0,1,2,3)[]"


def test_spqr_diamond_shape():
    s = canonical_spqr(diamond())
    assert s.count("P(") == 1
    assert s.count("S(") == 2
    assert s.count("R(") == 0
    assert s.startswith("S(v=0,1,3;e=0,2)")
    assert "P(v=0,3;e=4)" in s


def test_spqr_wheel_and_cube_single_r():
    assert canonical_spqr(wheel(5)).startswith("R(")
    assert canonical_spqr(cube()).startswith("R(")


def test_spqr_cube_minus_edge_frozen():
    g = cube()
    g.delete_edge(0)
    want = ("S(v=1,2,5;e=1,9)"
            "[2,5:R(v=2,3,4,5,6,7;e=2,4,5,6,7,10,11)"
            "[3,4:S(v=0,3,4;e=3,8)[]]]")
    assert canonical_spqr(g) == want


def test_spqr_k24_shape():
    s = canonical_spqr(k24())
    # one P hub with four S triangles around the hub pair
    assert s.count("P(") == 1
    assert s.count("S(") == 4


def test_spqr_deterministic():
    assert canonical_spqr(grid(3, 3)) == canonical_spqr(grid(3, 3))


def test_spqr_not_biconnected():
    with pytest.raises(NotBiconnected):
        canonical_spqr(path(4))
    with pytest.raises(NotBiconnected):
        canonical_spqr(parallel_bundle(2))  # only 2 edges


def test_spqr_tree_size_vs_separation_pairs():
    # every tree edge is a separation pair, a lone R node means a
    # triconnected graph, and a graph without separation pairs cannot
    # split
    for name, make in ALL_SMALL.items():
        g = make()
        if not is_biconnected(g) or g.n_edges < 3:
            continue
        s = canonical_spqr(g)
        single = s.count("[") == 1
        pairs = separation_pairs(g)
        if not single:
            assert pairs, name
        if single and s.startswith("R("):
            assert not pairs, name
        if not pairs:
            assert single, name


# ----------------------------------------------------------------------
# vertex-face correspondence

def test_fv_correspondence_fixtures():
    for name in ("k4", "c4", "c5", "diamond", "cube", "wheel5", "k24",
                 "bundle3", "grid33"):
        assert fv_correspondence_check(ALL_SMALL[name]()), name


def _random_biconnected_deletions(base, rng, steps):
    """Yield intermediate graphs of a deletion sequence that keeps the
    graph biconnected."""
    g = base
    for _ in range(steps):
        ids = sorted(g.edge_ids())
        rng.shuffle(ids)
        done = True
        for e in ids:
            h = g.copy()
            h.delete_edge(e)
            if is_biconnected(h) and h.n_edges >= 3:
                g = h
                done = False
                break
        if done:
            return
        yield g


def test_fv_correspondence_fuzz():
    rng = random.Random(1302)
    for make in (cube, lambda: grid(3, 3), lambda: wheel(6)):
        for _ in range(2):
            for g in _random_biconnected_deletions(make(), rng, 4):
                assert fv_correspondence_check(g)
