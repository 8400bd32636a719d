"""Tests for the separating-4-cycle detector."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from planarconn.embed import NotOnFace, SelfLoopContraction, UnknownEdge
from planarconn.fourcycle import MAX_FACE_DEGREE, Detector, FaceDegreeExceeded
from planarconn.generators import random_delaunay, random_planar
from planarconn.oracle import separating_4cycles

from .graphs import cube, cycle, grid, hub, k4, k24, triangle, wheel


def sep_edges(det):
    """The edges on the cycles :meth:`Detector.separating_now` lists."""
    out = set()
    for _pair, _m1, lk1, _m2, lk2 in det.separating_now():
        out.update(lk1 + lk2)
    return out


def assert_exact(det):
    assert sep_edges(det) == separating_4cycles(det.tree.root.graph)


# ----------------------------------------------------------------------
# the cycles separating at construction

def test_c4_reports_nothing_separating():
    det = Detector(cycle(4), debug=True)
    # the one 4-cycle bounds both faces
    assert det.separating_now() == []


def test_k24_reports_all_eight_edges():
    det = Detector(k24(), debug=True)
    assert sep_edges(det) == set(range(8))


def test_k4_matches_brute_force():
    g = k4()
    det = Detector(g, debug=True)
    assert sep_edges(det) == separating_4cycles(g)
    assert sep_edges(det) == set(range(6))


def test_initial_reports_match_brute_force():
    for make in (cube, lambda: wheel(6), lambda: grid(4, 5), triangle):
        det = Detector(make(), debug=True)
        assert_exact(det)
        det.check()


@pytest.mark.usefixtures("small_leaves")
def test_initial_reports_delaunay():
    det = Detector(random_delaunay(80, 3), debug=True)
    assert_exact(det)
    det.check()


def test_query_lists_cycles_with_their_legs():
    # every listed cycle is a -m1- b -m2- a with legs lk1, lk2
    det = Detector(k24(), debug=True)
    h = det.tree.root.graph
    cycles = det.separating_now()
    assert cycles
    for (a, b), m1, lk1, m2, lk2 in cycles:
        assert m1 != m2
        for m, lk in ((m1, lk1), (m2, lk2)):
            ends = {frozenset(h.endpoints(e)) for e in lk}
            assert ends == {frozenset((a, m)), frozenset((b, m))}


def test_dropped_detector_is_freed_at_once():
    # the separator tree holds no reference to the detector, so the two
    # form no reference cycle: an R node's replaced detector goes as
    # soon as it is dropped, not at the next full collection
    det = Detector(random_delaunay(30, 1))
    det.contract_edge(next(iter(det.tree.root.graph.edge_ids())))
    ref = weakref.ref(det)
    gc.disable()
    try:
        del det
        assert ref() is None
    finally:
        gc.enable()


def test_hub_splits_and_stores_few_paths():
    # the hub's vertex-face graph (608 vertices) must still split at the
    # production leaf size.  As one leaf it stores every length-2 path
    # of the graph, most of them through the hub: 29,500 in all (48.5
    # per vertex).  Split with leaves of 16 to 128 vertices it stores
    # 4,900 to 7,900 (8 to 13 per vertex), with leaves of 256 11,900
    fv = hub(200).vertex_face_graph()[0]
    det = Detector(fv)
    assert not det.tree.root.is_leaf
    stored = sum(len(legs) for st in det._states.values()
                 for legs in st.paths.values())
    assert stored <= 16 * fv.n_vertices


# ----------------------------------------------------------------------
# input validation

def test_face_degree_bound_enforced():
    with pytest.raises(FaceDegreeExceeded):
        Detector(cycle(MAX_FACE_DEGREE + 1), debug=True)
    Detector(cycle(MAX_FACE_DEGREE), debug=True)


def test_self_loop_contraction_rejected():
    det = Detector(cube(), debug=True)
    d = det.tree.root.graph.any_dart(0)
    # insert a loop at vertex 0 (both corners at 0 share a face)
    eid = det.insert_edge(0, 0, d, d)
    assert det.tree.root.graph.is_loop(eid)
    with pytest.raises(SelfLoopContraction):
        det.contract_edge(eid)
    with pytest.raises(UnknownEdge):
        det.contract_edge(eid + 1)
    # the rejections changed nothing
    assert_exact(det)
    det.check()


def test_insertion_corners_must_share_face():
    det = Detector(grid(3, 3), debug=True)
    h = det.tree.root.graph
    # corners of vertices 0 and 8 lie on different faces
    with pytest.raises(NotOnFace):
        det.insert_edge(0, 8, h.any_dart(0), h.any_dart(8))
    assert_exact(det)
    det.check()


# ----------------------------------------------------------------------
# saturation

def test_fourth_path_saturates_pair():
    # K_{2,3} plus a pendant leg; closing the fourth path completes the
    # K_{2,4} answer
    g = k24()
    g.delete_edge(7)
    det = Detector(g, debug=True)
    h = det.tree.root.graph
    assert sep_edges(det) == separating_4cycles(g)
    # re-attach middle 5 to hub 1, closing the fourth path
    da, dw = next((da, dw)
                  for da in h.rotation(1) for dw in h.rotation(5)
                  if h.same_face(h.rotation_next(da), h.rotation_next(dw)))
    eid = det.insert_edge(1, 5, da, dw)
    assert h.endpoints(eid) in ((1, 5), (5, 1))
    assert_exact(det)
    assert sep_edges(det) == set(h.edge_ids())
    det.check()


# ----------------------------------------------------------------------
# the query under mutations

def test_insertion_splitting_quad_makes_cycle_separating():
    # a cube face's boundary is facial; inserting its diagonal splits
    # it, and the query matches brute force afterwards
    g = cube()
    det = Detector(g, debug=True)
    assert det.separating_now() == []
    h = det.tree.root.graph
    f = next(f for f in h.faces() if len(f) == 4)
    u = h.vertex_of_dart(f[0])
    w = h.vertex_of_dart(f[2])
    det.insert_edge(u, w, h.rotation_prev(f[0]), h.rotation_prev(f[2]))
    assert_exact(det)
    det.check()


def test_contraction_keeps_rest_of_cycles():
    # contracting a leg of K_{2,4} destroys the cycles through it; the
    # rest of every other cycle is still listed
    det = Detector(k24(), debug=True)
    det.contract_edge(0)
    assert_exact(det)
    assert sep_edges(det)
    det.check()


def test_insertion_candidates_bounded_by_neighbor_count():
    det = Detector(cube(), debug=True)
    h = det.tree.root.graph
    f = next(f for f in h.faces() if len(f) == 4)
    u, w = h.vertex_of_dart(f[0]), h.vertex_of_dart(f[2])
    c0 = det.candidates_total
    det.insert_edge(u, w, h.rotation_prev(f[0]), h.rotation_prev(f[2]))
    # at most (distinct tracked neighbors of w) + (of u)
    assert det.candidates_total - c0 <= 6


# ----------------------------------------------------------------------
# exactness under mixed updates, against brute force

def run_script(det, rng, steps):
    """Random contractions and face-splitting insertions; after every
    step the query must match brute force exactly."""
    for step in range(steps):
        h = det.tree.root.graph
        if rng.random() < 0.6:
            cand = [e for e in h.edge_ids() if not h.is_loop(e)]
            if not cand:
                break
            det.contract_edge(rng.choice(cand))
        else:
            faces = [f for f in h.faces() if len(f) >= 4]
            if not faces:
                continue
            f = rng.choice(faces)
            i = rng.randrange(len(f))
            j = (i + 2) % len(f)
            u, w = h.vertex_of_dart(f[i]), h.vertex_of_dart(f[j])
            if u == w:
                continue
            det.insert_edge(u, w, h.rotation_prev(f[i]),
                            h.rotation_prev(f[j]))
        assert sep_edges(det) == separating_4cycles(h), f"step {step}"


@pytest.mark.usefixtures("small_leaves")
def test_exactness_fuzz_small():
    for seed in range(6):
        g = random_planar(24, seed, max_face_degree=6,
                          keep_biconnected=False)
        det = Detector(g, debug=True)
        assert_exact(det)
        run_script(det, random.Random(seed * 7919 + 13), 40)
        det.check()


@pytest.mark.usefixtures("small_leaves")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the debug potential audit in Detector._end_op "
                          "fails on valid inputs: seed 21 goes negative, "
                          "seeds 15 and 58 break the len(M) bound")
@pytest.mark.parametrize("seed", [15, 21, 58])
def test_debug_audit_known_failures(seed):
    # the query stays exact on these runs; the audit's potential or the
    # audit itself is wrong.  A fix turns this into an XPASS, which fails
    # the suite until the marker goes.  Seeds 15 and 58 pass when the
    # whole graph is one leaf, so the failures are recorded with small
    # leaves.
    g = random_planar(24, seed, max_face_degree=6, keep_biconnected=False)
    det = Detector(g, debug=True)
    run_script(det, random.Random(seed * 7919 + 13), 40)


@pytest.mark.usefixtures("small_leaves")
def test_exactness_fuzz_with_internal_nodes():
    for seed in (100, 101):
        g = random_planar(56, seed, max_face_degree=8,
                          keep_biconnected=False)
        det = Detector(g, debug=True)
        assert not det.tree.root.is_leaf
        run_script(det, random.Random(seed), 50)
        det.check()


@pytest.mark.usefixtures("small_leaves")
def test_exactness_fuzz_radial():
    # vertex-face graphs of triangulations: all faces are quads, the
    # input the SPQR-tree gives the detector
    for seed in range(4):
        fv = random_delaunay(20, seed).vertex_face_graph()[0]
        det = Detector(fv, debug=True)
        assert det.separating_now() == []
        run_script(det, random.Random(seed), 40)
        det.check()


def test_contract_to_nothing():
    det = Detector(random_planar(20, 1, keep_biconnected=False),
                   debug=True)
    rng = random.Random(9)
    while True:
        h = det.tree.root.graph
        cand = [e for e in h.edge_ids() if not h.is_loop(e)]
        if not cand:
            break
        det.contract_edge(rng.choice(cand))
    assert det.tree.root.graph.n_vertices == 1
    assert det.separating_now() == []
    det.check()


@pytest.mark.usefixtures("small_leaves")
def test_deterministic_answers():
    def run():
        det = Detector(random_planar(30, 4, keep_biconnected=False),
                       debug=True)
        out = [det.separating_now()]
        rng = random.Random(17)
        for _ in range(20):
            h = det.tree.root.graph
            cand = [e for e in h.edge_ids() if not h.is_loop(e)]
            if not cand:
                break
            det.contract_edge(rng.choice(cand))
            out.append(det.separating_now())
        return out, det.candidates_total

    assert run() == run()


def test_ledger_counters_exact_integers():
    det = Detector(k24(), debug=True)
    assert isinstance(det.candidates_total, int)
    st = det._states[id(det.tree.root)]
    info = det._phi(det.tree.root, st.K)
    assert all(isinstance(info[k], int)
               for k in ("phi", "phi_v", "phi_q", "phi_s"))
    assert info["phi"] >= 0
    c0 = det.candidates_total
    det.contract_edge(0)
    assert det.candidates_total >= c0
