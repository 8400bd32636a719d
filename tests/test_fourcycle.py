"""Tests for the separating-4-cycle detector."""

from __future__ import annotations

import random

import pytest

from planarconn.embed import NotOnFace, SelfLoopContraction, dart
from planarconn.fourcycle import Detector, FaceDegreeExceeded
from planarconn.generators import random_delaunay, random_planar
from planarconn.oracle import four_cycle_edges, separating_4cycles

from .graphs import cube, cycle, grid, k4, k24, triangle, wheel


def sep_events(events):
    return {e for e, c in events if c == "separating4"}


def face_events(events):
    return {e for e, c in events if c == "face4"}


# ----------------------------------------------------------------------
# initial reports

def test_c4_reports_nothing_separating():
    det = Detector(cycle(4), debug=True)
    assert sep_events(det.initial_events) == set()
    # the one 4-cycle bounds both faces
    assert face_events(det.initial_events) == {0, 1, 2, 3}


def test_k24_reports_all_eight_edges():
    det = Detector(k24(), debug=True)
    assert sep_events(det.initial_events) == set(range(8))


def test_k4_matches_brute_force():
    g = k4()
    det = Detector(g, debug=True)
    assert sep_events(det.initial_events) == separating_4cycles(g)
    assert sep_events(det.initial_events) == set(range(6))


def test_initial_reports_match_brute_force():
    for make in (cube, lambda: wheel(6), lambda: grid(4, 5), triangle):
        g = make()
        det = Detector(g, debug=True)
        sep, fac = four_cycle_edges(g)
        assert sep_events(det.initial_events) == sep
        assert face_events(det.initial_events) == fac
        det.check()


def test_initial_reports_delaunay():
    g = random_delaunay(80, 3)
    det = Detector(g, debug=True)
    assert sep_events(det.initial_events) == separating_4cycles(g)
    det.check()


# ----------------------------------------------------------------------
# input validation

def test_face_degree_bound_enforced():
    with pytest.raises(FaceDegreeExceeded):
        Detector(cycle(20), max_face_degree=8, debug=True)
    Detector(cycle(20), max_face_degree=20, debug=True)


def test_self_loop_contraction_rejected():
    det = Detector(cube(), debug=True)
    h = det.tree.root.graph
    d = h.any_dart(0)
    eid = None
    # insert a loop at vertex 0 (both corners at 0 share a face)
    events = det.insert_edge(0, 0, d, d)
    eid = max(det.tree.root.graph.edge_ids())
    assert det.tree.root.graph.is_loop(eid)
    with pytest.raises(SelfLoopContraction):
        det.contract_edge(eid)


def test_insertion_corners_must_share_face():
    det = Detector(grid(3, 3), debug=True)
    h = det.tree.root.graph
    # corners of vertices 0 and 8 lie on different faces
    with pytest.raises(NotOnFace):
        det.insert_edge(0, 8, h.any_dart(0), h.any_dart(8))


# ----------------------------------------------------------------------
# saturation

def test_fourth_path_saturates_pair():
    # K_{2,3} plus a pendant leg; closing the fourth path reports at
    # most 8 edges and completes the K_{2,4} answer
    g = k24()
    g.delete_edge(7, report=False)
    det = Detector(g, debug=True)
    h = det.tree.root.graph
    assert set(det.reported) == separating_4cycles(g)
    # re-attach middle 5 to hub 1, closing the fourth path
    da, dw = next((da, dw)
                  for da in h.rotation(1) for dw in h.rotation(5)
                  if h.same_face(h.rotation_next(da), h.rotation_next(dw)))
    ev = det.insert_edge(1, 5, da, dw)
    assert len(sep_events(ev)) <= 8
    assert det.reported == separating_4cycles(det.tree.root.graph)
    assert det.reported == set(det.tree.root.graph.edge_ids())
    det.check()


# ----------------------------------------------------------------------
# events and flags under mutations

def test_contraction_shrinks_face_to_face4():
    # contracting one rim edge of a 5-wheel turns the outer 5-face of
    # the rim cycle... use C5: contract one edge, the square remains
    det = Detector(cycle(5), debug=True)
    assert face_events(det.initial_events) == set()
    events = det.contract_edge(0)
    live = set(det.tree.root.graph.edge_ids())
    assert face_events(events) == live
    assert len(live) == 4


def test_insertion_splitting_quad_makes_cycle_separating():
    # a cube face's boundary is facial until a chord-of-the-far-face
    # insertion... instead: split a quad of the cube by inserting a
    # vertex-disjoint edge inside it is impossible; verify instead that
    # inserting a diagonal reports the brute-force set afterwards
    g = cube()
    det = Detector(g, debug=True)
    assert det.reported == set()
    h = det.tree.root.graph
    f = next(f for f in h.faces() if len(f) == 4)
    u = h.vertex_of_dart(f[0])
    w = h.vertex_of_dart(f[2])
    det.insert_edge(u, w, h.rotation_prev(f[0]), h.rotation_prev(f[2]))
    cur = separating_4cycles(det.tree.root.graph)
    assert cur <= det.reported
    det.check()


def test_reported_flags_are_monotone():
    det = Detector(k24(), debug=True)
    before = set(det.reported)
    det.contract_edge(0)
    assert before - {0} <= det.reported


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

def run_script(det, rng, steps, envelope=True):
    hist, histf = four_cycle_edges(det.tree.root.graph)
    hist = set(hist)
    histf = set(histf)
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
        if envelope:
            cur, curf = four_cycle_edges(det.tree.root.graph)
            hist |= cur
            histf |= curf
            live = set(det.tree.root.graph.edge_ids())
            rep = det.reported & live
            assert cur <= rep
            assert rep <= hist
            assert curf <= (det.face_reported & live) <= histf


def test_exactness_fuzz_small():
    # reported edges stay within [current brute force, historical union]
    for seed in range(6):
        g = random_planar(24, seed, max_face_degree=6,
                          keep_biconnected=False)
        det = Detector(g, debug=True)
        assert sep_events(det.initial_events) == separating_4cycles(g)
        run_script(det, random.Random(seed * 7919 + 13), 40)
        det.check()


def test_exactness_fuzz_with_internal_nodes():
    for seed in (100, 101):
        g = random_planar(56, seed, max_face_degree=8,
                          keep_biconnected=False)
        det = Detector(g, debug=True)
        assert not det.tree.root.is_leaf
        run_script(det, random.Random(seed), 50)
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
    det.check()


def test_deterministic_event_stream():
    def run():
        det = Detector(random_planar(30, 4, keep_biconnected=False),
                       debug=True)
        out = list(det.initial_events)
        rng = random.Random(17)
        for _ in range(20):
            h = det.tree.root.graph
            cand = [e for e in h.edge_ids() if not h.is_loop(e)]
            if not cand:
                break
            out += det.contract_edge(rng.choice(cand))
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
