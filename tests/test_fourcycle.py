"""Tests for the separating-4-cycle detector."""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest

from planarconn import fourcycle, separators
from planarconn.embed import NotOnFace, SelfLoopContraction, UnknownEdge, edge_of
from planarconn.fourcycle import MAX_FACE_DEGREE, Detector, FaceDegreeExceeded
from planarconn.generators import random_delaunay, random_planar
from planarconn.oracle import separating_4cycles
from planarconn.separators import merge_survivor
from planarconn.spqr import build_spqr

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


def test_initial_reports_match_brute_force(monkeypatch):
    # construction only logs its pairs: every walk happens at the query
    walks = []
    walk = fourcycle.cycle_is_separating

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(fourcycle, "cycle_is_separating", counted)
    queried = 0
    for make in (cube, lambda: wheel(6), lambda: grid(4, 5), triangle):
        walks.clear()
        det = Detector(make(), debug=True)
        assert not walks
        assert_exact(det)
        det.check()
        queried += len(walks)
    assert queried


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


def _stored(states):
    """The paths the given node states hold."""
    return sum(len(legs) for st in states for legs in st.paths.values())


def test_hub_splits_and_stores_few_paths():
    # the hub's vertex-face graph (608 vertices, 29,500 length-2 paths)
    # must still split at the production leaf budget.  Its leaves track
    # the skeleton vertices, whose paths run through triangles, and
    # never the paths through the hub: 1,264 in all at the production
    # budget (2.1 per vertex), 1,212 as one leaf, 4,287 with leaves of
    # 32 paths.  Tracking every vertex at the leaves stored 11,893 here
    # and 29,500 as one leaf, most of them through the hub
    fv = hub(200).vertex_face_graph()[0]
    det = Detector(fv)
    assert not det.tree.root.is_leaf
    assert _stored(det._states.values()) <= 3 * fv.n_vertices


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


def _state(det):
    """The root graph's rotations and every node's path table."""
    h = det.tree.root.graph
    return ({v: list(h.rotation(v)) for v in h.vertices()},
            {nid: {pair: dict(d) for pair, d in st.paths.items()}
             for nid, st in det._states.items()})


def test_merge_across_rejects_bad_corners():
    det = Detector(grid(3, 3), debug=True)
    h = det.tree.root.graph
    before = _state(det)
    d = h.any_dart(4)
    with pytest.raises(SelfLoopContraction):
        det.merge_across(4, 4, d, h.rotation_next(d))
    # corners of vertices 0 and 8 lie on different faces
    with pytest.raises(NotOnFace):
        det.merge_across(0, 8, h.any_dart(0), h.any_dart(8))
    # the rejections changed nothing
    assert _state(det) == before
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
    # it, and the query matches brute force afterwards.  Nothing
    # separates at first, so the log is reset: the split face's own
    # entries are what the query has
    g = cube()
    det = Detector(g, debug=True)
    assert det.separating_now() == []
    det.reset_op_log()
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


@pytest.mark.usefixtures("small_leaves")
def test_split_face_query_is_exact(monkeypatch):
    # an insertion that splits a 4-face logs one path between the ends
    # of the edge, and the query decides whether the face's boundary
    # separates.  The log is reset before an insertion when no 4-cycle
    # separates, so that the split face's own entries are what the
    # query has.  Internal nodes whose separator holds one diagonal of
    # the face but not the other are reached, those that hold only the
    # middles m1 and m2 among them, and wherever the boundary separates,
    # some node that tracks both ends sees it too (the argument in
    # Detector._recheck_split_face)
    recheck, insert = Detector._recheck_split_face, Detector.insert_edge
    split, seen = [], Counter()

    def spy_recheck(self, st, eid):
        h = st.node.graph
        if h.has_edge(eid):
            f1, f2 = h.trace_face(2 * eid), h.trace_face(2 * eid + 1)
            if len(f1) + len(f2) == 6:
                i, j = f1.index(2 * eid), f2.index(2 * eid + 1)
                seq = f1[i + 1:] + f1[:i] + f2[j + 1:] + f2[:j]
                split.append((st, [h.vertex_of_dart(d) for d in seq],
                              [edge_of(d) for d in seq]))
        recheck(self, st, eid)

    def spy_insert(self, *args, **kw):
        split.clear()
        h = self.tree.root.graph
        fresh = not separating_4cycles(h)
        if fresh:
            self.reset_op_log()
        eid = insert(self, *args, **kw)
        if split:
            assert sep_edges(self) == separating_4cycles(h)
        listed = {frozenset(lk1 + lk2)
                  for _pair, _m1, lk1, _m2, lk2 in self.separating_now()}
        ends_tracked = {}
        for st, (a, m1, b, m2), eds in split:
            g = st.node.graph
            if len({a, m1, b, m2}) < 4 or not all(map(g.has_edge, eds)) \
                    or not fourcycle.cycle_is_separating(g, a, m1, b, m2,
                                                         *eds):
                continue
            tracked = [{a, b} <= st.K, {m1, m2} <= st.K]
            cyc = frozenset(eds)
            ends_tracked[cyc] = ends_tracked.get(cyc, False) or tracked[0]
            seen["middles only"] += tracked == [False, True]
            if any(tracked):
                kind = "one" if tracked[0] != tracked[1] else "both"
                seen[kind] += 1
                if fresh:
                    # the face's boundary is listed as a cycle
                    assert frozenset(eds) in listed
                    seen[kind + " after a reset"] += 1
        assert all(ends_tracked.values())
        return eid

    monkeypatch.setattr(Detector, "_recheck_split_face", spy_recheck)
    monkeypatch.setattr(Detector, "insert_edge", spy_insert)
    # seed 120 reaches a node that tracks one diagonal after a reset
    for seed in (100, 101, 120):
        g = random_planar(56, seed, max_face_degree=8,
                          keep_biconnected=False)
        run_script(Detector(g), random.Random(seed), 50)
    assert all(seen[kind + when] for kind in ("one", "both")
               for when in ("", " after a reset")), seen
    assert seen["middles only"], seen


def _radial_detectors(debug):
    """Detectors over the vertex-face graphs of small triangulations,
    the input the SPQR-tree gives the detector, with a seeded stream."""
    for seed in range(4):
        fv = random_delaunay(24, seed).vertex_face_graph()[0]
        yield Detector(fv, debug=debug), random.Random(seed)


@pytest.fixture(params=["small", "production"])
def leaves(request):
    """Separator-tree leaves of at most 32 length-2 paths, or of
    ``separators.LEAF_PATHS``."""
    if request.param == "small":
        request.getfixturevalue("small_leaves")


def _merge_quads(det, rng, steps=40):
    """Merge opposite corners of ``steps`` random quad faces, asserting
    after each merge that the survivor is the endpoint with more edges
    (the smaller label on a tie) and that the query is exact."""
    h = det.tree.root.graph
    for step in range(steps):
        f = rng.choice([f for f in h.faces() if len(f) == 4])
        i = rng.randrange(4)
        u, w = h.vertex_of_dart(f[i]), h.vertex_of_dart(f[i - 2])
        if u == w:
            continue
        du, dw = h.degree(u), h.degree(w)
        keep = u if du > dw else w if dw > du else min(u, w)
        x = det.merge_across(u, w, h.rotation_prev(f[i]),
                             h.rotation_prev(f[i - 2]))
        assert x == keep and not h.has_vertex(u + w - keep)
        assert sep_edges(det) == separating_4cycles(h), f"step {step}"


@pytest.mark.usefixtures("leaves")
def test_merge_across_exact(monkeypatch):
    # merge opposite corners of random quad faces: every merge, across
    # a quad of four distinct corners or not, happens in place, with no
    # diagonal inserted, and the query stays exact
    diagonals = []
    insertion = fourcycle.SeparatorTree.apply_insertion

    def record_diagonal(self, *args, **kw):
        diagonals.append(args)
        return insertion(self, *args, **kw)

    monkeypatch.setattr(fourcycle.SeparatorTree, "apply_insertion",
                        record_diagonal)
    for det, rng in _radial_detectors(debug=True):
        _merge_quads(det, rng)
        det.check()
    assert not diagonals


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the debug potential audit in Detector._end_op "
                          "fails on a vertex-face graph under merges only: "
                          "candidates exceed the potential drop at step 39")
@pytest.mark.parametrize("budget", [16, 24])
def test_debug_audit_fails_on_radial_merges(monkeypatch, budget):
    # the production domain: the vertex-face graph of a triangulation,
    # changed only by merges across quads, as in test_merge_across_exact
    # with seed 3.  With leaves of at most 16 or 24 paths the ledger
    # fails at step 39 (candidates 140 and 112 against a drop of 120 and
    # 102); with 32 or more it holds.  A fix turns this into an XPASS
    monkeypatch.setattr(separators, "LEAF_PATHS", budget)
    fv = random_delaunay(24, 3).vertex_face_graph()[0]
    _merge_quads(Detector(fv, debug=True), random.Random(3))


def test_mutations_walk_no_cycle(monkeypatch):
    # merges and contractions only keep the tables and log the pairs of
    # their new paths; every 4-cycle walk happens at the query
    walks = []
    walk = fourcycle.cycle_is_separating

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(fourcycle, "cycle_is_separating", counted)
    queried = 0
    for det, rng in _radial_detectors(debug=False):
        h = det.tree.root.graph
        for step in range(30):
            quads = [f for f in h.faces() if len(f) == 4]
            walks.clear()
            if quads and step % 2:
                f = rng.choice(quads)
                i = rng.randrange(4)
                u, w = h.vertex_of_dart(f[i]), h.vertex_of_dart(f[i - 2])
                if u == w:
                    continue
                det.merge_across(u, w, h.rotation_prev(f[i]),
                                 h.rotation_prev(f[i - 2]))
            else:
                det.contract_edge(rng.choice(
                    [e for e in h.edge_ids() if not h.is_loop(e)]))
            assert not walks, f"step {step}"
            assert sep_edges(det) == separating_4cycles(h), f"step {step}"
            queried += len(walks)
        det.check()
    assert queried


@pytest.mark.usefixtures("leaves")
def test_contraction_lifts_only_retired_side(monkeypatch):
    # a path with no leg at the endpoint whose label retires keeps its
    # pair, legs and middle, so the merge leaves it in place: every path
    # it lifts out of a table (_NodeState.purge) has a leg there
    retired, lifted, stray = [], [], []
    merge = Detector._process_merge
    purge = fourcycle._NodeState.purge

    def spy_merge(self, st, x, r, fr):
        retired.append(set(fr))
        try:
            merge(self, st, x, r, fr)
        finally:
            retired.pop()

    def spy_purge(self, e):
        items = purge(self, e)
        for _pair, lk in items if retired else ():
            lifted.append(lk)
            if not retired[-1] & set(lk):
                stray.append(lk)
        return items

    monkeypatch.setattr(Detector, "_process_merge", spy_merge)
    monkeypatch.setattr(fourcycle._NodeState, "purge", spy_purge)
    for det, rng in _radial_detectors(debug=False):
        h = det.tree.root.graph
        for _ in range(20):
            det.contract_edge(rng.choice(
                [e for e in h.edge_ids() if not h.is_loop(e)]))
            det.check()
    assert lifted and not stray


def test_contraction_keeps_busier_endpoint(monkeypatch):
    # where the larger label has more edges, the two survivor rules
    # disagree: the busier endpoint keeps its label, and only the paths
    # with a leg at the other one are lifted out and re-seated
    retiring, lifted, stray = [], [], []
    merge = Detector._process_merge
    purge = fourcycle._NodeState.purge

    def spy_merge(self, st, x, r, fr):
        retiring.append(True)
        try:
            merge(self, st, x, r, fr)
        finally:
            retiring.pop()

    def spy_purge(self, e):
        items = purge(self, e)
        for _pair, lk in items if retiring else ():
            lifted.append(lk)
            if not gone_edges & set(lk):
                stray.append(lk)
        return items

    monkeypatch.setattr(Detector, "_process_merge", spy_merge)
    monkeypatch.setattr(fourcycle._NodeState, "purge", spy_purge)
    for seed in range(4):
        # in a vertex-face graph every face vertex has the larger label
        # and degree 3, so a triangulation's labels serve better here
        det = Detector(random_delaunay(40, seed))
        rng = random.Random(seed)
        h = det.tree.root.graph
        for _ in range(10):
            cand = []
            for e in h.edge_ids():
                lo, hi = sorted(h.endpoints(e))
                if lo != hi and h.degree(hi) > h.degree(lo):
                    cand.append((e, lo, hi))
            e, lo, hi = rng.choice(cand)
            gone_edges = {edge_of(d) for d in h.rotation(lo)}
            assert det.contract_edge(e) == hi
            assert h.has_vertex(hi) and not h.has_vertex(lo)
        det.check()
    assert lifted and not stray


def _retiring_merges(h):
    """``(r, x, after_r, after_x)`` for every corner r of degree 2 on a
    quad face of four distinct corners whose opposite corner x keeps
    its label when the two merge across that face."""
    out = []
    for f in h.faces():
        vs = [h.vertex_of_dart(d) for d in f]
        if len(f) != 4 or len(set(vs)) != 4:
            continue
        for i in range(4):
            r, x = vs[i], vs[i - 2]
            if h.degree(r) == 2 and (h.degree(x) > 2 or x < r):
                out.append((r, x, h.rotation_prev(f[i]),
                            h.rotation_prev(f[i - 2])))
    return out


def _merge_random_quad(det, rng):
    """Merge the opposite corners of a random quad face, if distinct."""
    h = det.tree.root.graph
    f = rng.choice([f for f in h.faces() if len(f) == 4])
    i = rng.randrange(4)
    u, w = h.vertex_of_dart(f[i]), h.vertex_of_dart(f[i - 2])
    if u != w:
        det.merge_across(u, w, h.rotation_prev(f[i]),
                         h.rotation_prev(f[i - 2]))


def _retire_stream(det, rng, steps):
    """A seeded stream of merges that retire a degree-2 corner r into
    x across a quad: yields ``(r, x, args)``, for the caller to do
    ``det.merge_across(*args)``, with the corners in either order.  The
    steps with no such corner, and every third step, merge a random
    quad instead, which makes more."""
    h = det.tree.root.graph
    for step in range(steps):
        merges = _retiring_merges(h)
        if not merges or step % 3 == 0:
            _merge_random_quad(det, rng)
            continue
        r, x, after_r, after_x = rng.choice(merges)
        yield r, x, ((r, x, after_r, after_x) if step % 2
                     else (x, r, after_x, after_r))


@pytest.mark.usefixtures("leaves")
def test_degree2_corner_retires_in_place(monkeypatch):
    # merging a degree-2 corner across a quad only removes that corner,
    # so it inserts no diagonal and contracts nothing; the busier
    # endpoint's label and corner edges are the ones that stay, so its
    # rotation is untouched
    calls = []
    for name in ("apply_insertion", "apply_contraction"):
        method = getattr(fourcycle.SeparatorTree, name)

        def spy(self, *args, _method=method, **kw):
            calls.append(args)
            return _method(self, *args, **kw)
        monkeypatch.setattr(fourcycle.SeparatorTree, name, spy)
    retired = 0
    for det, rng in _radial_detectors(debug=True):
        h = det.tree.root.graph
        for r, x, args in _retire_stream(det, rng, 40):
            before = h.rotation(x)
            calls.clear()
            assert det.merge_across(*args) == x
            assert not calls
            assert not h.has_vertex(r) and h.rotation(x) == before
            assert sep_edges(det) == separating_4cycles(h)
            retired += 1
        det.check()
    assert retired


def _cyclic(seq):
    """A cyclic sequence read from its smallest entry."""
    i = seq.index(min(seq))
    return tuple(seq[i:] + seq[:i])


def _embedding(h):
    """The faces and the cyclic rotations of h, by dart."""
    return ({_cyclic(f) for f in h.faces()},
            {v: _cyclic(h.rotation(v)) for v in h.vertices()})


def _cycles(det):
    """:meth:`Detector.separating_now`'s cycles, as a set that ignores
    which of a cycle's two paths is listed first."""
    return {(pair, frozenset({(m1, lk1), (m2, lk2)}))
            for pair, m1, lk1, m2, lk2 in det.separating_now()}


def _radial_with_hexagons(seed):
    """The vertex-face graph of ``random_delaunay(24, seed)`` less a few
    edges between two quads, which leave hexagons, and the seeded
    stream that chose them."""
    g = random_delaunay(24, seed).vertex_face_graph()[0]
    rng = random.Random(seed)
    for e in rng.sample(sorted(g.edge_ids()), 6):
        d0, d1 = 2 * e, 2 * e + 1
        if g.face_degree_at_most(d0, 4) == g.face_degree_at_most(
                d1, 4) == 4 and not g.same_face(d0, d1):
            g.delete_edge(e)
    return g, rng


def _large_face_merges():
    """``(graph, after_u, after_w)``: two corners of distinct,
    non-adjacent vertices on a face of degree 6 or more.  The grids
    merge two degree-2 corners of their outer face; the radial graphs
    of triangulations, whose faces are all quads, first lose a few
    edges between two quads, and merge opposite corners of a hexagon
    that leaves."""
    for rows, cols in ((5, 5), (4, 6), (2, 3)):
        g = grid(rows, cols)
        outer = max(g.faces(), key=len)
        assert len(outer) >= 6
        corners = [d for d in outer if g.degree(g.vertex_of_dart(d)) == 2]
        d_u, d_w = corners[0], corners[len(corners) // 2]
        yield g, g.rotation_prev(d_u), g.rotation_prev(d_w)
    for seed in range(4):
        g, rng = _radial_with_hexagons(seed)
        for f in g.faces():
            if len(f) == 6:
                i = rng.randrange(3)
                yield g, g.rotation_prev(f[i]), g.rotation_prev(f[i + 3])


@pytest.mark.usefixtures("leaves")
def test_degree2_corner_on_large_face_merges(monkeypatch):
    # a merge across a face of degree 6 or more splices r into x in
    # place, with no diagonal, and restores quasi-simplicity: the same
    # root graph, separating cycles and node tables as inserting the
    # diagonal between the two corners and contracting it on a twin
    inserts = []
    insertion = fourcycle.SeparatorTree.apply_insertion

    def counted_insertion(self, *args, **kw):
        inserts.append(args)
        return insertion(self, *args, **kw)

    monkeypatch.setattr(fourcycle.SeparatorTree, "apply_insertion",
                        counted_insertion)
    merged = 0
    for g, after_u, after_w in _large_face_merges():
        det, twin = Detector(g, debug=True), Detector(g, debug=True)
        h, th = det.tree.root.graph, twin.tree.root.graph
        u, w = h.vertex_of_dart(after_u), h.vertex_of_dart(after_w)
        assert u != w and h.face_degree_at_most(h.rotation_next(after_u),
                                                5) is None
        keep = merge_survivor(h, u, w)
        inserts.clear()
        assert det.merge_across(u, w, after_u, after_w) == keep
        assert not inserts and not h.has_vertex(u + w - keep)
        e = twin.insert_edge(u, w, after_u, after_w)
        assert twin.contract_edge(e) == keep
        assert _embedding(h) == _embedding(th)
        assert _cycles(det) == _cycles(twin)
        assert_exact(det)
        det.check()
        twin.check()
        merged += 1
    assert merged > 3  # the three grids and at least one hexagon


@pytest.mark.usefixtures("small_leaves")
def test_retire_renames_and_enters_separator(monkeypatch):
    # with small leaves the retirements reach internal
    # separator-tree nodes: one that holds r but not x renames r to x
    # and gains x's edges, and where r was a separator vertex and x was
    # not, x joins the separator and its paths join the table.  Every
    # merge walks the tree in apply_merge, whose renames are counted,
    # and a node that holds both ends reports a merge, with no edges of
    # r where r has none left: there is no other event kind for it
    process = Detector._process_merge
    apply_merge = fourcycle.SeparatorTree.apply_merge
    seen = Counter()

    def spy_merge(self, *args):
        events = apply_merge(self, *args)
        seen.update(ev[0] for ev in events)
        return events

    def spy_process(self, st, x, r, fr):
        enters = not fr and r in st.K and x not in st.K
        process(self, st, x, r, fr)
        if enters:
            fresh = fourcycle._NodeState(st.node, set(st.K))
            fresh.scan_all()
            assert x in st.K and r not in st.K
            assert {p: d for p, d in st.paths.items() if x in p} == {
                p: d for p, d in fresh.paths.items() if x in p}
            seen["enter"] += 1

    monkeypatch.setattr(fourcycle.SeparatorTree, "apply_merge", spy_merge)
    monkeypatch.setattr(Detector, "_process_merge", spy_process)
    det, rng = next(_radial_detectors(debug=True))
    h = det.tree.root.graph
    for _r, _x, args in _retire_stream(det, rng, 40):
        det.merge_across(*args)
        assert sep_edges(det) == separating_4cycles(h)
        det.check()
    assert seen["rename"] and seen["enter"]
    assert seen["merge"] and "retire" not in seen, seen


@pytest.mark.usefixtures("small_leaves")
def test_a_contraction_walks_the_tree_once(monkeypatch):
    # a contraction is one merge: it enters the separator-tree walk at
    # the root once and deletes its edge in that walk, never through
    # apply_deletion
    Tree = fourcycle.SeparatorTree
    walk, deletion = Tree._merge, Tree.apply_deletion
    contraction = Tree.apply_contraction
    calls = []

    def spy_contraction(self, e):
        calls.append(Counter())
        try:
            return contraction(self, e)
        finally:
            calls[-1]["done"] = 1

    def spy_walk(self, node, parent_h, *args):
        if calls and not calls[-1]["done"] and parent_h is None:
            calls[-1]["root walks"] += 1
        return walk(self, node, parent_h, *args)

    def spy_deletion(self, e):
        if calls and not calls[-1]["done"]:
            calls[-1]["deletions"] += 1
        return deletion(self, e)

    for name, spy in (("apply_contraction", spy_contraction),
                      ("_merge", spy_walk), ("apply_deletion", spy_deletion)):
        monkeypatch.setattr(Tree, name, spy)
    det, rng = next(_radial_detectors(debug=False))
    h = det.tree.root.graph
    for _ in range(20):
        det.contract_edge(rng.choice(
            [e for e in h.edge_ids() if not h.is_loop(e)]))
        det.check()
    assert len(calls) == 20
    assert all(c == {"root walks": 1, "done": 1} for c in calls), calls


@pytest.mark.usefixtures("small_leaves")
def test_query_follows_renamed_logged_paths(monkeypatch):
    # the log holds paths, not pairs: a separator-tree rename that
    # moves a path logged earlier in the same step to a new pair needs
    # no record of its own, since the query reads the pair off the node
    # graph.  With small leaves, merges on radial graphs reach such
    # renames, and the query stays exact after each merge
    process = Detector._process_rename
    reached = [0]

    def spy(self, st, old, new):
        logged = {lk for s, lk, _pair in self._op_items if s is st}
        reached[0] += any(old in pair and not logged.isdisjoint(d)
                          for pair, d in st.paths.items())
        return process(self, st, old, new)

    monkeypatch.setattr(Detector, "_process_rename", spy)
    for det, rng in _radial_detectors(debug=False):
        # no 4-cycle separates yet, so the log may start empty
        det.reset_op_log()
        h = det.tree.root.graph
        for _ in range(30):
            _merge_random_quad(det, rng)
            assert sep_edges(det) == separating_4cycles(h)
        det.check()
    assert reached[0]


@pytest.mark.usefixtures("leaves")
def test_query_derives_only_paths_that_left_their_pair(monkeypatch):
    # each op-log entry carries the pair its path was written under, and
    # the query derives a path's pair off the node graph only when the
    # path has left that pair's table.  Two or three merges between
    # queries on radial graphs let a later merge move or delete a path
    # that an earlier one logged; the query stays exact after every
    # batch, a path still in its pair's table derives that pair, and
    # the query derives the paths that left it
    query, derive = Detector.separating_now, fourcycle._derive
    seen, querying = Counter(), [False]

    def spy_derive(h, e1, e2):
        seen["derived in query"] += querying[0]
        return derive(h, e1, e2)

    def spy_query(self):
        for st, lk, pair in self._op_items:
            got = derive(st.node.graph, *lk)
            if lk in st.paths.get(pair, ()):
                assert got[0] == pair
                seen["hit"] += 1
            else:
                seen["missed"] += 1
                seen["moved"] += bool(got) and lk in st.paths.get(got[0], ())
        querying[0] = True
        try:
            return query(self)
        finally:
            querying[0] = False

    monkeypatch.setattr(fourcycle, "_derive", spy_derive)
    monkeypatch.setattr(Detector, "separating_now", spy_query)
    for seed in range(2):
        for g in (random_delaunay(24, seed), random_planar(30, seed)):
            # construction logs the paths of the pairs that have two or
            # more, so the query sees the cycles separating at the start
            det = Detector(g.vertex_face_graph()[0])
            h, rng = det.tree.root.graph, random.Random(seed)
            for batch in range(12):
                for _ in range(2 + batch % 2):
                    _merge_random_quad(det, rng)
                assert sep_edges(det) == separating_4cycles(h)
            det.check()
    assert seen["hit"] and seen["moved"], seen
    assert seen["derived in query"] == seen["missed"], seen


@pytest.mark.usefixtures("small_leaves")
def test_general_merges_reach_every_node_case(monkeypatch):
    # with small leaves, in-place merges of a corner r of degree
    # 3 or more into x reach every kind of node below the root: one that
    # holds both splices r's darts left there into x's rotation, one
    # with r alone renames it to x and gains x's edges, and one with x
    # alone gains r's former edges.  A merge across a quad deletes r's
    # two quad edges in the same walk (apply_merge's ``gone``), so r's
    # degree is read without them
    apply_merge = fourcycle.SeparatorTree.apply_merge
    walk = fourcycle.SeparatorTree._merge
    general, cases, quad = [False], Counter(), []

    def spy_merge(self, x, r, after_x, first_r, gone=()):
        quad[:] = gone
        general[0] = self.root.graph.degree(r) > len(gone)
        return apply_merge(self, x, r, after_x, first_r, gone)

    def spy_walk(self, node, parent_h, x, r, *corners_and_events):
        g = node.graph
        if general[0] and parent_h is not None:
            if not g.has_vertex(r):
                cases["x"] += 1
            elif not g.has_vertex(x):
                cases["r"] += 1
            elif g.degree(r) > sum(map(g.has_edge, quad)):
                cases["both"] += 1
        return walk(self, node, parent_h, x, r, *corners_and_events)

    monkeypatch.setattr(fourcycle.SeparatorTree, "apply_merge", spy_merge)
    monkeypatch.setattr(fourcycle.SeparatorTree, "_merge", spy_walk)
    det, rng = next(_radial_detectors(debug=False))
    h = det.tree.root.graph
    for _ in range(30):
        general[0] = False
        _merge_random_quad(det, rng)
        assert sep_edges(det) == separating_4cycles(h)
        det.check()
    assert cases["both"] and cases["r"] and cases["x"], cases


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


# ----------------------------------------------------------------------
# one colour class at the leaves of a bipartite input

def _classes(h):
    """The two colour classes of bipartite h."""
    colour = {}
    for s in h.vertices():
        if s in colour:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for d in h.rotation(v):
                z = h.vertex_of_dart(d ^ 1)
                if z not in colour:
                    colour[z] = 1 - colour[v]
                    stack.append(z)
                assert colour[z] != colour[v], "not bipartite"
    return [{v for v, c in colour.items() if c == i} for i in (0, 1)]


def _assert_one_class(det):
    """Every leaf tracks its vertices in one and the same colour class,
    and its table is a fresh scan of them.  Together the leaves hold at
    most half the paths of all-pairs scans of the same leaves; one leaf
    of at most 32 paths may hold more, up to 0.6 of them as measured."""
    assert det._tracked is not None
    classes = _classes(det.tree.root.graph)
    tracked, leaves, every = set(), [], []
    for st in det._states.values():
        if not st.node.is_leaf:
            continue
        vs = set(st.node.graph.vertices())
        tracked |= {i for i in (0, 1) if st.K == vs & classes[i]}
        fresh = fourcycle._NodeState(st.node, set(st.K))
        fresh.scan_all()
        assert fresh.paths == st.paths
        leaves.append(st)
        every.append(fourcycle._NodeState(st.node, vs))
        every[-1].scan_all()
    assert len(tracked) == 1
    assert 2 * _stored(leaves) <= _stored(every)


@pytest.mark.usefixtures("leaves")
def test_leaves_track_one_colour_class():
    # the vertex-face graphs of triangulations, and those that the R
    # nodes of an SPQR-tree build detectors over
    dets = [det for det, _rng in _radial_detectors(debug=False)]
    for n, seed, face_degree in ((60, 0, 8), (120, 1, 8), (60, 2, 24),
                                 (120, 3, 24)):
        tree = build_spqr(random_planar(n, seed, face_degree))
        dets += [x.det for x in tree.nodes() if x.kind == "R"]
    assert len(dets) > 4
    for det in dets:
        _assert_one_class(det)


@pytest.mark.usefixtures("leaves")
@pytest.mark.parametrize("kind", ["contract", "insert inside",
                                  "merge across", "insert across"])
def test_joining_the_classes_widens(kind):
    # a contraction, an insertion inside one class and a merge of
    # corners of different classes join the two classes: every leaf
    # then tracks all its vertices for good, and the query stays exact.
    # An insertion across the classes keeps the graph bipartite and the
    # leaves on their class
    mutated = 0
    for seed in range(4):
        g, rng = _radial_with_hexagons(seed)
        hexagons = [f for f in g.faces() if len(f) == 6]
        if "across" in kind and not hexagons:
            continue
        mutated += 1
        det = Detector(g, debug=True)
        h = det.tree.root.graph
        _assert_one_class(det)
        if kind == "contract":
            det.contract_edge(rng.choice(sorted(h.edge_ids())))
        else:
            f = rng.choice(hexagons if "across" in kind else
                           [f for f in h.faces() if len(f) == 4])
            u, w = h.vertex_of_dart(f[0]), h.vertex_of_dart(f[len(f) // 2])
            args = (u, w, h.rotation_prev(f[0]),
                    h.rotation_prev(f[len(f) // 2]))
            if kind == "merge across":
                det.merge_across(*args)
            else:
                det.insert_edge(*args)
        assert_exact(det)
        det.check()
        if kind == "insert across":
            _assert_one_class(det)
            for _ in range(20):
                _merge_random_quad(det, rng)
                assert_exact(det)
            _assert_one_class(det)
        else:
            assert det._tracked is None
            assert all(st.K == set(st.node.graph.vertices())
                       for st in det._states.values() if st.node.is_leaf)
            run_script(det, rng, 20)
        det.check()
    assert mutated
