"""Tests for face-preserving separator trees."""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import pytest

from planarconn import separators
from planarconn.embed import (EmbeddedMultigraph, dart, edge_of,
                              parse_graph_text)
from planarconn.fourcycle import Detector
from planarconn.generators import random_delaunay, random_planar
from planarconn.oracle import simple_4cycles
from planarconn.separators import (
    ALPHA,
    SeparatorTree,
    _Snapshot,
    cycle_separations,
    length2_paths,
    triangulate,
)
from planarconn.spqr import build_spqr

from .graphs import cube, cycle, grid, hub, k4, path, triangle, wheel

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


# ----------------------------------------------------------------------
# vertex relabeling (used when a contraction's survivor label must
# appear in nodes that held only the other endpoint)

def test_rename_vertex_preserves_structure():
    g = triangle()
    rot_before = g.rotation(0)
    g.rename_vertex(0, 9)
    assert not g.has_vertex(0)
    assert g.has_vertex(9)
    assert g.rotation(9) == rot_before
    assert all(9 in g.endpoints(e) or 0 not in g.endpoints(e)
               for e in g.edge_ids())
    g.check()


def test_rename_vertex_errors():
    g = triangle()
    with pytest.raises(ValueError):
        g.rename_vertex(7, 8)
    with pytest.raises(ValueError):
        g.rename_vertex(0, 1)
    g.rename_vertex(0, 9)
    with pytest.raises(ValueError):
        g.add_vertex(9)
    g.rename_vertex(9, 0)
    assert g.has_vertex(0)
    g.check()


# ----------------------------------------------------------------------
# triangulation

def test_triangulate_c4():
    # on the sphere C4 bounds two quadrilateral faces, one diagonal each
    gt, added = triangulate(cycle(4))
    assert len(added) == 2
    assert all(len(f) == 3 for f in gt.faces())
    for verts in added.values():
        assert sorted(verts) == [0, 1, 2, 3]
    gt.check()


def test_triangulate_triangle_unchanged():
    gt, added = triangulate(triangle())
    assert added == {}
    assert gt.n_edges == 3


def test_triangulate_fan_counts():
    # a face of degree k receives k - 3 chords
    for k in (4, 5, 8):
        gt, added = triangulate(cycle(k))
        assert len(added) == 2 * (k - 3)
        assert all(len(f) == 3 for f in gt.faces())
        gt.check()


def test_triangulate_keeps_originals():
    g = grid(4, 4)
    gt, added = triangulate(g)
    assert set(gt.vertices()) == set(g.vertices())
    for e in g.edge_ids():
        assert gt.endpoints(e) == g.endpoints(e)
    assert set(added) == set(gt.edge_ids()) - set(g.edge_ids())
    assert all(len(f) == 3 for f in gt.faces())


# ----------------------------------------------------------------------
# cycle separators: the candidates SeparatorTree chooses from

def _assert_simple_cycle(g, cverts, cedges):
    assert len(cverts) == len(set(cverts)) == len(cedges)
    on = {v: 0 for v in cverts}
    for e in cedges:
        u, w = g.endpoints(e)
        assert u in on and w in on
        on[u] += 1
        on[w] += 1
    assert all(c == 2 for c in on.values())


def _candidates(g):
    """Every candidate of g, over every BFS root, best first per root,
    each built: (candidate, cycle vertices, cycle edges, separation,
    chords)."""
    snap = _Snapshot(g)
    for root in snap.roots:
        for cand in cycle_separations(snap, root):
            cverts, cedges, sep = cand.scan.materialise(cand.e)
            yield cand, cverts, cedges, sep, snap.added


def _assert_best_per_root_balanced(g):
    # g is a triangulation, so no face is crossed and the separator is
    # the cycle itself
    n = g.n_vertices
    snap = _Snapshot(g)
    assert snap.added == {}
    for root in snap.roots:
        cand = next(cycle_separations(snap, root))
        cverts, cedges, sep = cand.scan.materialise(cand.e)
        _assert_simple_cycle(g, cverts, cedges)
        assert len(cverts) <= 8 * math.sqrt(n)
        assert sep.separator == set(cverts)
        assert sep.A | sep.B == set(g.vertices())
        assert sep.is_balanced(n, ALPHA)


def test_cycle_separator_grid55():
    gt, _ = triangulate(grid(5, 5))
    _assert_best_per_root_balanced(gt)


def test_cycle_separator_strip():
    gt, _ = triangulate(grid(2, 50))
    _assert_best_per_root_balanced(gt)


# ----------------------------------------------------------------------
# face-preserving separations

def test_separation_all_original_cycle():
    # in an already-triangulated graph every separator is its cycle
    g = k4()
    seps = list(_candidates(g))
    assert seps
    for _cand, cverts, _cedges, sep, added in seps:
        assert added == {}
        assert sep.separator == set(cverts)
        assert sep.A | sep.B == {0, 1, 2, 3}
        assert sep.is_face_preserving(g)


def test_separation_quad_crossed_by_diagonal():
    # a cycle closed by a quad's diagonal pulls the remaining face
    # vertices into the separator
    g = cube()
    crossed = 0
    for cand, cverts, cedges, sep, added in _candidates(g):
        e = cedges[-1]
        assert e == cand.e
        assert not any(ce in added for ce in cedges[:-1])
        if e in added:
            crossed += 1
            assert len(added[e]) == 4
            assert sep.separator == set(cverts) | set(added[e])
        else:
            assert sep.separator == set(cverts)
        assert sep.is_face_preserving(g)
    assert crossed


def test_separation_bound_on_degree4_instances():
    # every crossed face has at most 4 vertices, so |S| <= 4 |K|
    for seed in range(3):
        g = random_planar(40, seed, max_face_degree=4,
                          keep_biconnected=False)
        cands = cycle_separations(_Snapshot(g), min(g.vertices()))
        for _, cand in zip(range(5), cands):
            cverts, _cedges, sep = cand.scan.materialise(cand.e)
            assert len(sep.separator) <= 4 * len(cverts)
            assert sep.is_face_preserving(g)
            assert sep.A | sep.B == set(g.vertices())


def _grid_with_digons(rows, cols):
    """A grid with every third edge doubled, so that the triangulation
    keeps faces of degree 2."""
    g = grid(rows, cols)
    for e in list(g.edge_ids())[::3]:
        u, w = g.endpoints(e)
        g.insert_edge(u, w, after_u=dart(e, 0),
                      after_w=g.rotation_prev(dart(e, 1)))
    return g


def _counted_graphs(g):
    """g and every connected graph the separator tree of g tried to
    split, down to its deepest levels."""
    return [x.graph for x in SeparatorTree(g).nodes()
            if length2_paths(x.graph) > separators.LEAF_PATHS
            and len(x.graph.components()) == 1]


@pytest.mark.usefixtures("small_leaves")
@pytest.mark.parametrize("make", [
    lambda: grid(5, 5),
    lambda: grid(2, 50),
    lambda: _grid_with_digons(6, 6),
    lambda: random_delaunay(40, 0).vertex_face_graph()[0],
    lambda: random_delaunay(60, 3).vertex_face_graph()[0],
    lambda: random_planar(32, 1, 24).vertex_face_graph()[0],
    lambda: random_planar(40, 2, 24).vertex_face_graph()[0],
], ids=["grid5x5", "grid2x50", "grid6x6digons", "delaunay40fv",
        "delaunay60fv", "planar32fv", "planar40fv"])
def test_counted_sizes_match_built_separation(make):
    # the scores come from Euler's formula and O(1) tests per vertex of
    # a crossed face; building each candidate must give the same sizes,
    # also where digon faces make the all-triangles estimate wrong
    closers = set()
    for h in _counted_graphs(make()):
        for cand, _cverts, _cedges, sep, added in _candidates(h):
            assert (cand.size_a, cand.size_b, cand.size_s,
                    cand.open_a, cand.open_b) == (
                len(sep.A), len(sep.B), len(sep.separator),
                len(sep.A - sep.B), len(sep.B - sep.A))
            closers.add("chord" if cand.e in added else "edge")
    assert closers == {"chord", "edge"}


@pytest.mark.usefixtures("small_leaves")
def test_split_walks_faces_once_and_builds_one_separation(monkeypatch):
    # every BFS root shares the faces of the split's triangulation,
    # walked once, and only the returned candidate is built; a walk per
    # root and one built separation per candidate would put both counts
    # several times higher
    faces = EmbeddedMultigraph.faces
    triangulate_ = separators.triangulate
    materialise = separators._RootScan.materialise
    split_sets = SeparatorTree._split_sets
    tris = []
    seen = {"walks": 0, "built": 0, "splits": 0, "returned": 0}

    def counting_faces(self):
        seen["walks"] += any(self is gt for gt in tris)
        return faces(self)

    def keeping_triangulate(h):
        gt, added = triangulate_(h)
        tris.append(gt)
        return gt, added

    def counting_materialise(self, e):
        seen["built"] += 1
        return materialise(self, e)

    def counting_split_sets(self, h):
        connected = len(h.components()) == 1
        sep = split_sets(self, h)
        if connected:
            seen["splits"] += 1
            seen["returned"] += sep is not None
        return sep

    monkeypatch.setattr(EmbeddedMultigraph, "faces", counting_faces)
    monkeypatch.setattr(separators, "triangulate", keeping_triangulate)
    monkeypatch.setattr(separators._RootScan, "materialise",
                        counting_materialise)
    monkeypatch.setattr(SeparatorTree, "_split_sets", counting_split_sets)
    for seed in range(4):
        fv = random_planar(40, seed, 8).vertex_face_graph()[0]
        seen.update(walks=0, built=0, splits=0, returned=0)
        SeparatorTree(fv)
        assert seen["returned"] > 0
        assert seen["walks"] == seen["splits"]
        assert seen["built"] == seen["returned"]


# ----------------------------------------------------------------------
# tree construction

def test_tree_single_leaf_when_small():
    for make in (cube, k4, lambda: wheel(5)):
        t = SeparatorTree(make())
        assert t.root.is_leaf
        assert sum(1 for _ in t.nodes()) == 1


def test_tree_invariants_delaunay():
    g = random_delaunay(300, 2)
    t = SeparatorTree(g)
    t.check()
    assert not t.root.is_leaf
    # the sizes shrink geometrically from the root down to the leaves
    smallest = min(x.n_build for x in t.nodes() if x.is_leaf)
    assert t.height <= math.log(300 / smallest, 4 / 3) + 2
    by_level: dict[int, int] = {}
    for x in t.nodes():
        by_level[x.depth] = by_level.get(x.depth, 0) + x.graph.n_vertices
    # exact-sides recursion duplicates each separator into both
    # children, so the per-level constant sits near 5; 8 is the pin
    assert all(total <= 8 * 300 for total in by_level.values())


@pytest.mark.usefixtures("small_leaves")
def test_tree_deterministic():
    g = random_delaunay(120, 5)
    assert SeparatorTree(g).dump() == SeparatorTree(g).dump()


def _disjoint_union(g, h) -> EmbeddedMultigraph:
    """g beside a copy of h whose vertex and edge labels are shifted
    past g's."""
    parts = ((g, 0, 0), (h, max(g.vertices()) + 1, max(g.edge_ids()) + 1))
    return EmbeddedMultigraph.build(
        [v + sv for x, sv, _ in parts for v in x.vertices()],
        [(e + se, *(v + sv for v in x.endpoints(e)))
         for x, sv, se in parts for e in x.edge_ids()],
        {v + sv: [(edge_of(d) + se, d & 1) for d in x.rotation(v)]
         for x, sv, se in parts for v in x.vertices()})


@pytest.mark.usefixtures("small_leaves")
def test_tree_over_disconnected_graph(monkeypatch):
    # a component above ALPHA n is split and the rest parked on the
    # smaller side; smaller components are dealt out to balance the sides
    split = SeparatorTree._split_disconnected
    big_branch = []

    def spy(self, h, comps):
        big_branch.append(max(map(len, comps)) > ALPHA * h.n_vertices)
        return split(self, h, comps)

    monkeypatch.setattr(SeparatorTree, "_split_disconnected", spy)
    for n1, n2, big in ((150, 30, True), (60, 60, False)):
        big_branch.clear()
        g = _disjoint_union(random_delaunay(n1, 1), random_delaunay(n2, 2))
        SeparatorTree(g).check()
        Detector(g).check()
        assert big in big_branch


def test_tree_dump_format():
    t = SeparatorTree(random_delaunay(60, 1))
    lines = t.dump().splitlines()
    assert lines[0].startswith("node: |V|=60 ")
    assert all("|S|=" in ln and "depth=" in ln for ln in lines)


def _tree_digest(t):
    """SHA-256 of the preorder (path, depth, s_build, sorted vertices,
    sorted edge ids) of a separator tree."""
    lines = []

    def rec(x, path):
        lines.append(f"{path}|{x.depth}|{x.s_build}|"
                     f"{sorted(x.graph.vertices())}|"
                     f"{sorted(x.graph.edge_ids())}")
        for i, child in enumerate(x.children):
            rec(child, path + str(i))

    rec(t.root, "")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.usefixtures("small_leaves")
@pytest.mark.parametrize("make, digest", [
    (lambda: grid(5, 5),
     "f2eab7e74e3d67238b1cf03a76b235e34968037cb4633bd034ecabc2d2da0565"),
    (lambda: grid(2, 50),
     "b9f78fddf7b0fc73e2934af466589d03fd6840add3bd75afb4c6563a68a78d3f"),
    (lambda: random_delaunay(40, 0).vertex_face_graph()[0],
     "90bc2257df9fcbb59e4a089db13f33abe05f40484db93b0e88ad0dc33084c083"),
    (lambda: random_planar(32, 1, 8),
     "e3a004bccfdf6e3384921e1aec3ef32c84e410386b83cffd3294af6a64aa044a"),
    (lambda: random_planar(32, 1, 24),
     "849d826c548f7462b81d8368dbf62e9e119f8e880318cc225aea9c29adcd6e92"),
    (lambda: random_planar(60, 1, 8).vertex_face_graph()[0],
     "74c6b835c91768edb19730285bb1b82285358fe808f2da1f63f7af492dd6ffa2"),
], ids=["grid5x5", "grid2x50", "delaunay40fv", "planar32d8", "planar32d24",
        "planar60fv"])
def test_tree_pinned(make, digest):
    # the trees with leaves of at most 32 paths and each child
    # induced in its parent's vertex order; a change of roots, candidate
    # order, key, tie-break or child order shows here (planar60fv
    # changed when children stopped following the order of a hashed set;
    # grid5x5, delaunay40fv and planar60fv when leaves were bounded by
    # their paths instead of their 16 vertices)
    assert _tree_digest(SeparatorTree(make())) == digest


def test_tree_pinned_at_leaf_size():
    # the same at the production leaf budget, on a graph large enough
    # that the root's children split again
    g = random_planar(1000, 1, 8).vertex_face_graph()[0]
    assert length2_paths(g) > 2 * separators.LEAF_PATHS
    t = SeparatorTree(g)
    assert not any(x.is_leaf for x in t.root.children)
    assert _tree_digest(t) == (
        "b2ab11fcca5a53cacd467e3fef29dc4f1176662db9e8da8fb5ed5d9d26c0d678")


@pytest.mark.parametrize("make", [
    lambda: random_planar(800, 1, 8).vertex_face_graph()[0],
    lambda: random_planar(800, 1, 24).vertex_face_graph()[0],
    lambda: wheel(400).vertex_face_graph()[0],
    lambda: hub(400).vertex_face_graph()[0],
], ids=["planar800d8fv", "planar800d24fv", "wheel400fv", "hub400fv"])
def test_leaves_are_sized_by_their_paths(make):
    # a node is split when its graph has more than LEAF_PATHS length-2
    # paths, whatever its vertex count, and is otherwise a leaf; a leaf
    # above the budget has no balanced face-preserving separation
    t = SeparatorTree(make())
    assert not t.root.is_leaf
    for x in t.nodes():
        paths = length2_paths(x.graph)
        if not x.is_leaf:
            assert paths > separators.LEAF_PATHS
        elif paths > separators.LEAF_PATHS:
            assert t._split_sets(x.graph) is None


def test_dense_corpus_r_nodes_are_one_leaf():
    # the R nodes of the dense benchmark fixtures hold up to 2,545
    # length-2 paths in their vertex-face graphs, so each detector's
    # separator tree is one leaf
    dets = []
    for path_ in sorted((CORPUS / "graphs").glob("dense_*.txt")):
        tree = build_spqr(parse_graph_text(path_.read_text()))
        dets += [x.det for x in tree.nodes() if x.kind == "R"]
    assert len(dets) >= 12
    assert all(det.tree.root.is_leaf for det in dets)


@pytest.mark.parametrize("make", [
    lambda: random_planar(800, 1, 8).vertex_face_graph()[0],
    lambda: wheel(400).vertex_face_graph()[0],
], ids=["planar800d8fv", "wheel400fv"])
def test_widened_leaves_hold_at_most_the_budget(make):
    # once the detector tracks every vertex, a leaf's table holds every
    # length-2 path of its (simple) graph, and so at most LEAF_PATHS
    det = Detector(make())
    assert det._tracked is not None and not det.tree.root.is_leaf
    det._widen()
    for st in det._states.values():
        if st.node.is_leaf:
            stored = sum(len(legs) for legs in st.paths.values())
            assert stored == length2_paths(st.node.graph)
            assert stored <= separators.LEAF_PATHS


# ----------------------------------------------------------------------
# maintenance under contractions and insertions

def test_contraction_update_rules():
    # the smallest triangulations whose trees split at the production
    # leaf budget hold about 300 vertices
    g = random_delaunay(300, 4)
    t = SeparatorTree(g)
    assert not t.root.is_leaf
    rng = random.Random(0)
    for _ in range(100):
        h = t.root.graph
        cand = [e for e in h.edge_ids() if not h.is_loop(e)]
        if not cand:
            break
        e = rng.choice(cand)
        u, w = h.endpoints(e)
        # the endpoint with more edges in the root graph keeps its
        # label, the smaller label on a tie
        du, dw = h.degree(u), h.degree(w)
        keep = u if du > dw else w if dw > du else min(u, w)
        before = {id(x): len(x.separator()) for x in t.nodes()}
        in_s = {id(x): u in x.separator() and w in x.separator()
                for x in t.nodes() if not x.is_leaf}
        at_ends = {id(x): [sorted({edge_of(d) for d in x.graph.rotation(v)})
                           for v in (u, w)]
                   for x in t.nodes()
                   if x.graph.has_vertex(u) and x.graph.has_vertex(w)}
        events = t.apply_contraction(e)
        t.check()
        # the contraction deletes e from every node holding both ends
        # first, then merges the retiring end r into keep in each: a
        # merge entry carries the node's edges at keep and at r from
        # before the call, e left out, and a node where e was r's only
        # edge retires r instead
        r = u + w - keep
        deleted = [id(ev[1]) for ev in events if ev[0] == "delete"]
        assert [ev[0] for ev in events[:len(deleted)]] == ["delete"] * len(
            deleted)
        assert all(ev[2] == e for ev in events[:len(deleted)])
        merged = {id(ev[1]): ev[2:] for ev in events
                  if ev[0] in ("merge", "retire")}
        assert sorted(deleted) == sorted(merged) == sorted(at_ends)
        for nid, (fu, fw) in at_ends.items():
            fx, fr = ([f for f in fs if f != e]
                      for fs in ((fu, fw) if keep == u else (fw, fu)))
            assert merged[nid] == ((keep, r, fx, fr) if fr else (r, keep))
        for x in t.nodes():
            if x.is_leaf or id(x) not in before:
                continue
            s_now = len(x.separator())
            assert before[id(x)] - 1 <= s_now <= before[id(x)]
            if in_s.get(id(x)):
                # both endpoints in the separator: shrinks by exactly 1
                assert s_now == before[id(x)] - 1
    assert t.root.graph.n_vertices < 300


def test_contraction_in_one_side_leaves_other_untouched():
    g = random_delaunay(400, 8)
    t = SeparatorTree(g)
    y, z = t.root.children
    sep = t.root.separation()
    h = t.root.graph
    a_only = sep.A - sep.B
    e = next(e for e in h.edge_ids() if set(h.endpoints(e)) <= a_only)
    # the rotations by dart name z's vertices, edges and embedding
    z_rotations = {v: z.graph.rotation(v) for v in z.graph.vertices()}
    events = t.apply_contraction(e)
    t.check()
    touched = {id(ev[1]) for ev in events}
    assert id(z) not in touched
    assert {v: z.graph.rotation(v)
            for v in z.graph.vertices()} == z_rotations


def test_insertion_reaches_only_nodes_with_both_endpoints():
    g = random_delaunay(400, 8)
    t = SeparatorTree(g)
    assert not t.root.is_leaf
    rng = random.Random(3)
    for _ in range(25):
        h = t.root.graph
        f = rng.choice([f for f in h.faces() if len(f) >= 3])
        d1, d2 = f[0], f[2]
        u, w = h.vertex_of_dart(d1), h.vertex_of_dart(d2)
        if u == w:
            continue
        events = t.apply_insertion(u, w, h.rotation_prev(d1),
                                   h.rotation_prev(d2))
        t.check()
        eid = events[0][2]
        with_edge = {id(x) for x in t.nodes() if x.graph.has_edge(eid)}
        both = {id(x) for x in t.nodes()
                if x.graph.has_vertex(u) and x.graph.has_vertex(w)}
        assert with_edge == both


@pytest.mark.usefixtures("small_leaves")
def test_mixed_fuzz():
    rng = random.Random(1302)
    for seed in (0, 1):
        t = SeparatorTree(random_delaunay(80, seed))
        for _ in range(60):
            h = t.root.graph
            if rng.random() < 0.5:
                cand = [e for e in h.edge_ids() if not h.is_loop(e)]
                if not cand:
                    break
                t.apply_contraction(rng.choice(cand))
            else:
                f = rng.choice([f for f in h.faces() if len(f) >= 3])
                d1, d2 = f[0], f[2]
                u, w = h.vertex_of_dart(d1), h.vertex_of_dart(d2)
                if u == w:
                    continue
                t.apply_insertion(u, w, h.rotation_prev(d1),
                                  h.rotation_prev(d2))
            t.check()


# ----------------------------------------------------------------------
# the separator's relation to 4-cycles

@pytest.mark.usefixtures("small_leaves")
def test_four_cycle_crossing_pattern():
    # a 4-cycle is inside one side, or crosses with exactly one vertex
    # in each open side and its two opposite vertices in the separator
    for seed in range(4):
        g = random_planar(48, seed, max_face_degree=6,
                          keep_biconnected=False)
        t = SeparatorTree(g)
        for x in t.nodes():
            if x.is_leaf:
                continue
            sep = x.separation()
            for (verts, _) in simple_4cycles(x.graph):
                vs = set(verts)
                if vs <= sep.A or vs <= sep.B:
                    continue
                a_only = vs & (sep.A - sep.B)
                b_only = vs & (sep.B - sep.A)
                both = vs & sep.separator
                assert len(a_only) == 1 and len(b_only) == 1
                assert len(both) == 2
                # the two separator vertices are opposite on the cycle
                (p,), (q,) = a_only, b_only
                i, j = verts.index(p), verts.index(q)
                assert (i - j) % 2 == 0
