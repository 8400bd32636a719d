"""Tests for the SPQR-tree of a biconnected plane multigraph."""

from __future__ import annotations

import contextlib
import functools
import random
from collections import Counter

import pytest

from planarconn import fourcycle, separators, spqr
from planarconn.embed import (
    EmbeddedMultigraph,
    EmbedError,
    LabelInUse,
    NotBiconnected,
    TooFewEdges,
    UnknownEdge,
    UnknownVertex,
    dart,
    edge_of,
    from_straight_line_drawing,
)
from planarconn.generators import random_delaunay, random_planar
from planarconn.oracle import (
    canonical_spqr,
    is_biconnected,
    separation_classes,
    separation_pairs,
)
from planarconn.spqr import build_spqr, contract_edge, delete_edge

from .graphs import (
    bigon,
    bisection,
    cube,
    cycle,
    diamond,
    flower,
    grid,
    inner_rungs,
    k4,
    k24,
    nested,
    parallel_bundle,
    path,
    prism,
    theta,
    wheel,
)


# (n, max face degree, seeds): face degree 24 leaves long chains of S
# nodes and P hubs with real edges
BUILD_CASES = ([pytest.param(n, 8, 10, id=str(n)) for n in (12, 16, 20, 24)]
               + [pytest.param(n, 24, 6, id=f"{n}-sparse") for n in (24, 32)])


@pytest.mark.parametrize("n, max_face_degree, seeds", BUILD_CASES)
def test_build_matches_oracle(n, max_face_degree, seeds):
    for seed in range(seeds):
        g = random_planar(n, seed, max_face_degree)
        tree = build_spqr(g)
        assert tree.serialize() == canonical_spqr(g)
        tree.check()


def test_build_rejects_bad_input():
    with pytest.raises(NotBiconnected):
        build_spqr(path(4))
    with pytest.raises(TooFewEdges):
        build_spqr(parallel_bundle(2))  # only 2 edges


def test_biconnectivity_from_faces_matches_oracle():
    # random deletions and contractions (a loop is deleted, never
    # contracted) walk from biconnected graphs down to one vertex,
    # through every way a graph can fail to be biconnected; a graph with
    # a cut vertex counts under "bridge" when one of its edges is one
    rng = random.Random(0)
    seen: Counter[str] = Counter()
    for seed in range(40):
        g = random_planar(12, seed) if seed % 2 else random_delaunay(10, seed)
        while g.n_edges:
            want = is_biconnected(g)
            assert spqr.is_biconnected_embedded(g) == want, seed
            n_comps = len(g.components())
            loops = any(g.is_loop(e) for e in g.edge_ids())
            seen["biconnected"] += want
            seen["loop"] += loops
            seen["components"] += n_comps > 1
            seen["bundle"] += g.n_vertices == 2 and g.n_edges >= 2
            if not (want or loops) and n_comps == 1 and g.n_vertices >= 3:
                seen["bridge" if any(_splits(g, e) for e in g.edge_ids())
                     else "cut vertex"] += 1
            e = rng.choice(sorted(g.edge_ids()))
            if g.is_loop(e) or rng.random() < 0.5:
                g.delete_edge(e)
            else:
                g.contract_edge(e)
    assert all(seen[k] for k in ("biconnected", "loop", "components",
                                 "bundle", "cut vertex", "bridge")), seen
    # connectivity is read off Euler's formula, V - E + F = 2 over the
    # face walks of a plane graph with edges: an isolated vertex beside
    # a biconnected graph and two components that both have edges pass
    # the face walks, which meet every vertex once, and fail Euler's
    beside = k4()
    beside.add_vertex(9)
    apart = from_straight_line_drawing(
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0),
         3: (5.0, 5.0), 4: (6.0, 5.0), 5: (5.0, 6.0)},
        [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 3, 4), (4, 4, 5), (5, 5, 3)])
    for g in (beside, apart):
        assert not is_biconnected(g)
        assert not spqr.is_biconnected_embedded(g)


def _splits(g, e) -> bool:
    """Whether deleting edge ``e`` disconnects g."""
    h = g.copy()
    h.delete_edge(e)
    return len(h.components()) > len(g.components())


def test_delete_links_two_r_nodes():
    # two K4s sharing {0, 1} plus the real edge 0-1: deleting that edge
    # dissolves the two-edge P node between the R nodes, which are then
    # linked directly and stay apart.  Rooted at each of its three
    # nodes in turn, the P node is the root, the child of one R node
    # and the child of the other: the three ways a dissolved node
    # leaves the tree when one neighbour takes its place
    # (spqr._dissolve_two_edge).  Only the R nodes that stay are
    # re-pointed, two when the P node was the root and one otherwise
    coords = {0: (0, 1), 1: (0, -1), 2: (-1, 0), 3: (-2, 0), 4: (1, 0),
              5: (2, 0)}
    edges = [(0, 0, 1), (1, 0, 2), (2, 1, 2), (3, 0, 3), (4, 1, 3),
             (5, 2, 3), (6, 0, 4), (7, 1, 4), (8, 0, 5), (9, 1, 5),
             (10, 4, 5)]
    g = from_straight_line_drawing(coords, edges)
    h = g.copy()
    h.delete_edge(0)
    roots = []
    for i in range(3):
        tree = build_spqr(g)
        root = tree.nodes()[i]
        tree._reroot(root)
        tree.check()
        roots.append((root.kind, sorted(x.kind for x in spqr._children(root))))
        log = delete_edge(tree, 0)
        assert log.kind == "intact"
        assert log.tree.serialize() == canonical_spqr(h)
        log.tree.check()
        assert log.tree.parent_changes == (2 if root.kind == "P" else 1)
    assert sorted(roots) == [("P", ["R", "R"]), ("R", ["P"]), ("R", ["P"])]


def test_split_pieces_own_their_real_edges():
    # a ring of two diamonds joined by the real edges 1-2 and 3-0:
    # deleting 1-2 splits the block into both diamonds and the edge 3-0.
    # The pieces share one edge index, so an edge of one piece must be
    # refused through the other piece's handle and work through its own.
    coords = {0: (0, 2), 1: (0, -2), 4: (-1, 0), 5: (-3, 0),
              2: (4, -2), 3: (4, 2), 6: (5, 0), 7: (7, 0)}
    edges = [(0, 0, 4), (1, 0, 5), (2, 1, 4), (3, 1, 5), (4, 4, 5),
             (5, 1, 2), (6, 2, 6), (7, 2, 7), (8, 3, 6), (9, 3, 7),
             (10, 6, 7), (11, 3, 0)]
    g = from_straight_line_drawing(coords, edges)
    log = delete_edge(build_spqr(g), 5)
    assert log.kind == "path"
    left, right = (p.tree for p in log.pieces if p.tree is not None)
    assert {e for x in left.nodes() for e in x.graph.edge_ids()} >= {4}
    with pytest.raises(UnknownEdge):
        delete_edge(right, 4)
    with pytest.raises(UnknownEdge):
        spqr.contract_edge(left, 10)
    h = g.induced({0, 1, 4, 5})
    h.delete_edge(4)
    log = delete_edge(left, 4)
    assert log.kind == "intact"
    assert log.tree.serialize() == canonical_spqr(h)
    log.tree.check()
    right.check()


def test_split_retires_the_old_handle():
    # a path or star split retires the handle the op went through: an
    # op through it on an edge of any piece, the one that kept the old
    # root among them, raises UnknownEdge before anything changes
    kinds = Counter()
    for seed in range(6):
        tree = build_spqr(random_planar(30, seed, max_face_degree=8))
        rng = random.Random(seed)
        while True:
            e = rng.choice(sorted(tree.node_of_edge))
            log = rng.choice((delete_edge, contract_edge))(tree, e)
            if log.kind != "intact":
                break
            tree = log.tree
        kinds[log.kind] += 1
        for p in log.pieces or ():
            edges = p.edges if p.tree is None else [
                e for x in p.tree.nodes() for e in x.graph.edge_ids()
                if tree.node_of_edge.get(e) is x]
            for e in edges:
                for op in (delete_edge, contract_edge):
                    with pytest.raises(UnknownEdge):
                        op(tree, e)
            if p.tree is not None:
                p.tree.check()
    assert kinds["path"] and kinds["star"], kinds


def _vertices(g, edges) -> set[int]:
    return {v for e in edges for v in g.endpoints(e)}


def _record_set(records) -> set:
    """Records up to the walk that lists them: a pair with its count,
    an S record as its vertices and its consecutive pairs."""
    return {(q, k) if len(q) == 2 else
            (frozenset(q), frozenset(map(frozenset, zip(q, q[1:] + q[:1]))))
            for q, k in records.items()}


@pytest.mark.parametrize("n", (16, 20, 24))
def test_pairs_of_a_piece_are_inherited(n):
    # the split-component lemma the construction rests on: the
    # separation pairs of a split piece are the graph's pairs inside it,
    # less the split pair.  A piece is an induced subgraph closed by its
    # virtual edge, never validated by EmbeddedMultigraph.build, so it
    # must pass check() itself and carry the class's run of darts at a
    # and at b followed by the virtual edge.  A split that cuts no S
    # record, at a pair record or at the ends of an S record's arc,
    # taking the arc, leaves the piece exactly the records inside it
    compared = 0
    for seed in range(4):
        g = random_planar(n, seed, 24)
        pairs = spqr.separation_pairs_embedded(g)
        records = spqr.separation_records(g)
        rest_of_arc = {tuple(sorted(q)): set(rec) - set(q)
                       for rec in records if len(rec) > 2
                       for q in zip(rec, rec[1:] + rec[:1])}
        vid = max(g.edge_ids()) + 1
        for p in pairs:
            for cls in separation_classes(g, *p):
                if len(cls) < 2:
                    continue
                verts = _vertices(g, cls)
                piece = spqr._piece_graph(g, cls, *p, vid)
                piece.check()
                for side, v in enumerate(p):
                    want = [*spqr._class_run(g, v, cls), dart(vid, side)]
                    rot = piece.rotation(v)
                    i = rot.index(want[0])
                    assert rot[i:] + rot[:i] == want, (seed, p, v)
                assert spqr.separation_pairs_embedded(piece) == {
                    q: k for q, k in pairs.items()
                    if q != p and q[0] in verts and q[1] in verts}
                if p in records or not rest_of_arc.get(p, verts) & verts:
                    compared += 1
                    assert _record_set(spqr.separation_records(piece)) == \
                        _record_set({q: k for q, k in records.items()
                                     if q != p and verts.issuperset(q)}), \
                        (seed, p)
    assert compared


@pytest.mark.parametrize("max_face_degree", (8, 24))
def test_split_classes_match_oracle(max_face_degree):
    # at a pair all classes but one are listed; at an S record all arcs
    # but one, each one class once the pairs at its ends are cut, as in
    # a build: a lone edge, or the class at its ends that does not hold
    # the rest of the record
    for seed in range(3):
        g = random_planar(28, seed, max_face_degree)
        every = set(g.edge_ids())
        for (a, b), k in spqr.separation_pairs_embedded(g).items():
            want = set(separation_classes(g, a, b))
            singles, done = spqr._split_classes(g, (a, b), k)
            listed = {frozenset([e]) for e in singles}
            for cls, inner in done:
                assert set(inner) == _vertices(g, cls) - {a, b}
                listed.add(frozenset(cls))
            assert len(listed) == len(singles) + len(done)
            assert listed < want
            rest = every.difference(*listed)
            assert want - listed == {frozenset(rest)}
        records = spqr.separation_records(g)
        for rec in (q for q in records if len(q) > 2):
            arcs = {frozenset(q) for q in zip(rec, rec[1:] + rec[:1])}
            if any(len(q) == 2 and frozenset(q) in arcs for q in records):
                continue    # an arc of several classes, cut first
            singles, done = spqr._split_classes(g, rec, len(rec))
            got = [frozenset([e]) for e in singles]
            for cls, inner in done:
                assert set(inner) == _vertices(g, cls) - set(rec)
                got.append(frozenset(cls))
            assert len(got) == len(rec) - 1
            ends = [frozenset(_vertices(g, c) & set(rec)) for c in got]
            assert len(set(ends)) == len(got) and set(ends) < arcs
            for c, q in zip(got, ends):
                assert c in separation_classes(g, *q) or len(c) == 1
            (stay,) = arcs - set(ends)
            assert _vertices(g, every.difference(*got)) & set(rec) == stay


def _fixed_graphs() -> list:
    """Long faces, hubs, poles shared by many S nodes, and pairs joined
    by parallel edges, unlike random_planar's: thetas of 3 and 4 paths
    of length 2 and 3, K_{2,4} and K_{2,6}, ladders, cycles, wheels,
    flowers (a hub sharing three or four faces with each rim vertex)
    and a prism."""
    return [k24(), *map(cycle, range(3, 8)), *map(wheel, range(3, 9)),
            cube(), diamond(), k4(), prism(5), flower(4), flower(5, 2),
            *map(theta, ((2, 3, 2), (3, 3, 3), (2, 2, 3, 3), (3, 2, 3, 2),
                         (2,) * 6)),
            *(grid(2, k) for k in range(3, 7))]


@pytest.mark.parametrize("case", (8, 24, "fixed"))
def test_pair_counts_are_class_counts(case):
    # the classes at (a, b) are the sectors of a's rotation between the
    # faces that hold b too, an a-b edge counting as one, so a pair's
    # number of common faces is its number of classes; and the pairs
    # are exactly the oracle's.  The fixed graphs have long faces or
    # pairs joined by parallel edges, unlike random_planar's
    if case == "fixed":
        graphs = [*map(parallel_bundle, range(3, 7)), bigon(),
                  *_fixed_graphs()]
    else:
        graphs = [random_planar(40, seed, case) for seed in range(6)]
    for i, g in enumerate(graphs):
        pairs = spqr.separation_pairs_embedded(g)
        assert {frozenset(p) for p in pairs} == separation_pairs(g), i
        for (a, b), k in pairs.items():
            assert k == len(separation_classes(g, a, b)), (i, a, b)


def test_s_records_are_s_nodes():
    # a face pair with three or more common vertices is one S node, its
    # common vertices in the order of the node's cycle, so the S nodes
    # of a build are its S records.  In K_{2,k} each of them is seen
    # only from the poles, as two faces consecutive around one; the
    # prism, triconnected, has no record at all
    assert spqr.separation_records(prism(6)) == {}
    graphs = [random_planar(40, seed, 24) for seed in range(6)]
    for i, g in enumerate(graphs + _fixed_graphs()):
        cycles = {q: k for q, k in spqr.separation_records(g).items()
                  if len(q) > 2}
        nodes = [x.graph for x in build_spqr(g).nodes() if x.kind == "S"]
        assert len(cycles) == len(nodes) and (nodes or i >= len(graphs))
        assert _record_set(cycles) == {
            (frozenset(h.vertices()), frozenset(
                frozenset(h.endpoints(e)) for e in h.edge_ids()))
            for h in nodes}


def test_skeletons_are_assembled_in_place(monkeypatch):
    # every skeleton is made from a plane graph spqr holds: S and P
    # skeletons by _splice, a fresh one written whole into an empty graph,
    # copied pieces as induced subgraphs, the last piece in the graph
    # itself.  So nothing inside build_spqr, delete_edge or
    # contract_edge validates a rotation system through
    # EmbeddedMultigraph.build.  A fresh bundle runs in id order at its
    # smaller pole and in reverse at the other
    build = EmbeddedMultigraph.build.__func__
    splice = spqr._splice
    seen = {"inside": False, "builds": 0, "S": 0, "P": 0, "ops": 0}

    def counting_build(cls, vertices, edges, rotations):
        seen["builds"] += seen["inside"]
        return build(cls, vertices, edges, rotations)

    def inside(fn, *args):
        seen["inside"] = True
        try:
            return fn(*args)
        finally:
            seen["inside"] = False

    def checked_splice(kind, g, cut, edges):
        edges = list(edges)
        fresh = not g.n_edges
        splice(kind, g, cut, edges)
        if not fresh:
            return
        assert not cut
        g.check()
        assert sorted(g.edge_ids()) == sorted(e for e, _, _ in edges)
        assert all(g.endpoints(e) == (u, w) for e, u, w in edges)
        if kind == "S":
            assert len(g.components()) == 1
            assert all(g.degree(v) == 2 for v in g.vertices())
        else:
            a, b = sorted(g.vertices())
            at_a = [edge_of(d) for d in g.rotation(a)]
            at_b = [edge_of(d) for d in g.rotation(b)]
            i = at_a.index(min(at_a))
            assert at_a[i:] + at_a[:i] == sorted(at_a)
            i = at_b.index(max(at_b))
            assert at_b[i:] + at_b[:i] == sorted(at_b, reverse=True)
        seen[kind] += 1

    monkeypatch.setattr(EmbeddedMultigraph, "build",
                        classmethod(counting_build))
    monkeypatch.setattr(spqr, "_splice", checked_splice)
    for seed in range(4):
        g = random_planar(40, seed, 24)
        tree = inside(build_spqr, g)
        assert tree.serialize() == canonical_spqr(g)
        tree.check()
    for seed in REPLAY_SEEDS:
        g, ops, wants = _replay_case(seed)
        tree = inside(build_spqr, g)
        for (op, e), want in zip(ops, wants):
            fn = delete_edge if op == "d" else contract_edge
            tree = inside(fn, tree, e).tree
            seen["ops"] += 1
            assert tree.serialize() == want
        tree.check()
    assert seen["builds"] == 0 and seen["S"] and seen["P"] and seen["ops"]
    # the first edge of a bundle may run from its larger pole
    checked_splice("P", EmbeddedMultigraph(), [],
                   [(0, 1, 0), (1, 0, 1), (2, 1, 0), (3, 0, 1)])
    with pytest.raises(AssertionError, match="not a cycle"):
        splice("S", EmbeddedMultigraph(), [],
               [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3)])


def test_build_counts_pairs_once(monkeypatch):
    # every piece inherits its separation records, only the classes
    # that finish first are copied out, a path class is recorded as an
    # S piece without a copy, and S and P pieces stay edge lists until
    # their nodes are known.  So the listing runs once, _splice writes
    # one fresh skeleton per S or P node, and the edges handed to
    # EmbeddedMultigraph.build stay within 3m: the skeletons hold m
    # real edges and two per tree edge (no piece goes through build at
    # all, which test_skeletons_are_assembled_in_place asserts).  A
    # recount and copy per level hands over Theta(m^2), and a skeleton
    # built per piece and again per merged node about m log m
    build = EmbeddedMultigraph.build.__func__
    list_records = spqr.separation_records
    splice = spqr._splice
    seen = {"counts": 0, "edges": 0, "skeletons": 0}

    def counting_build(cls, vertices, edges, rotations):
        edges = list(edges)
        seen["edges"] += len(edges)
        return build(cls, vertices, edges, rotations)

    def counting_records(g, faces):
        seen["counts"] += 1
        return list_records(g, faces)

    def counting_splice(kind, g, cut, edges):
        seen["skeletons"] += not g.n_edges
        return splice(kind, g, cut, edges)

    monkeypatch.setattr(EmbeddedMultigraph, "build",
                        classmethod(counting_build))
    monkeypatch.setattr(spqr, "separation_records", counting_records)
    monkeypatch.setattr(spqr, "_splice", counting_splice)
    for seed in range(4):
        g = random_planar(40, seed, 24)
        m = g.n_edges
        seen.update(counts=0, edges=0, skeletons=0)
        tree = build_spqr(g)
        assert seen["counts"] == 1
        assert seen["skeletons"] == sum(x.kind in "SP" for x in tree.nodes())
        assert seen["edges"] <= 3 * m


# Update replay: seeded deletions and contractions on small random
# graphs; the fuzz section of ``python -m tests.standing`` runs the same
# cases at more sizes and seeds.  A step shuffles the edge ids, draws an op per candidate and
# takes the first candidate that leaves a loop-free biconnected graph
# with at least three edges, so every op keeps one block.
REPLAY_N = 20
REPLAY_STEPS = 25
# 8, 18, 21, 25 and 26 once left an R skeleton with a vertex of degree
# below 3 after splitting it (at ops 1, 4, 0, 4 and 2, counting from 0);
# 36 and 39 once hit an edge id that a split had left in two skeletons
REPLAY_SEEDS = (*range(12), 18, 21, 25, 26, 36, 39)


def _replay_ops(seed: int, n: int = REPLAY_N, steps: int = REPLAY_STEPS):
    """The start graph of ``n`` vertices, up to ``steps`` ops that each
    keep one loop-free biconnected block of at least three edges, and
    the graph after each op."""
    rng = random.Random(seed * 1000 + n)
    g = random_planar(n, seed)
    start, ops, graphs = g.copy(), [], []
    for _ in range(steps):
        ids = sorted(g.edge_ids())
        rng.shuffle(ids)
        for e in ids:
            op = rng.choice("dc")
            h = g.copy()
            if op == "d":
                h.delete_edge(e)
            else:
                h.contract_edge(e)
            if h.n_edges >= 3 and spqr.is_biconnected_embedded(h):
                break
        else:
            break
        ops.append((op, e))
        graphs.append(h)
        g = h
    return start, tuple(ops), graphs


@functools.cache
def _replay_case(seed: int, n: int = REPLAY_N):
    """The start graph of ``n`` vertices, the op sequence and the
    oracle's tree after each op."""
    start, ops, graphs = _replay_ops(seed, n)
    return start, ops, tuple(canonical_spqr(h) for h in graphs)


@contextlib.contextmanager
def parent_moves():
    """The nodes whose parent pointer a counted ``SpqrTree.set_parent``
    call changes inside the block, in call order.  Only nodes that stay
    in a tree may count, so after an update they must all be in the
    trees it returns."""
    moved: list[spqr.SpqrNode] = []
    set_parent = spqr.SpqrTree.set_parent

    def recording(tree, node, parent):
        if node.parent is not parent:
            moved.append(node)
        set_parent(tree, node, parent)

    spqr.SpqrTree.set_parent = recording
    try:
        yield moved
    finally:
        spqr.SpqrTree.set_parent = set_parent


@functools.cache
def _replay(seed: int, extra_calls: bool,
            leaf_paths: int) -> tuple[str, ...]:
    """Per op: the tree's serialization after ``check()``, or the first
    failed check, which ends the replay.  ``extra_calls`` adds pure
    queries between ops, which must not change anything.
    ``leaf_paths`` is ``separators.LEAF_PATHS`` at the call: the R
    nodes' separator trees are built with it, so the cache keys on it.
    Every node an op counts as re-parented must be in the tree it
    returns."""
    g, ops, _ = _replay_case(seed)
    tree = build_spqr(g)
    out = []
    for op, e in ops:
        fn = delete_edge if op == "d" else spqr.contract_edge
        try:
            with parent_moves() as moved:
                log = fn(tree, e)
            assert log.kind == "intact", log.kind
            tree = log.tree
            assert set(moved) <= set(tree.nodes()), \
                "a node that left the tree counted as re-parented"
            if extra_calls:
                tree.serialize()
                tree.nodes()
            tree.check()
        except (AssertionError, EmbedError, ValueError) as ex:
            out.append(f"{type(ex).__name__}: {ex}")
            break
        out.append(tree.serialize())
    return tuple(out)


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_update_replay_is_deterministic(seed):
    leaf_paths = separators.LEAF_PATHS
    assert _replay(seed, False, leaf_paths) == _replay(seed, True, leaf_paths)


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_update_replay_matches_oracle(seed):
    assert (_replay(seed, False, separators.LEAF_PATHS)
            == _replay_case(seed)[2])


@pytest.mark.usefixtures("small_leaves")
@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_update_replay_matches_oracle_small_leaves(seed):
    # the same updates with detectors whose trees have internal nodes,
    # so real SPQR updates drive the separator maintenance in them
    tree = build_spqr(_replay_ops(seed)[0])
    assert any(not x.det.tree.root.is_leaf
               for x in tree.nodes() if x.kind == "R")
    assert (_replay(seed, False, separators.LEAF_PATHS)
            == _replay_case(seed)[2])


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_detector_reports_every_separation_pair(seed, monkeypatch):
    # an R split peels the pairs the detector reports, so after every
    # surgery they must be exactly the pairs a fresh count finds
    r_pairs = spqr._r_pairs
    found = []

    def counted(x):
        pairs = r_pairs(x)
        assert pairs == spqr.separation_pairs_embedded(x.graph)
        found.append(len(pairs))
        return pairs

    monkeypatch.setattr(spqr, "_r_pairs", counted)
    g, ops, wants = _replay_case(seed)
    tree = build_spqr(g)
    for (op, e), want in zip(ops, wants):
        fn = delete_edge if op == "d" else spqr.contract_edge
        tree = fn(tree, e).tree
        assert tree.serialize() == want
    assert any(found)


def test_updates_never_count_separation_pairs(monkeypatch):
    # the pieces of an R split inherit the pairs the detector reported,
    # so an update never lists records or counts pairs; construction
    # lists them once and is left out of the count
    calls = Counter()

    def counted(name):
        fn = getattr(spqr, name)

        def run(g):
            calls[name] += 1
            return fn(g)
        return run

    for seed in REPLAY_SEEDS:
        g, ops, wants = _replay_case(seed)
        tree = build_spqr(g)
        for (op, e), want in zip(ops, wants):
            fn = delete_edge if op == "d" else spqr.contract_edge
            for name in ("separation_records", "separation_pairs_embedded"):
                monkeypatch.setattr(spqr, name, counted(name))
            tree = fn(tree, e).tree
            monkeypatch.undo()
            assert tree.serialize() == want
    assert not calls


def test_r_cut_walks_no_cycle(monkeypatch):
    # the surgeries of a cut log pairs that the split resets unread, so
    # none of them may walk a 4-cycle of the detector (these skeletons'
    # separator trees are single leaves, so no contraction inserts an
    # edge into a child node and walks the face it splits); nor may a
    # build, whose R skeletons are triconnected: their detectors log
    # pairs that _attach_r resets unread
    r_cut = spqr._r_cut
    walk = fourcycle.cycle_is_separating
    seen = {"inside": 0, "cuts": 0, "walks": 0}

    def counted_cut(*args):
        seen["inside"] += 1
        seen["cuts"] += 1
        try:
            return r_cut(*args)
        finally:
            seen["inside"] -= 1

    def counted_walk(*args):
        seen["walks"] += bool(seen["inside"])
        return walk(*args)

    monkeypatch.setattr(spqr, "_r_cut", counted_cut)
    monkeypatch.setattr(fourcycle, "cycle_is_separating", counted_walk)
    seen["inside"] += 1
    tree = build_spqr(random_planar(100, 1))
    seen["inside"] -= 1
    assert any(x.kind == "R" for x in tree.nodes())
    for seed in REPLAY_SEEDS:
        g, ops, wants = _replay_case(seed)
        tree = build_spqr(g)
        for (op, e), want in zip(ops, wants):
            fn = delete_edge if op == "d" else spqr.contract_edge
            tree = fn(tree, e).tree
            assert tree.serialize() == want
    assert seen["cuts"] and not seen["walks"]


def test_r_merges_insert_no_diagonal(monkeypatch):
    # every merge of an R surgery, a top-level update's or a cut step's,
    # happens in place, whatever the degree of the corner that retires:
    # it inserts no diagonal into the separator tree.  On these replays
    # each is across a quad of four distinct corners of the vertex-face
    # graph; a cut that contracts a bridge of the partly cut skeleton
    # merges across a face that repeats a corner, and test_duality.py
    # reaches that case
    r_cut = spqr._r_cut
    merge = fourcycle.Detector.merge_across
    insertion = separators.SeparatorTree.apply_insertion
    seen = {"inside": 0, "inserts": 0}
    merges = Counter()

    def counted_cut(*args):
        seen["inside"] += 1
        try:
            return r_cut(*args)
        finally:
            seen["inside"] -= 1

    def checked_merge(self, u, w, after_u, after_w):
        h = self.tree.root.graph
        gone = u + w - separators.merge_survivor(h, u, w)
        merges["cut" if seen["inside"] else "top",
               h.degree(gone) == 2] += 1
        inserts = seen["inserts"]
        x = merge(self, u, w, after_u, after_w)
        assert seen["inserts"] == inserts, "an R merge inserted"
        return x

    def counted_insertion(self, *args, **kw):
        seen["inserts"] += 1
        return insertion(self, *args, **kw)

    monkeypatch.setattr(spqr, "_r_cut", counted_cut)
    monkeypatch.setattr(fourcycle.Detector, "merge_across", checked_merge)
    monkeypatch.setattr(separators.SeparatorTree, "apply_insertion",
                        counted_insertion)
    for seed in REPLAY_SEEDS:
        g, ops, wants = _replay_case(seed)
        tree = build_spqr(g)
        for (op, e), want in zip(ops, wants):
            fn = delete_edge if op == "d" else spqr.contract_edge
            tree = fn(tree, e).tree
            assert tree.serialize() == want
    assert not seen["inserts"]
    assert merges["top", False] and merges["cut", False], merges


def test_cut_contractions_keep_the_busier_end(monkeypatch):
    # a skeleton merge rewrites the darts of the end that retires, so
    # every contraction a cut makes keeps a or b, or the end with at
    # least as many skeleton edges: a cut moves only the smaller side.
    # Seed 9 reaches an inner contraction whose smaller label is the
    # end with fewer edges
    r_cut, r_remove = spqr._r_cut, spqr._r_remove
    poles, seen = [], Counter()

    def cut(x, gone, a, b):
        poles.append((a, b))
        try:
            return r_cut(x, gone, a, b)
        finally:
            poles.pop()

    def remove(x, e, keep=None):
        if poles and keep is not None:
            g = x.graph
            u, w = g.endpoints(e)
            if keep in poles[-1]:
                seen["pole"] += 1
            else:
                assert g.degree(keep) >= g.degree(u + w - keep), (u, w)
                seen["inner", keep == min(u, w)] += 1
        return r_remove(x, e, keep)

    monkeypatch.setattr(spqr, "_r_cut", cut)
    monkeypatch.setattr(spqr, "_r_remove", remove)
    for seed in REPLAY_SEEDS:
        g, ops, _graphs = _replay_ops(seed)
        tree = build_spqr(g)
        for op, e in ops:
            fn = delete_edge if op == "d" else spqr.contract_edge
            tree = fn(tree, e).tree
        tree.check()
    assert seen["pole"] and seen["inner", True] and seen["inner", False], \
        seen


def test_r_detectors_never_widen(monkeypatch):
    # every R surgery merges two corners of one colour class of the
    # vertex-face graph, a deletion two faces and a contraction two
    # skeleton vertices, so the leaves of every R node's detector track
    # one class for the detector's whole life
    widen = fourcycle.Detector._widen
    calls = []

    def counted(self):
        calls.append(self)
        return widen(self)

    monkeypatch.setattr(fourcycle.Detector, "_widen", counted)
    narrowed = 0
    for seed in REPLAY_SEEDS:
        g, ops, wants = _replay_case(seed)
        tree = build_spqr(g)
        for (op, e), want in zip(ops, wants):
            fn = delete_edge if op == "d" else spqr.contract_edge
            tree = fn(tree, e).tree
            assert tree.serialize() == want
            narrowed += sum(x.det._tracked is not None
                            for x in tree.nodes() if x.kind == "R")
    assert narrowed and not calls


@pytest.mark.usefixtures("small_leaves")
def test_potential_audit_holds_on_r_nodes(monkeypatch):
    # the detector's debug audit (every mutation's candidates paid by
    # the potential drop it causes) holds on the vertex-face graphs that
    # R nodes feed it, with separator trees that have internal nodes
    detector = fourcycle.Detector
    phi = detector._phi
    calls = {"phi": 0}

    def counted_phi(self, node, K):
        calls["phi"] += 1
        return phi(self, node, K)

    monkeypatch.setattr(spqr, "Detector",
                        functools.partial(detector, debug=True))
    monkeypatch.setattr(detector, "_phi", counted_phi)
    for seed in REPLAY_SEEDS:
        g, ops, wants = _replay_case(seed)
        tree = build_spqr(g)
        for (op, e), want in zip(ops, wants):
            fn = delete_edge if op == "d" else spqr.contract_edge
            tree = fn(tree, e).tree
            assert tree.serialize() == want
    assert calls["phi"]


def test_path_classes_are_never_copied(monkeypatch):
    # builds and R splits share one decomposition: in both, a listed
    # class whose inner vertices all have degree 2 is a path, recorded
    # as an S piece directly, so _piece_graph only ever copies out a
    # class with a branching inner vertex
    piece_graph = spqr._piece_graph
    split_classes = spqr._split_classes
    seen = {"copies": 0, "paths": 0}

    def is_path(g, cls, rec):
        return all(g.degree(v) == 2 for v in _vertices(g, cls) - set(rec))

    def checked_piece_graph(g, cls, a, b, vid):
        assert not is_path(g, cls, (a, b)), "a path class was copied out"
        seen["copies"] += 1
        return piece_graph(g, cls, a, b, vid)

    def counted_split_classes(g, rec, k):
        singles, done = split_classes(g, rec, k)
        seen["paths"] += sum(is_path(g, cls, rec) for cls, _ in done)
        return singles, done

    monkeypatch.setattr(spqr, "_piece_graph", checked_piece_graph)
    monkeypatch.setattr(spqr, "_split_classes", counted_split_classes)
    for case in BUILD_CASES:
        n, max_face_degree, seeds = case.values
        for seed in range(seeds):
            build_spqr(random_planar(n, seed, max_face_degree))
    for seed in REPLAY_SEEDS:
        g, ops, wants = _replay_case(seed)
        tree = build_spqr(g)
        for (op, e), want in zip(ops, wants):
            fn = delete_edge if op == "d" else spqr.contract_edge
            tree = fn(tree, e).tree
            assert tree.serialize() == want
    assert seen["copies"] and seen["paths"]


@pytest.mark.parametrize("seeds", ("replays", "builds"))
def test_split_scans_stop_at_the_class_count(seeds, monkeypatch):
    # a split runs one search per neighbour of the record's vertices
    # but the one of largest degree (a pair's pole of smaller degree),
    # one scan each per round, and stops once all classes but one are
    # complete (at an S record, all arcs but one), which takes as many
    # rounds as its largest listed class has vertices: so it reads at
    # most the record's degree sum less its largest x (that count + 1)
    # rotations, those at the record and the listed classes' edges
    # included, however large what it leaves out is
    split_classes = spqr._split_classes
    seen = {"calls": 0, "listed": 0, "S": 0}

    def bounded(g, rec, *rest):
        rotation = g.rotation
        reads = [0]

        def counted(v):
            reads[0] += 1
            return rotation(v)

        g.rotation = counted
        try:
            singles, done = split_classes(g, rec, *rest)
        finally:
            del g.rotation
        largest = max((len(inner) for _, inner in done), default=0)
        degrees = list(map(g.degree, rec))
        assert reads[0] <= (sum(degrees) - max(degrees)) * (largest + 1), \
            (rec, reads[0])
        seen["calls"] += 1
        seen["listed"] += len(done)
        seen["S"] += len(rec) > 2
        return singles, done

    monkeypatch.setattr(spqr, "_split_classes", bounded)
    if seeds == "builds":
        for seed in range(4):
            build_spqr(random_planar(100, seed, 24))
    else:
        for seed in REPLAY_SEEDS:
            g, ops, wants = _replay_case(seed)
            tree = build_spqr(g)
            for (op, e), want in zip(ops, wants):
                fn = delete_edge if op == "d" else spqr.contract_edge
                tree = fn(tree, e).tree
                assert tree.serialize() == want
    assert seen["calls"] and seen["listed"] and seen["S"]


def _split_reads(monkeypatch) -> Counter:
    """Counts of what ``_split_classes`` reads from now on, until they
    are cleared: the rotations of vertices off its record
    (``scanned``), the inner vertices of the classes it lists
    (``listed``), and per record vertex the reads of its rotation."""
    split_classes = spqr._split_classes
    seen: Counter = Counter()

    def counted(g, rec, k):
        rotation = g.rotation

        def counting(v):
            seen[v if v in rec else "scanned"] += 1
            return rotation(v)

        g.rotation = counting
        try:
            singles, done = split_classes(g, rec, k)
        finally:
            del g.rotation
        seen["listed"] += sum(len(inner) for _, inner in done)
        return singles, done

    monkeypatch.setattr(spqr, "_split_classes", counted)
    return seen


def test_split_searches_start_at_the_smaller_pole(monkeypatch):
    # a pair's searches start at its pole of smaller degree: the
    # flower's hub, which is a pole of every pair, is never read, so a
    # build scans as many vertices per listed vertex at every size,
    # where searches from the hub scanned about one per petal.  A rim
    # contraction of a wheel splits its R node at the hub and the
    # merged rim vertex without reading the hub's rotation
    ratios = []
    seen = _split_reads(monkeypatch)
    for t in (8, 16):
        seen.clear()
        tree = build_spqr(flower(t))
        assert tree.serialize() == canonical_spqr(flower(t))
        assert seen[0] == 0 and seen["listed"], seen
        ratios.append(seen["scanned"] / seen["listed"])
    assert ratios[0] == ratios[1], ratios
    g = wheel(64)
    tree = build_spqr(g)
    seen.clear()
    log = contract_edge(tree, 0)
    assert seen["listed"] == 0 and seen[1] == 1 and seen[0] == 0, seen
    g.contract_edge(0)
    log.tree.check()
    assert log.tree.serialize() == canonical_spqr(g)


def test_class_run_walks_from_the_class(monkeypatch):
    # the darts of a class at a vertex are one circular run of its
    # rotation, walked out from one of the class's own darts, so the
    # vertex's rotation is never listed: a class at a hub costs the
    # class.  A run may wrap past the vertex's first dart, a class may
    # hold every dart there, and a class whose darts there are not
    # consecutive still fails
    g = wheel(8)
    rot = g.rotation(0)
    spokes = [edge_of(d) for d in rot]

    def no_rotation(v):
        raise AssertionError(f"rotation of {v} listed")

    monkeypatch.setattr(g, "rotation", no_rotation)
    assert spqr._class_run(g, 0, set(spokes[-2:] + spokes[:2])) == \
        rot[-2:] + rot[:2]
    run = spqr._class_run(g, 0, set(spokes))
    i = rot.index(run[0])
    assert run == rot[i:] + rot[:i]
    with pytest.raises(AssertionError, match="not circularly consecutive"):
        spqr._class_run(g, 0, {spokes[0], spokes[2]})


def _theta_renames(k: int, order) -> list[int]:
    """Renames per op when contracting hub-i for i in ``order`` on the
    theta: hub k+1 and 0 joined by the k paths k+1 - i - 0, one P node
    with k S children.  Edge 2i - 2 joins the hub to i."""
    coords = {0: (0.0, 0.0), k + 1: (0.0, 2.0)}
    edges = []
    for i in range(1, k + 1):
        coords[i] = (i - (k + 1) / 2, 1.0)
        edges += [(2 * i - 2, k + 1, i), (2 * i - 1, i, 0)]
    g = from_straight_line_drawing(coords, edges)
    tree = build_spqr(g)
    out = []
    for i in order:
        before = tree.renames
        g.contract_edge(2 * i - 2)
        tree = contract_edge(tree, 2 * i - 2).tree
        out.append(tree.renames - before)
    tree.check()
    assert tree.serialize() == canonical_spqr(g)
    return out


def test_renames_follow_label_order():
    # the smaller label survives: contracting toward ever smaller
    # labels retires the hub's label at every op, in every node that
    # holds it, while the increasing order renames the hub once
    k = 12
    assert _theta_renames(k, range(k, k // 2, -1)) == [
        k - j for j in range(k // 2)]
    assert _theta_renames(k, range(1, k // 2 + 1)) == [k] + [0] * (k // 2 - 1)


def test_ladder_merges_splice_in_place(monkeypatch):
    # deleting the inner rungs of the ladder grid(2, k) in order
    # dissolves one P node per op and merges the growing S node with
    # the next square: the smaller skeleton is spliced into the larger
    # by _join, so no update builds a graph, and a join inserts at most
    # the smaller skeleton's edge count; the dissolved P node's two S
    # neighbours are joined directly, so no edge is renamed
    k = 30
    g = grid(2, k)
    tree = build_spqr(g)
    build = EmbeddedMultigraph.build.__func__
    insert = EmbeddedMultigraph.insert_edge
    rename = EmbeddedMultigraph.rename_edge
    join = spqr._join
    seen = {"builds": 0, "inserts": 0, "merges": 0, "renames": 0}

    def counting_build(cls, *args):
        seen["builds"] += 1
        return build(cls, *args)

    def counting_insert(self, *args, **kw):
        seen["inserts"] += 1
        return insert(self, *args, **kw)

    def counting_rename(self, *args):
        seen["renames"] += 1
        return rename(self, *args)

    def checked_join(shared, nd, olds, seams, edges):
        smaller = min(m.graph.n_edges for m in olds)
        inserts = seen["inserts"]
        seen["merges"] += 1
        out = join(shared, nd, olds, seams, edges)
        assert seen["inserts"] - inserts <= smaller
        return out

    monkeypatch.setattr(EmbeddedMultigraph, "build",
                        classmethod(counting_build))
    monkeypatch.setattr(EmbeddedMultigraph, "insert_edge", counting_insert)
    monkeypatch.setattr(EmbeddedMultigraph, "rename_edge", counting_rename)
    monkeypatch.setattr(spqr, "_join", checked_join)
    for e in inner_rungs(g, k):
        g.delete_edge(e)
        log = delete_edge(tree, e)
        assert log.kind == "intact"
        tree = log.tree
        tree.check()
    monkeypatch.undo()
    assert seen["builds"] == 0
    assert seen["merges"] == k - 2
    assert seen["renames"] == 0
    assert tree.serialize() == canonical_spqr(g)


def test_a_split_costs_what_leaves(monkeypatch):
    # deleting an edge at a vertex of degree 3 of the large R node x of
    # a dense graph leaves that vertex of degree 2, and its two edges
    # leave x as an S piece, alone or with a P hub.  x holds about 150
    # twins, and the split re-hangs only what changed: a few set_parent
    # calls, none per twin of x.  Equal-kind joins are made in
    # _merge_same_kind, so no node dissolves inside the split, and a
    # piece whose group holds an old node is spliced into it by _join,
    # so every fresh skeleton _splice writes is a node new in the tree
    g = random_planar(400, 0, 8)
    tree = build_spqr(g)
    x = max(tree.nodes(), key=lambda nd: nd.graph.n_edges)
    assert x.kind == "R" and len(x.twin) >= 50
    seen = Counter()
    inside = []

    def counting(name, fn):
        def run(*args, **kw):
            fresh = name == "_splice" and not args[1].n_edges
            key = "fresh _splice" if fresh else name
            seen[key] += 1
            if inside:
                seen[key + " in split"] += 1
            return fn(*args, **kw)
        monkeypatch.setattr(spqr, name, run)

    def split(tree, node):
        inside.append(node)
        try:
            split_r_node(tree, node)
        finally:
            inside.pop()

    split_r_node = spqr._split_r_node
    monkeypatch.setattr(spqr, "_split_r_node", split)
    for name in ("_dissolve_two_edge", "_join", "_splice"):
        counting(name, getattr(spqr, name))
    set_parent = spqr.SpqrTree.set_parent
    monkeypatch.setattr(spqr.SpqrTree, "set_parent", lambda *args: (
        seen.update(["set_parent"]), set_parent(*args)))
    peels = 0
    while True:
        h = x.graph
        v = next((v for v in sorted(h.vertices()) if h.degree(v) == 3
                  and not any(edge_of(d) in x.twin for d in h.rotation(v))),
                 None)
        if v is None:
            break
        e = min(edge_of(d) for d in h.rotation(v))
        before = set(tree.nodes())
        seen["set_parent"] = seen["fresh _splice"] = 0
        log = delete_edge(tree, e)
        g.delete_edge(e)
        assert log.kind == "intact" and x.kind == "R"
        tree = log.tree
        assert seen["set_parent"] <= 6, (peels, len(x.twin))
        assert seen["fresh _splice"] == sum(
            nd.kind in "SP" for nd in tree.nodes() if nd not in before)
        peels += 1
    monkeypatch.undo()
    assert peels >= 20 and len(x.twin) >= 150
    assert seen["_dissolve_two_edge in split"] == 0
    assert seen["_splice in split"] == seen["_join in split"]
    assert seen["_splice in split"], "no piece joined an old node"
    tree.check()
    assert tree.serialize() == build_spqr(g).serialize()


def test_an_r_step_walks_its_quad_once(monkeypatch):
    # every R surgery step (_r_remove) is one merge across the edge's
    # quad in the vertex-face graph.  On a dense replay, each step
    # traces that quad once (_fv_quad), and the merge recognises it by a
    # walk of four darts, with no face_degree_at_most or same_face walk.
    # A merge makes one root-first separator-tree walk, and a quad merge
    # deletes r's two quad edges in it, never through apply_deletion; a
    # merge across any other face, a pendant edge's quad here, deletes
    # what quasi-simplification removes through _simplify_around
    seen, where = Counter(), []

    def spy(owner, name, key=None):
        fn = getattr(owner, name)

        def run(*args, **kw):
            seen[(key or name, *where)] += 1
            where.append(key or name)
            try:
                return fn(*args, **kw)
            finally:
                where.pop()
        monkeypatch.setattr(owner, name, run)

    merge_across = fourcycle.Detector.merge_across

    def classified(self, u, w, after_u, after_w):
        h = self.tree.root.graph
        kind = "quad" if fourcycle._opposite_on_quad(
            h, after_u, after_w) else "other"
        seen[(kind, *where)] += 1
        where.append(kind)
        try:
            return merge_across(self, u, w, after_u, after_w)
        finally:
            where.pop()

    walk = separators.SeparatorTree._merge

    def root_walk(self, node, parent_h, *args):
        if parent_h is None:
            seen[("root walk", *where)] += 1
        return walk(self, node, parent_h, *args)

    g, ops, _ = _replay_ops(6, 200, 60)
    tree = build_spqr(g)
    for name in ("trace_face", "face_degree_at_most", "same_face"):
        spy(EmbeddedMultigraph, name)
    spy(spqr, "_r_remove")
    monkeypatch.setattr(fourcycle.Detector, "merge_across", classified)
    spy(fourcycle.Detector, "_simplify_around", "simplify")
    spy(separators.SeparatorTree, "apply_deletion")
    monkeypatch.setattr(separators.SeparatorTree, "_merge", root_walk)
    for op, e in ops:
        (g.delete_edge if op == "d" else g.contract_edge)(e)
        tree = (delete_edge if op == "d" else contract_edge)(tree, e).tree
    monkeypatch.undo()
    # each key: the spied call, then the spied calls it ran inside,
    # outermost first
    inside = Counter()
    for (name, *outer), k in seen.items():
        if outer and outer[0] == "_r_remove":
            inside[name, *outer[1:]] += k
    steps = seen[("_r_remove",)]
    assert steps >= 60 and inside["quad",] == steps - 1, seen
    assert inside["root walk", "quad"] == steps - 1
    assert inside["root walk", "other"] == inside["other",] == 1
    assert sum(k for (name, *_), k in inside.items()
               if name == "trace_face") == steps, inside
    assert not any(name == "face_degree_at_most"
                   or name == "same_face" and "quad" in outer
                   or name == "apply_deletion" and "simplify" not in outer
                   for name, *outer in inside), inside
    assert inside["apply_deletion", "other", "simplify"] >= 1
    tree.check()
    assert tree.serialize() == build_spqr(g).serialize()


@pytest.mark.parametrize("k", (7, 64))
def test_nested_bisection(k, monkeypatch):
    # nested(k) is one R node, and deleting the radial a-edge between
    # triangles i and i + 1 cuts the R node holding it in two.
    # Bisection deletes the middle a-edge of every interval of
    # triangles, so every op is intact and every split halves an R
    # node; the later splits leave S pieces beside the P nodes of the
    # earlier ones, which they join through _join inside _split_r_node.
    # Every tree is compared with the oracle's at k = 7 (m = 39) and
    # with a fresh build's at k = 64
    split_r_node, join = spqr._split_r_node, spqr._join
    seen = Counter()
    inside = []

    def split(tree, node):
        inside.append(node)
        try:
            split_r_node(tree, node)
        finally:
            inside.pop()

    def counted_join(*args):
        seen["in split" if inside else "outside"] += 1
        return join(*args)

    monkeypatch.setattr(spqr, "_split_r_node", split)
    monkeypatch.setattr(spqr, "_join", counted_join)
    g = nested(k)
    tree = build_spqr(g)
    assert [x.kind for x in tree.nodes()] == ["R"]
    for i in bisection(0, k - 1):
        g.delete_edge(6 * i + 3)
        log = delete_edge(tree, 6 * i + 3)
        assert log.kind == "intact"
        tree = log.tree
        want = canonical_spqr(g) if k <= 7 else build_spqr(g).serialize()
        assert tree.serialize() == want, i
    tree.check()
    assert seen["in split"], seen


@contextlib.contextmanager
def join_kinds():
    """Per kind, the equal-kind joins of R splits that hold an old node,
    as ``_merge_same_kind`` makes them through ``_join``: ``one old`` is
    a fresh piece joining one old neighbour of the split node x,
    ``bridge`` fresh pieces joining two or more, ``x`` the split node,
    left S or P, joining fresh pieces and an old neighbour, and ``x
    leaves`` a join in which x goes into a larger old neighbour.  A
    piece counts when it brings an edge no old member of the group held.
    Every join keeps an old node with most skeleton edges, x on a tie,
    and splices the others into it in place."""
    seen = Counter()
    merge, join = spqr._merge_same_kind, spqr._join
    joined = []

    def recording_join(shared, nd, olds, seams, edges):
        g = nd.graph
        joined.append((nd, nd.graph.n_edges, list(olds),
                       [e for e, _, _ in edges]))
        kids = join(shared, nd, olds, seams, edges)
        assert nd.graph is g
        return kids

    def classifying_merge(shared, pieces, vid_base, r):
        joined.clear()
        nodes, rehang = merge(shared, pieces, vid_base, r)
        for keep, size, olds, ids in joined:
            assert all(m.graph.n_edges <= size for m in olds if m is not keep)
            assert r not in olds or r is keep or r.graph.n_edges < size
            seen["x leaves"] += r in olds and r is not keep
            held = {e for m in olds if m is not keep
                    for e in m.graph.edge_ids()}
            if all(e in held for e in ids):
                continue
            others = sum(m is not r for m in olds)
            if r in olds:
                seen["x"] += others >= 1
            else:
                seen["one old" if others == 1 else "bridge"] += 1
        return nodes, rehang

    spqr._merge_same_kind, spqr._join = classifying_merge, recording_join
    try:
        yield seen
    finally:
        spqr._merge_same_kind, spqr._join = merge, join


# (join, n, seed): a replay of _replay_ops(seed, n) that reaches the join
_JOIN_CASES = [pytest.param("one old", 16, 8, id="one-old"),
               pytest.param("bridge", 12, 3, id="bridge"),
               pytest.param("x", 14, 39, id="x-ends-S"),
               pytest.param("x leaves", 18, 46, id="x-leaves")]


@pytest.mark.parametrize("join, n, seed", _JOIN_CASES)
def test_r_split_joins(join, n, seed):
    # each join of an R split that holds an old node leaves the tree a
    # fresh build and the oracle make, and every node an op counts as
    # re-parented stays in the tree
    g, ops, graphs = _replay_ops(seed, n)
    tree = build_spqr(g)
    reached = 0
    for (op, e), h in zip(ops, graphs):
        fn = delete_edge if op == "d" else contract_edge
        with join_kinds() as seen, parent_moves() as moved:
            log = fn(tree, e)
        assert log.kind == "intact"
        tree = log.tree
        tree.check()
        assert set(moved) <= set(tree.nodes())
        assert tree.serialize() == build_spqr(h).serialize()
        if seen[join]:
            reached += 1
            if h.n_edges <= 40:
                assert tree.serialize() == canonical_spqr(h)
    assert reached


# The twin pair of a join, with the other node's child: (kind, larger
# skeleton, smaller skeleton less its virtual edge 11, the child), as
# (eid, u, w) lists; the larger node's virtual edge 10 joins 0 and 1,
# and virtual edge 12 links the smaller node with the child
_MERGE_CASES = {
    "S": ([(0, 0, 2), (1, 2, 3), (2, 3, 1), (10, 0, 1)],
          [(12, 1, 4), (4, 4, 0)],
          ("P", [(12, 1, 4), (5, 1, 4), (6, 4, 1)])),
    "P": ([(0, 0, 1), (1, 0, 1), (2, 1, 0), (10, 0, 1)],
          [(12, 0, 1), (4, 1, 0)],
          ("S", [(12, 0, 1), (5, 0, 2), (6, 2, 1)])),
}


def _fresh_node(kind, edges):
    """An S or P node with the skeleton ``_splice`` writes from edges."""
    g = EmbeddedMultigraph()
    spqr._splice(kind, g, [], sorted(edges))
    return spqr.SpqrNode(kind, g)


@pytest.mark.parametrize("larger_first", (True, False))
@pytest.mark.parametrize("flipped", (False, True))
@pytest.mark.parametrize("kind", "SP")
def test_merge_keeps_the_larger_skeleton(kind, flipped, larger_first):
    # two equal-kind nodes x and y with a two-edge node w of the other
    # kind between them: w dissolves, and x and y join.  The node with
    # more skeleton edges keeps its identity and its graph, whichever
    # of w's edges links it and however the twin pair is oriented; the
    # smaller node is the root and has the only child, which follows
    # the join, and x takes the root's place
    big, small, (child_kind, child) = _MERGE_CASES[kind]
    small = [*small, (11, 1, 0) if flipped else (11, 0, 1)]
    x = _fresh_node(kind, big)
    y = _fresh_node(kind, small)
    z = _fresh_node(child_kind, child)
    w = _fresh_node("P" if kind == "S" else "S", [(20, 0, 1), (21, 1, 0)])
    to_x, to_y = (20, 21) if larger_first else (21, 20)
    x.link(10, w, to_x)
    w.link(to_y, y, 11)
    y.link(12, z, 12)
    shared = spqr._Shared(spqr._Vids(22))
    for nd in (x, y, z):
        for e in nd.real_ids():
            shared.node_of_edge[e] = nd
    tree = spqr.SpqrTree(y, shared)
    tree._reroot(y)
    ends = {e: (u, w) for e, u, w in big + small if e not in (10, 11)}
    g = x.graph
    assert spqr._survivor([x, y]) is x and spqr._survivor([y, x]) is x
    assert spqr._dissolve_two_edge(tree, w) is None
    tree.check()
    assert tree.nodes() == [x, z] and x.graph is g
    assert tree.root is x and z.parent is x
    assert x.twin == {12: (z, 12)}
    assert {e: x.graph.endpoints(e) for e in x.graph.edge_ids()} == ends
    assert all(shared.node_of_edge[e] is x for e in x.real_ids())
    assert x.real_ids() == sorted(set(ends) - {12})


def test_survivor_states_the_join_rule():
    # most skeleton edges; on a tie the split node r, then the smallest
    # real edge id, then the smallest sorted vertex labels; of P nodes
    # of one pair with no real edge and as many edges, the first
    big = _fresh_node("S", [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])
    a = _fresh_node("S", [(4, 1, 2), (5, 2, 3), (6, 3, 1)])
    b = _fresh_node("S", [(7, 0, 1), (8, 1, 2), (9, 2, 0)])
    assert spqr._survivor([a, big, b]) is big
    assert spqr._survivor([a, big, b], r=a) is big
    assert spqr._survivor([b, a]) is a and spqr._survivor([a, b], b) is b
    p, q = (_fresh_node("P", [(i, 0, 1), (i + 1, 1, 0), (i + 2, 0, 1)])
            for i in (10, 20))
    for nd in (a, b, p, q):
        for e in nd.graph.edge_ids():
            nd.link(e, spqr.SpqrNode("R", EmbeddedMultigraph()), e)
    assert spqr._survivor([a, b]) is b and spqr._survivor([b, a]) is b
    assert spqr._survivor([q, p]) is q and spqr._survivor([p, q]) is p


def _tie_graph(left_first: bool):
    """Two 4-cycles 0-2-3-1 and 0-4-5-1 of one S node each around the
    chord 0-1, edge 0, whose P node sits between them; a diamond on 2-3
    and one on 4-5 hang an R node below each.  The other real ids run
    over the left side first or the right side first."""
    coords = {0: (0, 1), 1: (0, -1), 2: (-1, 0.5), 3: (-1, -0.5),
              6: (-1.3, 0), 7: (-0.7, 0), 4: (1, 0.5), 5: (1, -0.5),
              8: (0.7, 0), 9: (1.3, 0)}
    left = [(0, 2), (3, 1), (2, 6), (6, 3), (2, 7), (7, 3), (6, 7)]
    right = [(0, 4), (5, 1), (4, 8), (8, 5), (4, 9), (9, 5), (8, 9)]
    sides = left + right if left_first else right + left
    return from_straight_line_drawing(
        coords, [(0, 0, 1), *((i, u, w) for i, (u, w) in
                              enumerate(sides, 1))])


def test_dissolve_joins_by_the_split_rule():
    # deleting the chord leaves its P node x with two edges between two
    # S nodes of four edges each, and contracting it in the dual leaves
    # an S node between two P nodes: x dissolves, and its neighbours
    # join through _join.  On this tie the node holding the smallest
    # real id lives on, as in an R split, whichever neighbour x reaches
    # through its smaller edge id.  Rooted at each node in turn, x is
    # the root, the child of either neighbour, or below a neighbour
    # that hangs below an R node; the tree is a fresh build's and the
    # oracle's, and every node counted as re-parented stays in it
    seen = Counter()
    for dual in (False, True):
        for left_first in (False, True):
            g = _tie_graph(left_first)
            if dual:
                g = g.dual()[0]
            h = g.copy()
            (h.contract_edge if dual else h.delete_edge)(0)
            for i in range(5):
                tree = build_spqr(g)
                root = tree.nodes()[i]
                tree._reroot(root)
                x = tree.node_of_edge[0]
                sides = [m for m, _ in x.twin.values()]
                assert len(sides) == 2 and x.graph.n_edges == 3
                assert sides[0].graph.n_edges == sides[1].graph.n_edges
                first = min(min(m.real_ids()) for m in sides)
                holder = tree.node_of_edge[first]
                seen["n1 differs", x.kind] += \
                    x.twin[min(x.twin)][0] is not holder
                seen["root" if x is root else (
                    "under the survivor" if x.parent is holder
                    else "under the other") + (
                    "" if x.parent is root else " below an R node")] += 1
                with parent_moves() as moved:
                    log = (contract_edge if dual else delete_edge)(tree, 0)
                assert log.kind == "intact"
                tree = log.tree
                tree.check()
                assert set(moved) <= set(tree.nodes())
                assert tree.node_of_edge[first] is holder
                assert holder in tree.nodes() and len(tree.nodes()) == 3
                assert tree.serialize() == build_spqr(h).serialize()
                assert tree.serialize() == canonical_spqr(h)
    assert seen.pop(("n1 differs", "P")) and seen.pop(("n1 differs", "S"))
    assert seen == Counter({
        "root": 4, "under the survivor": 4, "under the other": 4,
        "under the survivor below an R node": 4,
        "under the other below an R node": 4}), seen


def test_a_parent_cycle_fails_the_op():
    # an op climbs from the edge's node to the root; with two parent
    # pointers turned at each other that climb has no end, and the op
    # fails naming the edge instead of looping
    tree = build_spqr(diamond())
    a = next(x for x in tree.nodes() if x.parent is not None and x.real_ids())
    a.parent.parent = a
    e = a.real_ids()[0]
    with pytest.raises(AssertionError, match=f"edge {e}: parent pointers"):
        delete_edge(tree, e)


@pytest.mark.parametrize("dying, keep, error", [
    pytest.param(2, 5, UnknownVertex, id="dying-missing"),
    pytest.param(1, 0, LabelInUse, id="keep-present"),
])
def test_rename_in_block_rejects_before_writing(dying, keep, error):
    # the entry node is the S node 0-1-3 of the diamond
    tree = build_spqr(diamond())
    node = tree.node_of_edge[0]
    before = tree.serialize()
    with pytest.raises(error):
        spqr.rename_vertex_in_block(tree, node, dying, keep)
    assert tree.serialize() == before and tree.renames == 0
    tree.check()
