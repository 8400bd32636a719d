"""Tests for the embedded multigraph core."""

from __future__ import annotations

import pytest

from planarconn.embed import (
    EmbeddedMultigraph,
    EulerViolation,
    GraphFormatError,
    MalformedRotation,
    NotOnFace,
    SelfLoopContraction,
    UnknownEdge,
    dart,
    edge_of,
    parse_graph_text,
    quasi_induced_degree,
    write_graph_text,
)

from .graphs import (
    ALL_SMALL,
    bigon,
    cube,
    cycle,
    diamond,
    grid,
    k4,
    k24,
    parallel_bundle,
    path,
    single_edge,
    triangle,
)


# ----------------------------------------------------------------------
# construction and faces

def test_triangle_build_faces():
    g = triangle()
    assert g.n_vertices == 3
    assert g.n_edges == 3
    assert g.n_faces() == 2
    g.check()


def test_k4_faces():
    g = k4()
    assert g.n_faces() == 4
    assert all(len(f) == 3 for f in g.faces())
    g.check()


def test_duplicate_dart_rejected():
    with pytest.raises(MalformedRotation):
        EmbeddedMultigraph.build(
            [0, 1], [(0, 0, 1)],
            {0: [(0, 0), (0, 0)], 1: [(0, 1)]})


def test_missing_dart_rejected():
    with pytest.raises(MalformedRotation):
        EmbeddedMultigraph.build([0, 1], [(0, 0, 1)], {0: [(0, 0)], 1: []})


def test_dart_at_wrong_vertex_rejected():
    with pytest.raises(MalformedRotation):
        EmbeddedMultigraph.build(
            [0, 1], [(0, 0, 1)], {0: [(0, 1)], 1: [(0, 0)]})


def test_interleaved_loops_fail_euler():
    # two loops interleaved at one vertex describe a torus embedding
    with pytest.raises(EulerViolation):
        EmbeddedMultigraph.build(
            [0], [(0, 0, 0), (1, 0, 0)],
            {0: [(0, 0), (1, 0), (0, 1), (1, 1)]})


def test_nested_loops_pass_euler():
    g = EmbeddedMultigraph.build(
        [0], [(0, 0, 0), (1, 0, 0)],
        {0: [(0, 0), (1, 0), (1, 1), (0, 1)]})
    assert g.n_faces() == 3
    g.check()


def test_single_edge_one_face_of_degree_two():
    g = single_edge()
    faces = g.faces()
    assert len(faces) == 1
    assert len(faces[0]) == 2


def test_c4_two_faces_of_degree_four():
    g = cycle(4)
    faces = g.faces()
    assert len(faces) == 2
    assert sorted(len(f) for f in faces) == [4, 4]


def test_all_fixtures_valid():
    for name, make in ALL_SMALL.items():
        g = make()
        g.check()


# ----------------------------------------------------------------------
# deletion

def test_delete_cycle_edge_not_bridge():
    g = triangle()
    assert not g.same_face(dart(0, 0), dart(0, 1))
    g.delete_edge(0)
    assert g.n_faces() == 1
    g.check()


def test_delete_bridge_sets_flag_and_splits():
    g = path(3)
    assert g.same_face(dart(0, 0), dart(0, 1))
    g.delete_edge(0)
    assert len(g.components()) == 2
    g.check()


def test_delete_parallel_edge_of_bigon():
    g = bigon(3, 7)
    assert not g.same_face(dart(3, 0), dart(3, 1))
    g.delete_edge(3)
    assert g.n_edges == 1
    g.check()


def test_delete_unknown_edge():
    with pytest.raises(UnknownEdge):
        triangle().delete_edge(99)


# ----------------------------------------------------------------------
# contraction

def test_contract_triangle_edge_gives_bigon():
    g = triangle()
    g.contract_edge(0)
    assert g.n_vertices == 2
    assert g.n_edges == 2
    assert g.has_vertex(0) and not g.has_vertex(1)
    assert not any(g.is_loop(e) for e in g.edge_ids())
    g.check()


def test_contract_keeps_smaller_id():
    g = triangle()
    assert g.endpoints(0) == (0, 1)
    g.contract_edge(0)
    assert g.has_vertex(0)
    assert not g.has_vertex(1)


def test_contract_self_loop_rejected():
    g = bigon()
    g.contract_edge(3)
    assert [e for e in g.edge_ids() if g.is_loop(e)] == [7]
    with pytest.raises(SelfLoopContraction):
        g.contract_edge(7)


def test_contract_k4_edge_then_simplify_is_triangle():
    g = k4()
    g.contract_edge(0)
    g.quasi_simplify()
    assert g.n_vertices == 3
    assert g.n_edges == 3
    assert g.signature() == triangle().signature()
    g.check()


def test_contract_explicit_survivor():
    g = triangle()
    g.contract_edge(0, keep=1)
    assert g.has_vertex(1)
    assert not g.has_vertex(0)


def test_contract_only_edge():
    g = single_edge()
    g.contract_edge(0)
    assert g.n_vertices == 1
    assert g.n_edges == 0
    g.check()


# ----------------------------------------------------------------------
# quasi-simplification

def test_bigon_keeps_larger_id():
    g = bigon(3, 7)
    assert g.quasi_simplify() == [3]
    assert g.has_edge(7)


def test_simple_graph_untouched():
    g = k4()
    assert g.quasi_simplify() == []


def test_triple_parallel_keeps_largest():
    g = parallel_bundle(3, [1, 2, 3])
    deleted = g.quasi_simplify()
    assert sorted(deleted) == [1, 2]
    assert g.has_edge(3)
    g.check()


def test_quasi_simplify_idempotent_and_order_free():
    # frozen derived value: repeated bigon removal of a 4-bundle
    g = parallel_bundle(4, [5, 2, 9, 1])
    deleted = g.quasi_simplify()
    assert sorted(deleted) == [1, 2, 5]
    assert g.quasi_simplify() == []


def test_pendant_edge_face_is_not_a_bigon():
    g = path(2)
    assert g.quasi_simplify() == []
    assert g.n_edges == 1


def test_quasi_induced_degree_matches_bruteforce():
    g = k4()
    # X = {1, 2}; vertex 0 sees both in the induced subgraph
    assert quasi_induced_degree(g, {1, 2}, 0) == 2
    g2 = parallel_bundle(3)
    assert quasi_induced_degree(g2, {1}, 0) == 1


# ----------------------------------------------------------------------
# insertion

def test_insert_diagonal_into_c4():
    g = cycle(4)
    # find corners at 0 and 2 on a common face
    pairs = [(du, dw) for du in g.rotation(0) for dw in g.rotation(2)
             if g.same_face(g.rotation_next(du), g.rotation_next(dw))]
    assert pairs
    g.insert_edge(0, 2, *pairs[0], require_same_face=True)
    assert g.n_faces() == 3
    g.check()


def test_insert_not_on_face_rejected():
    g = cube()
    # opposite corners of the cube never share a face
    with pytest.raises(NotOnFace):
        for du in g.rotation(0):
            for dw in g.rotation(6):
                g.insert_edge(0, 6, du, dw, require_same_face=True)


def test_insert_between_isolated_vertices():
    g = EmbeddedMultigraph()
    g.add_vertex(0)
    g.add_vertex(1)
    g.insert_edge(0, 1, None, None)
    assert g.n_edges == 1
    g.check()


# ----------------------------------------------------------------------
# dual and vertex-face graph

def test_dual_c4():
    d, _ = cycle(4).dual()
    assert d.n_vertices == 2
    assert d.n_edges == 4
    d.check()


def test_dual_k4_self_dual():
    g = k4()
    d, _ = g.dual()
    assert d.signature() == g.signature()


def test_dual_of_loop():
    g = EmbeddedMultigraph.build([0], [(0, 0, 0)], {0: [(0, 0), (0, 1)]})
    d, _ = g.dual()
    assert d.n_vertices == 2
    assert d.n_edges == 1
    assert not d.is_loop(0)


def test_double_dual_identity_on_darts():
    for name, make in ALL_SMALL.items():
        g = make()
        if len(g.components()) != 1:
            continue
        dd, _ = g.dual()[0].dual()
        assert dd._nxt == g._nxt, name
        assert dd._prv == g._prv, name


def test_dual_commutes_with_mutations():
    for name, make in ALL_SMALL.items():
        g0 = make()
        for e in list(g0.edge_ids()):
            g = make()
            d, _ = g.dual()
            cut = g.is_loop(e) or g.same_face(dart(e, 0), dart(e, 1))
            g.delete_edge(e)
            if not cut:
                d.contract_edge(e)
                assert g.dual()[0].signature() == d.signature(), (name, e)
            g = make()
            d, _ = g.dual()
            if not g.is_loop(e):
                d.delete_edge(e)
                g.contract_edge(e)
                assert g.dual()[0].signature() == d.signature(), (name, e)


def test_fv_single_edge():
    fv, info = single_edge().vertex_face_graph()
    assert fv.n_vertices == 3
    assert fv.n_edges == 2
    assert fv.n_faces() == 1
    fv.check()


def test_fv_k4_counts():
    fv, info = k4().vertex_face_graph()
    assert fv.n_vertices == 8
    assert fv.n_edges == 12
    assert fv.n_faces() == 6
    fv.check()


def test_fv_faces_have_degree_four():
    # fact 4: the dual of fv(G) is 4-regular
    for name, make in ALL_SMALL.items():
        g = make()
        if len(g.components()) != 1 or g.n_edges == 0:
            continue
        fv, info = g.vertex_face_graph()
        assert all(len(f) == 4 for f in fv.faces()), name
        fv.check()


def test_fv_bipartite_planar():
    for name, make in ALL_SMALL.items():
        g = make()
        if len(g.components()) != 1 or g.n_edges == 0:
            continue
        fv, info = g.vertex_face_graph()
        for e in fv.edge_ids():
            u, w = fv.endpoints(e)
            assert (u < info.offset) != (w < info.offset), name
        assert fv.euler_ok(), name


def test_fv_cube_dual_4_regular_on_12_vertices():
    fv, _ = cube().vertex_face_graph()
    d, _ = fv.dual()
    assert d.n_vertices == 12
    assert all(d.degree(v) == 4 for v in d.vertices())


def test_fv_simple_iff_loopless_biconnected():
    # fact 5 spot checks
    def simple(h):
        seen = set()
        for e in h.edge_ids():
            u, w = h.endpoints(e)
            if u == w or (min(u, w), max(u, w)) in seen:
                return False
            seen.add((min(u, w), max(u, w)))
        return True

    assert simple(k4().vertex_face_graph()[0])
    assert simple(cycle(4).vertex_face_graph()[0])
    assert not simple(path(3).vertex_face_graph()[0])


def test_fv_invariant_after_mutations():
    g = cube()
    g.delete_edge(0)
    fv, _ = g.vertex_face_graph()
    fv.check()
    assert all(len(f) == 4 for f in fv.faces())
    g.contract_edge(5)
    fv, _ = g.vertex_face_graph()
    fv.check()
    assert all(len(f) == 4 for f in fv.faces())


# ----------------------------------------------------------------------
# Euler invariance under random mutation sequences

def test_euler_after_random_mutations():
    import random
    rng = random.Random(7)
    for name, make in ALL_SMALL.items():
        g = make()
        for _ in range(30):
            live = list(g.edge_ids())
            if not live:
                break
            e = rng.choice(live)
            if rng.random() < 0.5 and not g.is_loop(e):
                g.contract_edge(e)
            else:
                g.delete_edge(e)
            g.check()


# ----------------------------------------------------------------------
# induced subgraphs and copies

def test_induced_subgraph():
    g = grid(3, 3)
    sub = g.induced({0, 1, 3, 4})
    assert sub.n_vertices == 4
    assert sub.n_edges == 4
    sub.check()


def test_copy_independent():
    g = k4()
    h = g.copy()
    h.delete_edge(0)
    assert g.has_edge(0)
    assert g.signature() != h.signature()


# ----------------------------------------------------------------------
# text format

def test_text_roundtrip():
    for name, make in ALL_SMALL.items():
        g = make()
        h = parse_graph_text(write_graph_text(g))
        assert h.signature() == g.signature(), name


def test_parse_bad_header():
    with pytest.raises(GraphFormatError) as ei:
        parse_graph_text("1 2 3\n")
    assert ei.value.line == 1


def test_parse_bad_edge_line():
    with pytest.raises(GraphFormatError) as ei:
        parse_graph_text("2 1\nedge 0 0\nrot 0 0:0\nrot 1 0:1\n")
    assert ei.value.line == 2


def test_parse_bad_rotation():
    text = "2 1\nedge 0 0 1\nrot 0 0:0 0:0\nrot 1 0:1\n"
    with pytest.raises(GraphFormatError):
        parse_graph_text(text)


# ----------------------------------------------------------------------
# signatures

def test_signature_invariant_under_relabeling():
    g = k4()
    relabeled = EmbeddedMultigraph.build(
        [10, 11, 12, 13],
        [(e + 5, u + 10, w + 10)
         for e, (u, w) in ((e, g.endpoints(e)) for e in sorted(g.edge_ids()))],
        {v + 10: [(edge_of(d) + 5, d & 1) for d in g.rotation(v)]
         for v in g.vertices()})
    assert relabeled.signature() == g.signature()


def test_signature_detects_reflection_as_equal():
    g = k4()
    mirrored = EmbeddedMultigraph.build(
        list(g.vertices()),
        [(e, *g.endpoints(e)) for e in sorted(g.edge_ids())],
        {v: [(edge_of(d), d & 1) for d in reversed(g.rotation(v))]
         for v in g.vertices()})
    assert mirrored.signature() == g.signature()


def test_signature_distinguishes_c4_from_c5():
    assert cycle(4).signature() != cycle(5).signature()
