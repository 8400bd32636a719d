"""Brute-force reference implementations used for differential testing.

Everything here recomputes from scratch, so the incremental structures
elsewhere in the package can be checked against an independent source of
truth.  Deliberately simple and slow; intended for graphs of at most a
few dozen vertices.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass

from planarconn.embed import EmbeddedMultigraph, NotBiconnected, dart, edge_of


# ----------------------------------------------------------------------
# connectivity predicates

def menger_k(g: EmbeddedMultigraph, u: int, v: int, k: int) -> bool:
    """True iff there are >= k internally vertex-disjoint u,v paths.

    Unit-capacity vertex-split max-flow with BFS augmentation; each
    vertex other than u, v may carry one unit, each edge one unit per
    direction.
    """
    if u == v:
        raise ValueError("menger_k needs two distinct vertices")
    cap: dict[tuple, int] = defaultdict(int)
    big = g.n_edges + k + 1
    for x in g.vertices():
        cap[("i", x), ("o", x)] += big if x in (u, v) else 1
    for e in g.edge_ids():
        a, b = g.endpoints(e)
        if a == b:
            continue
        cap[("o", a), ("i", b)] += 1
        cap[("o", b), ("i", a)] += 1
    adj: dict[tuple, set] = defaultdict(set)
    for x, y in cap:
        adj[x].add(y)
        adj[y].add(x)
    src, snk = ("o", u), ("i", v)
    flow = 0
    while flow < k:
        parent: dict[tuple, tuple | None] = {src: None}
        queue = deque([src])
        while queue and snk not in parent:
            x = queue.popleft()
            for y in adj[x]:
                if y not in parent and cap[x, y] > 0:
                    parent[y] = x
                    queue.append(y)
        if snk not in parent:
            break
        y = snk
        while parent[y] is not None:
            x = parent[y]
            cap[x, y] -= 1
            cap[y, x] += 1
            y = x
        flow += 1
    return flow >= k


def _connected_on(vertices: set, edges: list) -> bool:
    if not vertices:
        return True
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, u, w in edges:
        if u in parent and w in parent:
            parent[find(u)] = find(w)
    roots = {find(v) for v in vertices}
    return len(roots) == 1


def is_biconnected(g: EmbeddedMultigraph) -> bool:
    """Connected, loopless, and free of articulation points.

    A two-vertex multigraph counts as biconnected when it has at least
    two parallel edges.
    """
    vs = set(g.vertices())
    if len(vs) < 2:
        return False
    if any(g.is_loop(e) for e in g.edge_ids()):
        return False
    edges = _edge_list(g)
    if not _connected_on(vs, edges):
        return False
    if len(vs) == 2:
        return g.n_edges >= 2
    for v in vs:
        rest = vs - {v}
        kept = [e for e in edges if v not in e[1:]]
        if not _connected_on(rest, kept):
            return False
    return True


# ----------------------------------------------------------------------
# separation classes and separation pairs

def _edge_list(g: EmbeddedMultigraph) -> list[tuple[int, int, int]]:
    return [(e, *g.endpoints(e)) for e in sorted(g.edge_ids())]


def separation_classes_of_edges(edges, a, b) -> list[frozenset]:
    """Separation classes of an edge list with respect to the pair a, b.

    ``edges`` is an iterable of (key, u, w).  Two edges share a class
    when some path contains both without passing through a or b except
    as an endpoint; edges joining a and b (and loops at a or b) are
    singleton classes.
    """
    pair = {a, b}
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for _, u, w in edges:
        if u not in pair and w not in pair:
            parent[find(u)] = find(w)
    classes: list[frozenset] = []
    groups: dict[int, list] = defaultdict(list)
    for key, u, w in edges:
        ends = [x for x in (u, w) if x not in pair]
        if not ends:
            classes.append(frozenset([key]))
        else:
            groups[find(ends[0])].append(key)
    classes.extend(frozenset(ks) for ks in groups.values())
    return classes


def separation_classes(g: EmbeddedMultigraph, a: int, b: int) -> list[frozenset]:
    return separation_classes_of_edges(_edge_list(g), a, b)


def is_separation_pair_classes(classes: list[frozenset]) -> bool:
    """Decide from the class list, applying the two single-edge
    exceptions."""
    if len(classes) < 2:
        return False
    sizes = sorted(len(c) for c in classes)
    if len(classes) == 2 and sizes[0] == 1:
        return False
    if len(classes) == 3 and sizes == [1, 1, 1]:
        return False
    return True


def separation_pairs(g: EmbeddedMultigraph) -> set[frozenset]:
    """All separation pairs of g by exhaustive class enumeration."""
    edges = _edge_list(g)
    out: set[frozenset] = set()
    for a, b in itertools.combinations(sorted(g.vertices()), 2):
        if is_separation_pair_classes(separation_classes_of_edges(edges, a, b)):
            out.add(frozenset((a, b)))
    return out


# ----------------------------------------------------------------------
# 4-cycles

def simple_4cycles(g: EmbeddedMultigraph):
    """All simple 4-cycles, as (vertex 4-tuple, edge-id 4-tuple).

    A simple 4-cycle visits four distinct vertices; concrete edges
    matter, so parallel edges yield distinct cycles.  The vertex tuple
    (a, p, b, q) lists the cycle in order, so {a, b} and {p, q} are its
    diagonals.  Each cycle is reported once.
    """
    by_pair: dict[frozenset, list[int]] = defaultdict(list)
    for e in g.edge_ids():
        u, w = g.endpoints(e)
        if u != w:
            by_pair[frozenset((u, w))].append(e)
    nbrs: dict[int, set[int]] = defaultdict(set)
    for pair in by_pair:
        u, w = tuple(pair)
        nbrs[u].add(w)
        nbrs[w].add(u)
    seen: set[frozenset] = set()
    out = []
    for a, b in itertools.combinations(sorted(g.vertices()), 2):
        common = sorted((nbrs[a] & nbrs[b]) - {a, b})
        for p, q in itertools.combinations(common, 2):
            for e1 in by_pair[frozenset((a, p))]:
                for e2 in by_pair[frozenset((p, b))]:
                    for e3 in by_pair[frozenset((b, q))]:
                        for e4 in by_pair[frozenset((q, a))]:
                            key = frozenset((e1, e2, e3, e4))
                            if key not in seen:
                                seen.add(key)
                                out.append(((a, p, b, q), (e1, e2, e3, e4)))
    return out


def _quad_face_sets(g: EmbeddedMultigraph) -> set[frozenset]:
    """Edge-id sets of faces bounded by four distinct edges."""
    out: set[frozenset] = set()
    for cyc in g.faces():
        ids = [edge_of(d) for d in cyc]
        if len(ids) == 4 and len(set(ids)) == 4:
            out.add(frozenset(ids))
    return out


def four_cycle_edges(g: EmbeddedMultigraph) -> tuple[set[int], set[int]]:
    """(separating, facial) edge sets over all simple 4-cycles.

    A 4-cycle is facial when its edges bound a face of the embedding,
    and separating otherwise.
    """
    faces = _quad_face_sets(g)
    sep: set[int] = set()
    fac: set[int] = set()
    for _, es in simple_4cycles(g):
        (fac if frozenset(es) in faces else sep).update(es)
    return sep, fac


def separating_4cycles(g: EmbeddedMultigraph) -> set[int]:
    """Edges lying on at least one separating 4-cycle."""
    return four_cycle_edges(g)[0]


# ----------------------------------------------------------------------
# canonical SPQR decomposition

@dataclass
class _SpqrNode:
    kind: str
    # skeleton edges as (label, u, w); label is ("E", id) for a graph
    # edge or ("V", id) for a virtual edge shared with one other node
    edges: list


def _is_simple_cycle(edges, verts) -> bool:
    if len(edges) != len(verts) or len(verts) < 3:
        return False
    deg: dict[int, int] = defaultdict(int)
    for _, u, w in edges:
        if u == w:
            return False
        deg[u] += 1
        deg[w] += 1
    return all(deg[v] == 2 for v in verts)


def _decompose(edges, vids, nodes) -> None:
    """Split a biconnected edge list into S/P/R nodes, appending to
    ``nodes``.  Virtual edges pair up the two nodes they belong to."""
    verts = sorted({x for _, u, w in edges for x in (u, w)})
    if len(verts) == 2:
        nodes.append(_SpqrNode("P", list(edges)))
        return
    if _is_simple_cycle(edges, verts):
        nodes.append(_SpqrNode("S", list(edges)))
        return
    emap = {key: (u, w) for key, u, w in edges}
    for a, b in itertools.combinations(verts, 2):
        classes = separation_classes_of_edges(edges, a, b)
        if not is_separation_pair_classes(classes):
            continue
        if len(classes) == 2:
            vid = ("V", next(vids))
            for cl in classes:
                child = [(k, *emap[k]) for k in sorted(cl)]
                child.append((vid, a, b))
                _decompose(child, vids, nodes)
        else:
            hub = []
            for cl in classes:
                if len(cl) == 1:
                    (k,) = cl
                    assert set(emap[k]) == {a, b}
                    hub.append((k, *emap[k]))
                else:
                    vid = ("V", next(vids))
                    hub.append((vid, a, b))
                    child = [(k, *emap[k]) for k in sorted(cl)]
                    child.append((vid, a, b))
                    _decompose(child, vids, nodes)
            nodes.append(_SpqrNode("P", hub))
        return
    nodes.append(_SpqrNode("R", list(edges)))


def _virtual_owners(nodes) -> dict:
    owners: dict[tuple, list[int]] = defaultdict(list)
    for i, node in enumerate(nodes):
        if node is None:
            continue
        for lab, _, _ in node.edges:
            if lab[0] == "V":
                owners[lab].append(i)
    return owners


def _merge_same_kind(nodes) -> list:
    """Repeatedly merge adjacent nodes of equal kind S or P, dropping
    the shared virtual edge."""
    nodes = list(nodes)
    while True:
        owners = _virtual_owners(nodes)
        hit = None
        for lab, (i, j) in sorted(owners.items()):
            if nodes[i].kind == nodes[j].kind and nodes[i].kind in "SP":
                hit = (lab, i, j)
                break
        if hit is None:
            break
        lab, i, j = hit
        merged = [e for e in nodes[i].edges if e[0] != lab]
        merged += [e for e in nodes[j].edges if e[0] != lab]
        nodes[i] = _SpqrNode(nodes[i].kind, merged)
        nodes[j] = None
    return [n for n in nodes if n is not None]


def canonical_spqr(g: EmbeddedMultigraph) -> str:
    """Deterministic serialization of the SPQR-tree of a biconnected
    graph with at least three edges.

    Splits recursively on arbitrary separation pairs, merges adjacent
    same-kind S or P nodes, then serializes the unique resulting tree
    rooted at the node containing the smallest graph edge id.  Children
    are sorted by their serialized strings and prefixed with their
    separation pair.
    """
    if g.n_edges < 3 or not is_biconnected(g):
        raise NotBiconnected("canonical_spqr needs a biconnected graph "
                             "with at least 3 edges")
    edges = [(("E", e), u, w) for e, u, w in _edge_list(g)]
    nodes: list[_SpqrNode] = []
    _decompose(edges, itertools.count(), nodes)
    nodes = _merge_same_kind(nodes)
    owners = _virtual_owners(nodes)
    for lab, who in owners.items():
        assert len(who) == 2, f"virtual edge {lab} not paired"

    def real_ids(node):
        return sorted(lab[1] for lab, _, _ in node.edges if lab[0] == "E")

    def node_str(i, via):
        node = nodes[i]
        verts = sorted({x for _, u, w in node.edges for x in (u, w)})
        kids = []
        for lab, u, w in node.edges:
            if lab[0] == "V" and lab != via:
                x, y = owners[lab]
                other = y if x == i else x
                a, b = sorted((u, w))
                kids.append(f"{a},{b}:" + node_str(other, lab))
        kids.sort()
        head = (f"{node.kind}"
                f"(v={','.join(map(str, verts))};"
                f"e={','.join(map(str, real_ids(node)))})")
        return head + "[" + "|".join(kids) + "]"

    root = min((i for i in range(len(nodes)) if real_ids(nodes[i])),
               key=lambda i: real_ids(nodes[i])[0])
    return node_str(root, None)


# ----------------------------------------------------------------------
# vertex-face correspondence checks

def fv_face_of_edge(g: EmbeddedMultigraph, fv, info) -> tuple[dict, dict]:
    """Map each edge of g to the index of its quadrilateral face in the
    vertex-face graph.

    Returns (edge -> face index, fv dart -> face index).  The face for
    edge e is the orbit containing side 0 of the corner edge of dart
    (e, 0).
    """
    orbit: dict[int, int] = {}
    for i, cyc in enumerate(fv.faces()):
        for fd in cyc:
            orbit[fd] = i
    out = {}
    for e in g.edge_ids():
        out[e] = orbit[dart(info.fv_edge_of_corner[dart(e, 0)], 0)]
    assert len(set(out.values())) == g.n_edges
    return out, orbit


def _cycle_sides(fv, orbit, cycle_edges) -> tuple[set[int], set[int]]:
    """The two sets of fv face indices on either side of a cycle, by
    cutting the dual along the cycle's edges."""
    parent = {i: i for i in set(orbit.values())}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cut = set(cycle_edges)
    for e in fv.edge_ids():
        if e not in cut:
            parent[find(orbit[dart(e, 0)])] = find(orbit[dart(e, 1)])
    sides: dict[int, set[int]] = defaultdict(set)
    for i in parent:
        sides[find(i)].add(i)
    parts = list(sides.values())
    assert len(parts) == 2, "a cycle must cut the sphere into two sides"
    return parts[0], parts[1]


def _circularly_consecutive(labels) -> bool:
    """True iff equal labels occupy one circular run each."""
    n = len(labels)
    distinct = len(set(labels))
    changes = sum(1 for i in range(n) if labels[i] != labels[(i + 1) % n])
    return changes == (distinct if distinct > 1 else 0)


def fv_correspondence_check(g: EmbeddedMultigraph) -> bool:
    """Exhaustively verify the correspondence between separation
    structure in g and its dual and 4-cycles in the vertex-face graph.

    Checks, by enumeration: separation classes are circularly
    consecutive around both pair vertices; every separating 4-cycle in
    the vertex-face graph has a separation pair of g and of the dual as
    its diagonals; every separation pair of g is a diagonal of some
    separating 4-cycle; two edges are split by a 4-cycle with diagonals
    (v1, v2) and (f1, f2) exactly when they lie in different separation
    classes with respect to both pairs; and every separation class of a
    pair with at least two classes is delimited by some 4-cycle.
    """
    edges = _edge_list(g)
    assert all(u != w for _, u, w in edges), "loopless graph expected"
    dualg, dual_face_of = g.dual()
    fv, info = g.vertex_face_graph()
    assert dual_face_of == info.face_of_dart
    off = info.offset
    dedges = _edge_list(dualg)
    face_of_edge, orbit = fv_face_of_edge(g, fv, info)
    quad_faces = _quad_face_sets(fv)

    g_pairs = separation_pairs(g)
    dual_pairs = separation_pairs(dualg)

    # classes are circularly consecutive around separation pairs
    class_of: dict[tuple, dict[int, int]] = {}

    def classes_for(graph_edges, a, b):
        key = (id(graph_edges), a, b)
        if key not in class_of:
            cls = separation_classes_of_edges(graph_edges, a, b)
            class_of[key] = {e: i for i, c in enumerate(cls) for e in c}
        return class_of[key]

    for pair in g_pairs:
        a, b = tuple(pair)
        cmap = classes_for(edges, a, b)
        for x in (a, b):
            labels = [cmap[edge_of(d)] for d in g.rotation(x)]
            if not _circularly_consecutive(labels):
                return False

    # group 4-cycles of the vertex-face graph by their diagonal tuple
    by_tuple: dict[tuple, list] = defaultdict(list)
    seen_sep_diagonals: set[frozenset] = set()
    for (a, p, b, q), es in simple_4cycles(fv):
        prim = tuple(sorted(x for x in (a, p, b, q) if x < off))
        facs = tuple(sorted(x - off for x in (a, p, b, q) if x >= off))
        if len(prim) != 2 or len(facs) != 2:
            return False
        separating = frozenset(es) not in quad_faces
        side1, side2 = _cycle_sides(fv, orbit, es)
        es1 = frozenset(e for e in face_of_edge if face_of_edge[e] in side1)
        es2 = frozenset(e for e in face_of_edge if face_of_edge[e] in side2)
        by_tuple[prim + facs].append((separating, es1, es2))
        if separating:
            # every separating 4-cycle witnesses separation pairs on
            # both diagonals
            if frozenset(prim) not in g_pairs:
                return False
            if frozenset(facs) not in dual_pairs:
                return False
            seen_sep_diagonals.add(frozenset(prim))

    # every separation pair of g is the diagonal of a separating 4-cycle
    if not g_pairs <= seen_sep_diagonals:
        return False

    # a 4-cycle with diagonals (v1, v2) and (f1, f2) splits two edges
    # iff their separation classes differ with respect to both diagonals
    all_edge_ids = [e for e, _, _ in edges]
    for (v1, v2, f1, f2), cycles in by_tuple.items():
        vmap = classes_for(edges, v1, v2)
        fmap = classes_for(dedges, f1, f2)
        for _, s1, _ in cycles:
            for e1, e2 in itertools.combinations(all_edge_ids, 2):
                split = (e1 in s1) != (e2 in s1)
                differ = vmap[e1] != vmap[e2] and fmap[e1] != fmap[e2]
                if split != differ:
                    return False
    vpairs = list(itertools.combinations(sorted(g.vertices()), 2))
    fpairs = list(itertools.combinations(sorted(dualg.vertices()), 2))

    # each separation class of a pair with >= 2 classes is delimited by
    # a 4-cycle whose one side is exactly that class
    for (v1, v2) in vpairs:
        cls = separation_classes_of_edges(edges, v1, v2)
        if len(cls) < 2:
            continue
        delimited = set()
        for (f1, f2) in fpairs:
            for _, s1, s2 in by_tuple.get((v1, v2, f1, f2), []):
                delimited.add(s1)
                delimited.add(s2)
        for c in cls:
            if frozenset(c) not in delimited:
                return False

    return True
