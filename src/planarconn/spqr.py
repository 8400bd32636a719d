"""SPQR-trees of biconnected plane multigraphs, maintained under edge
deletions and contractions.

The SPQR-tree of a biconnected graph with at least three edges is the
unique tree of its triconnected components.  Every node carries a
skeleton multigraph: a simple cycle (S), a bundle of at least three
parallel edges (P), or a simple triconnected graph (R).  Skeleton edges
are either real edges of the graph or virtual edges; each virtual edge
has a twin in the neighboring node's skeleton spanning the same
separation pair, and no two adjacent nodes have equal kind S or P.

Construction splits on separation pairs.  Separation pairs of an
embedded graph are found by counting, which only needs the faces: a
pair of vertices is a separation pair exactly when the number of
4-cycles through them and two of their common faces in the vertex-face
graph exceeds the number of edges joining them, because every such
4-cycle that does not bound a quadrilateral vertex-face-graph face
witnesses a separation and the facial ones correspond one-to-one to the
joining edges.  The count runs once per decomposition: every split
piece inherits the pairs of the graph that lie inside it, less the
split pair.  At a split, searches from the pair find the separation
classes and stop once only one class is still growing; the classes
they finished are copied out into fresh pieces, and the last one is cut
free in the graph itself, so a split costs about its smaller side.

Edge deletions and contractions keep the tree in step with the graph.
When an operation splits a triconnected skeleton, the node is replaced
by a path of new nodes; the largest piece keeps the old node's
machinery while the others are rebuilt, and instrumentation counters
record re-parented nodes and the edges in the non-largest pieces.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .embed import (
    EmbeddedMultigraph,
    NotBiconnected,
    TooFewEdges,
    UnknownEdge,
    dart,
    edge_of,
    rev,
)
from .fourcycle import Detector


# ----------------------------------------------------------------------
# biconnectivity (linear time, multigraph-aware)

def is_biconnected_embedded(g: EmbeddedMultigraph) -> bool:
    """Connected, loopless and without articulation points; two
    vertices need at least two parallel edges."""
    verts = list(g.vertices())
    if len(verts) < 2 or g.n_edges == 0:
        return False
    if any(g.is_loop(e) for e in g.edge_ids()):
        return False
    root = verts[0]
    index = {root: 0}
    low = {root: 0}
    parent_edge = {root: None}
    children = {v: 0 for v in verts}
    order = [root]
    stack = [(root, iter(g.rotation(root)))]
    arti = False
    while stack:
        v, it = stack[-1]
        advanced = False
        for d in it:
            e = edge_of(d)
            if e == parent_edge[v]:
                # skip the tree edge once; a parallel copy is a back edge
                parent_edge[v] = None
                continue
            w = g.vertex_of_dart(rev(d))
            if w in index:
                low[v] = min(low[v], index[w])
            else:
                index[w] = len(index)
                low[w] = index[w]
                parent_edge[w] = e
                children[v] += 1
                order.append(w)
                stack.append((w, iter(g.rotation(w))))
                advanced = True
            if advanced:
                break
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if index[p] > 0 and low[v] >= index[p]:
                    arti = True
    if len(index) != len(verts):
        return False
    if arti:
        return False
    if children[root] > 1:
        return False
    if len(verts) == 2:
        return g.n_edges >= 2
    return True


# ----------------------------------------------------------------------
# separation pairs by 4-cycle counting in the vertex-face graph

def _face_incidences(g: EmbeddedMultigraph):
    """Per face: the multiplicity of each vertex on its boundary."""
    seen: set[int] = set()
    out: list[dict[int, int]] = []
    for d in g.corners():
        if d in seen:
            continue
        cyc = g.trace_face(d)
        seen.update(cyc)
        mult: dict[int, int] = {}
        for x in cyc:
            v = g.vertex_of_dart(x)
            mult[v] = mult.get(v, 0) + 1
        out.append(mult)
    return out

def _pair_products(g: EmbeddedMultigraph):
    """For each vertex pair on a common face, the list of per-face
    corner-multiplicity products."""
    prods: dict[tuple[int, int], list[int]] = defaultdict(list)
    for mult in _face_incidences(g):
        vs = sorted(mult)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                a, b = vs[i], vs[j]
                prods[(a, b)].append(mult[a] * mult[b])
    return prods


def _edge_multiplicity(g: EmbeddedMultigraph) -> dict[tuple[int, int], int]:
    cnt: dict[tuple[int, int], int] = defaultdict(int)
    for e in g.edge_ids():
        u, w = g.endpoints(e)
        if u != w:
            cnt[(u, w) if u < w else (w, u)] += 1
    return cnt


def separation_pairs_embedded(g: EmbeddedMultigraph) -> set[tuple[int, int]]:
    """All separation pairs of a biconnected embedded multigraph.

    A pair is separating exactly when its 4-cycle count through common
    faces in the vertex-face graph exceeds its joining-edge count; the
    count for a pair is elementary symmetric in its per-face corner
    products.
    """
    emult = _edge_multiplicity(g)
    out: set[tuple[int, int]] = set()
    for pair, ps in _pair_products(g).items():
        if len(ps) < 2:
            continue
        s = sum(ps)
        cycles = (s * s - sum(p * p for p in ps)) // 2
        if cycles > emult.get(pair, 0):
            out.add(pair)
    return out


# ----------------------------------------------------------------------
# separation classes

def _split_classes(g: EmbeddedMultigraph, a: int,
                   b: int) -> tuple[list[int], list[tuple[set[int], list[int]]]]:
    """The separation classes of g's edges at the pair (a, b), all but
    one, which is explored as little as possible.

    Edges joining a and b are singletons.  One search starts at each
    neighbour of a other than b; the searches take turns scanning one
    vertex of g - {a, b} and merge when they meet, so a search that runs
    dry has found a whole class.  They stop once at most one search
    still grows: its class is the one left out, or the largest class if
    every search ran dry.  Returns the singleton edges and, per listed
    class, its edge set and its vertices other than a and b.
    """
    singles: list[int] = []
    owner: dict[int, int] = {}      # vertex -> search that claimed it
    up: list[int] = []              # union-find over searches
    todo: list[list[int]] = []      # per search: claimed, not yet scanned
    for d in g.rotation(a):
        w = g.vertex_of_dart(rev(d))
        if w == b:
            singles.append(edge_of(d))
        elif w not in owner:
            owner[w] = len(up)
            up.append(len(up))
            todo.append([w])

    def find(s: int) -> int:
        while up[s] != s:
            up[s] = up[up[s]]
            s = up[s]
        return s

    growing = list(range(len(up)))
    while len(growing) > 1:
        for s in growing:
            s = find(s)
            if not todo[s]:
                continue
            v = todo[s].pop()
            for d in g.rotation(v):
                w = g.vertex_of_dart(rev(d))
                if w == a or w == b:
                    continue
                t = owner.get(w)
                if t is None:
                    owner[w] = s
                    todo[s].append(w)
                    continue
                t = find(t)
                if t != s:
                    if len(todo[t]) > len(todo[s]):
                        s, t = t, s
                    up[t] = s
                    todo[s] += todo[t]
                    todo[t] = []
        growing = [s for s in dict.fromkeys(map(find, growing)) if todo[s]]
    inner: dict[int, list[int]] = defaultdict(list)
    for v, s in owner.items():
        inner[find(s)].append(v)
    done = [({edge_of(d) for v in vs for d in g.rotation(v)}, vs)
            for s, vs in inner.items() if not todo[s]]
    if not growing:
        done.remove(max(done, key=lambda c: len(c[0])))
    return singles, done


# ----------------------------------------------------------------------
# skeleton builders

def _skeleton(kind: str,
              edges: list[tuple[int, int, int]]) -> EmbeddedMultigraph:
    """Canonical embedding of an S skeleton (a simple cycle) or a P
    skeleton (a parallel bundle) given as (eid, u, w)."""
    if kind == "S":
        adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for e, u, w in edges:
            adj[u].append((e, 0))
            adj[w].append((e, 1))
        assert all(len(ds) == 2 for ds in adj.values()), "not a cycle"
        rotations = {v: sorted(ds) for v, ds in adj.items()}
        return EmbeddedMultigraph.build(sorted(adj), edges, rotations)
    (a, b) = sorted({x for _, u, w in edges for x in (u, w)})
    ids = sorted(e for e, _, _ in edges)
    side_at_a = {e: (0 if u == a else 1) for e, u, _ in edges}
    rot_a = [(e, side_at_a[e]) for e in ids]
    rot_b = [(e, 1 - side_at_a[e]) for e in reversed(ids)]
    ends = {e: (u, w) for e, u, w in edges}
    return EmbeddedMultigraph.build(
        [a, b], [(e, *ends[e]) for e in ids], {a: rot_a, b: rot_b})


def _merged_skeleton(x: "SpqrNode", ex: int,
                     y: "SpqrNode", ey: int) -> EmbeddedMultigraph:
    """The skeleton of equal-kind S or P nodes x and y merged across
    the twin pair (x, ex)-(y, ey), which disappears."""
    edges = [(e, *z.graph.endpoints(e))
             for z, drop in ((x, ex), (y, ey))
             for e in sorted(z.graph.edge_ids()) if e != drop]
    return _skeleton(x.kind, edges)


def _class_run(g: EmbeddedMultigraph, v: int, cls: set[int]) -> list[int]:
    """The darts of ``cls`` at v, which occupy one circular run of v's
    rotation, in rotation order."""
    rot = g.rotation(v)
    inc = [edge_of(d) in cls for d in rot]
    n = len(rot)
    if all(inc):
        return list(rot)
    starts = [i for i in range(n) if inc[i] and not inc[(i - 1) % n]]
    assert len(starts) == 1, "class darts are not circularly consecutive"
    i = starts[0]
    run = []
    while inc[i % n]:
        run.append(rot[i % n])
        i += 1
    return run


def _piece_graph(g: EmbeddedMultigraph, cls: set[int],
                 a: int, b: int, vid: int) -> EmbeddedMultigraph:
    """The embedded split piece: one separation class plus a virtual
    edge ``vid`` joining a and b, inserted at the class's run boundary."""
    verts = {a, b}
    edges = []
    for e in sorted(cls):
        u, w = g.endpoints(e)
        verts.update((u, w))
        edges.append((e, u, w))
    edges.append((vid, a, b))
    rotations: dict[int, list[tuple[int, int]]] = {}
    for v in verts:
        if v in (a, b):
            run = [(edge_of(d), d & 1) for d in _class_run(g, v, cls)]
            run.append((vid, 0 if v == a else 1))
            rotations[v] = run
        else:
            rotations[v] = [(edge_of(d), d & 1) for d in g.rotation(v)]
    return EmbeddedMultigraph.build(sorted(verts), edges, rotations)


def _is_simple_cycle_graph(g: EmbeddedMultigraph) -> bool:
    if g.n_vertices < 3 or g.n_edges != g.n_vertices:
        return False
    if any(g.degree(v) != 2 for v in g.vertices()):
        return False
    if any(g.is_loop(e) for e in g.edge_ids()):
        return False
    return len(g.components()) == 1


# ----------------------------------------------------------------------
# tree structure

class SpqrNode:
    """One triconnected component: kind S, P or R with its skeleton.

    ``twin`` maps each virtual edge id of the skeleton to its twin slot
    ``(node, edge id)`` in the neighboring skeleton; one such pair of
    slots is one tree edge, and every skeleton edge not in ``twin`` is
    real.  ``parent`` orients the tree: the children of a node are its
    twin neighbors whose parent it is."""

    __slots__ = ("kind", "graph", "twin", "parent",
                 "det", "cmap", "rcmap", "fvv", "vvf")

    def __init__(self, kind: str, graph: EmbeddedMultigraph,
                 virt: set[int]):
        self.kind = kind
        self.graph = graph
        # slots are filled when the twins are linked
        self.twin: dict[int, tuple[SpqrNode, int]] = dict.fromkeys(
            sorted(virt))
        self.parent: SpqrNode | None = None
        self.det = None    # four-cycle detector over fv(skeleton), R only
        self.cmap = None   # skeleton dart -> vertex-face-graph edge id
        self.rcmap = None  # vertex-face-graph edge id -> skeleton dart
        self.fvv = None    # skeleton vertex -> vertex-face-graph label
        self.vvf = None    # vertex-face-graph label -> skeleton vertex

    def real_ids(self) -> list[int]:
        return sorted(e for e in self.graph.edge_ids()
                      if e not in self.twin)

    # every write to ``twin`` goes through these three

    def link(self, e: int, other: SpqrNode, f: int) -> None:
        """Make virtual edge ``e`` here and ``f`` of ``other`` twins."""
        self.twin[e] = (other, f)
        other.twin[f] = (self, e)

    def unlink(self, e: int) -> tuple[SpqrNode, int]:
        """Drop the link of virtual edge ``e`` on both sides; return its
        former twin slot."""
        y, f = self.twin.pop(e)
        del y.twin[f]
        return y, f

    def move_twin(self, e: int, new: SpqrNode) -> None:
        """Virtual edge ``e`` moved from this skeleton to ``new``'s; its
        twin now points at ``new``."""
        new.link(e, *self.twin.pop(e))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SpqrNode {self.kind} v={sorted(self.graph.vertices())} "
                f"real={self.real_ids()} virt={sorted(self.twin)}>")


def _children(x: SpqrNode) -> list[SpqrNode]:
    """The twin neighbors of ``x`` whose parent is ``x``."""
    return [y for y, _ in x.twin.values() if y.parent is x]


class _Vids:
    """Monotone source of fresh edge ids with a peek at the next one."""

    __slots__ = ("n",)

    def __init__(self, start: int):
        self.n = start

    def __next__(self) -> int:
        v = self.n
        self.n += 1
        return v

    def peek(self) -> int:
        return self.n


class _Shared:
    """State shared by every tree handle over the same node universe:
    the real-edge index, the virtual-id source and the instrumentation
    counters.  Splitting a block into several trees only creates new
    handles; the twin maps live in the nodes and the index stays in
    place."""

    __slots__ = ("node_of_edge", "vids", "parent_changes", "split_edges")

    def __init__(self, vids: "_Vids"):
        self.node_of_edge: dict[int, SpqrNode] = {}
        self.vids = vids
        self.parent_changes = 0
        self.split_edges = 0


class SpqrTree:
    """The SPQR-tree of one biconnected block: a root pointer into a
    shared node universe.

    The tree edges are the twin maps of the nodes (``SpqrNode.twin``),
    walked from the root.  ``node_of_edge`` locates the skeleton holding
    each real edge.  ``parent_changes`` counts nodes whose parent
    pointer was rewritten by update operations, and ``split_edges``
    totals the skeleton edges placed in non-largest pieces of skeleton
    splits.  All three live in the shared registry, so handles over
    blocks of the same origin report combined counters.
    """

    def __init__(self, root: SpqrNode, shared: _Shared):
        self.shared = shared
        self._root = root

    @property
    def node_of_edge(self):
        return self.shared.node_of_edge

    @property
    def parent_changes(self) -> int:
        return self.shared.parent_changes

    @property
    def split_edges(self) -> int:
        return self.shared.split_edges

    def nodes(self) -> list[SpqrNode]:
        """All nodes of this tree, in the order a walk over the twin
        maps from the root first reaches them."""
        seen = {self._root}
        order = [self._root]
        for x in order:
            for y, _ in x.twin.values():
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        return order

    # -- rooting ---------------------------------------------------------

    def _reroot(self, root: SpqrNode) -> None:
        """Set parent pointers by search from ``root`` (used at
        construction; not counted as parent changes)."""
        self._root = root
        root.parent = None
        for x in self.nodes():
            for y, _ in x.twin.values():
                if y is not x.parent:
                    y.parent = x

    @property
    def root(self) -> SpqrNode:
        return self._root

    def set_parent(self, node: SpqrNode, parent: SpqrNode | None) -> None:
        """Re-point ``node`` at ``parent``, counting the change."""
        if node.parent is not parent:
            node.parent = parent
            self.shared.parent_changes += 1

    # -- queries ----------------------------------------------------------

    def serialize(self) -> str:
        """Deterministic serialization: rooted at the node holding the
        smallest real edge id, children sorted by their serialization
        and prefixed with their separation pair."""
        reals = [e for x in self.nodes() for e in x.real_ids()]
        if not reals:
            raise TooFewEdges("tree holds no real edges")
        root = self.shared.node_of_edge[min(reals)]

        def node_str(x: SpqrNode, via: int | None) -> str:
            verts = sorted(x.graph.vertices())
            kids = []
            for e in sorted(x.twin):
                if e == via:
                    continue
                y, f = x.twin[e]
                u, w = x.graph.endpoints(e)
                a, b = (u, w) if u < w else (w, u)
                kids.append(f"{a},{b}:" + node_str(y, f))
            kids.sort()
            head = (f"{x.kind}"
                    f"(v={','.join(map(str, verts))};"
                    f"e={','.join(map(str, x.real_ids()))})")
            return head + "[" + "|".join(kids) + "]"

        return node_str(root, None)

    # -- invariants --------------------------------------------------------

    def check(self) -> None:
        """Assert every structural invariant of the tree."""
        order = self.nodes()
        nodes = set(order)
        seen_real: dict[int, SpqrNode] = {}
        twin_count = 0
        for x in order:
            g = x.graph
            g.check()
            assert all(g.has_edge(e) for e in x.twin), \
                "virtual id not a skeleton edge"
            for e in x.real_ids():
                assert e not in seen_real, f"real edge {e} in two skeletons"
                seen_real[e] = x
            if x.kind == "S":
                assert _is_simple_cycle_graph(g), "S skeleton not a cycle"
            elif x.kind == "P":
                assert g.n_vertices == 2 and g.n_edges >= 3
                assert not any(g.is_loop(e) for e in g.edge_ids())
            elif x.kind == "R":
                assert g.n_vertices >= 4
                assert not any(g.is_loop(e) for e in g.edge_ids())
                assert not _edge_multiplicity_violated(g)
                assert all(g.degree(v) >= 3 for v in g.vertices()), \
                    "R skeleton vertex of degree < 3"
                assert is_biconnected_embedded(g)
                assert not separation_pairs_embedded(g), \
                    "R skeleton has a separation pair"
                _check_r_sync(x)
            else:
                raise AssertionError(f"unknown kind {x.kind}")
            for e, (y, f) in x.twin.items():
                twin_count += 1
                assert y in nodes
                assert y.twin.get(f) == (x, e), "twin not mutual"
                pa = set(x.graph.endpoints(e))
                pb = set(y.graph.endpoints(f))
                assert pa == pb, "twins span different pairs"
                if x.kind == y.kind:
                    assert x.kind == "R", "adjacent same-kind S/P nodes"
        assert all(self.shared.node_of_edge[e] is x
                   for e, x in seen_real.items())
        assert twin_count == 2 * (len(nodes) - 1), "tree edge count"
        # parent pointers form the tree rooted at _root: following them
        # down from the root reaches every node exactly once
        assert self._root.parent is None
        reach = {self._root}
        queue = [self._root]
        while queue:
            x = queue.pop()
            for y in _children(x):
                assert y not in reach, "node reached twice"
                reach.add(y)
                queue.append(y)
        assert reach == nodes, "parent pointers disconnected"


def _edge_multiplicity_violated(g: EmbeddedMultigraph) -> bool:
    seen = set()
    for e in g.edge_ids():
        u, w = g.endpoints(e)
        key = (u, w) if u < w else (w, u)
        if key in seen:
            return True
        seen.add(key)
    return False


# ----------------------------------------------------------------------
# R-node machinery: a four-cycle detector over the vertex-face graph

def _attach_r(x: SpqrNode) -> None:
    """Equip an R node with its split-detection machinery: a
    separating-4-cycle detector over the vertex-face graph of the
    skeleton, plus the corner and label correspondences the surgeries
    keep in sync."""
    fv, info = x.graph.vertex_face_graph()
    x.det = Detector(fv)
    assert not x.det.separating_now(), \
        "triconnected skeleton has a separating 4-cycle in its radial graph"
    x.det.reset_op_log()
    x.cmap = dict(info.fv_edge_of_corner)
    x.rcmap = {e: d for d, e in x.cmap.items()}
    x.fvv = {v: v for v in x.graph.vertices()}
    x.vvf = dict(x.fvv)


def _check_r_sync(x: SpqrNode) -> None:
    """Assert that the maintained vertex-face graph, the corner map and
    the label maps of an R node agree with its skeleton."""
    g = x.graph
    fv = x.det.tree.root.graph
    assert set(x.cmap) == set(g.corners())
    assert sorted(x.cmap.values()) == sorted(fv.edge_ids())
    assert x.rcmap == {e: d for d, e in x.cmap.items()}
    assert set(x.fvv) == set(g.vertices())
    assert x.vvf == {f: v for v, f in x.fvv.items()}
    for v in g.vertices():
        fl = x.fvv[v]
        prim = [x.cmap[d] for d in g.rotation(v)]
        rot = [edge_of(d) for d in fv.rotation(fl)]
        assert len(rot) == len(prim)
        i = rot.index(prim[0])
        assert rot[i:] + rot[:i] == prim, "rotation mismatch at a vertex"
        for e in prim:
            a, b = fv.endpoints(e)
            other = b if a == fl else a
            assert fl in (a, b) and other not in x.vvf
    # every face of the maintained graph is the quad of one skeleton edge
    quads = []
    for e in g.edge_ids():
        d0, d1 = dart(e, 0), dart(e, 1)
        quads.append(sorted((x.cmap[g.rotation_prev(d0)], x.cmap[d0],
                             x.cmap[g.rotation_prev(d1)], x.cmap[d1])))
    faces = []
    for f in fv.faces():
        assert len(f) == 4, "non-quad face in a maintained radial graph"
        faces.append(sorted(edge_of(d) for d in f))
    assert sorted(quads) == sorted(faces)


def _fv_quad(x: SpqrNode, e: int) -> list[int]:
    """The face of the maintained vertex-face graph that is the quad of
    skeleton edge ``e``, as its dart cycle."""
    g = x.graph
    d0, d1 = dart(e, 0), dart(e, 1)
    key = sorted((x.cmap[g.rotation_prev(d0)], x.cmap[d0],
                  x.cmap[g.rotation_prev(d1)], x.cmap[d1]))
    fv = x.det.tree.root.graph
    for s in (0, 1):
        f = fv.trace_face(dart(x.cmap[d0], s))
        if len(f) == 4 and sorted(edge_of(z) for z in f) == key:
            return f
    raise AssertionError(f"no quad face for skeleton edge {e}")


def _fv_split_contract(x: SpqrNode, f: list[int], i: int) -> int:
    """Insert an edge across quad face ``f`` of the maintained
    vertex-face graph between the vertices at positions ``i`` and
    ``i + 2``, contract it, and return the merged label (the smaller
    of the two)."""
    fv = x.det.tree.root.graph
    j = (i + 2) % 4
    u = fv.vertex_of_dart(f[i])
    w = fv.vertex_of_dart(f[j])
    assert u != w, "degenerate quad: cannot merge a vertex with itself"
    eid = x.det.insert_edge(u, w, fv.rotation_prev(f[i]),
                            fv.rotation_prev(f[j]))
    assert fv.has_edge(eid)
    x.det.contract_edge(eid)
    return min(u, w)


def _cmap_merge(x: SpqrNode, keep_dart: int, gone_dart: int) -> None:
    """Two corners merged in the vertex-face graph; the larger of their
    edge ids survives and now belongs to ``keep_dart``."""
    a = x.cmap[keep_dart]
    b = x.cmap.pop(gone_dart)
    kept = a if a > b else b
    x.cmap[keep_dart] = kept
    x.rcmap.pop(a, None)
    x.rcmap.pop(b, None)
    x.rcmap[kept] = keep_dart


def _r_delete_edge(x: SpqrNode, e: int) -> None:
    """Delete skeleton edge ``e`` (no pendant endpoint, not a bridge)
    and mirror the change in the vertex-face graph: the two faces of
    ``e`` merge and its four corners pair up."""
    g = x.graph
    d0, d1 = dart(e, 0), dart(e, 1)
    rp0, rp1 = g.rotation_prev(d0), g.rotation_prev(d1)
    assert rp0 != d0 and rp1 != d1, "pendant endpoint needs pendant removal"
    f = _fv_quad(x, e)
    fv = x.det.tree.root.graph
    i = next(i for i, z in enumerate(f)
             if fv.vertex_of_dart(z) not in x.vvf)
    assert fv.vertex_of_dart(f[(i + 2) % 4]) not in x.vvf
    _fv_split_contract(x, f, i)
    _cmap_merge(x, rp0, d0)
    _cmap_merge(x, rp1, d1)
    g.delete_edge(e)


def _r_contract_edge(x: SpqrNode, e: int, keep: int) -> None:
    """Contract skeleton edge ``e`` (the only edge joining its
    endpoints) into ``keep`` and mirror the change in the vertex-face
    graph: the two endpoint vertices merge and the corners flanking
    ``e`` pair up across it."""
    g = x.graph
    d0, d1 = dart(e, 0), dart(e, 1)
    u, w = g.vertex_of_dart(d0), g.vertex_of_dart(d1)
    assert keep in (u, w) and u != w
    rp0, rp1 = g.rotation_prev(d0), g.rotation_prev(d1)
    f = _fv_quad(x, e)
    fv = x.det.tree.root.graph
    i = next(i for i, z in enumerate(f)
             if fv.vertex_of_dart(z) in x.vvf)
    assert fv.vertex_of_dart(f[(i + 2) % 4]) in x.vvf
    merged = _fv_split_contract(x, f, i)
    _cmap_merge(x, rp0, d1)
    _cmap_merge(x, rp1, d0)
    fu = x.fvv.pop(u)
    fw = x.fvv.pop(w)
    del x.vvf[fu]
    del x.vvf[fw]
    assert merged == min(fu, fw)
    x.fvv[keep] = merged
    x.vvf[merged] = keep
    g.contract_edge(e, keep=keep)


def _r_reports(x: SpqrNode):
    """Digest the detector's discovery log since its last reset into
    skeleton terms: the separation pairs of the current skeleton, the
    marked corners (darts whose following rotation gap is crossed by a
    separating 4-cycle of the vertex-face graph), and the marked
    corners grouped by the pair they certify."""
    cycles = x.det.separating_now()
    pairs: set[tuple[int, int]] = set()
    marked: set[int] = set()
    by_pair: dict[tuple[int, int], set[int]] = defaultdict(set)
    for (a, b), m1, lk1, m2, lk2 in cycles:
        if a in x.vvf:
            assert b in x.vvf and m1 not in x.vvf and m2 not in x.vvf
            p, q = x.vvf[a], x.vvf[b]
        else:
            assert m1 in x.vvf and m2 in x.vvf
            p, q = x.vvf[m1], x.vvf[m2]
        key = (p, q) if p < q else (q, p)
        pairs.add(key)
        for e in lk1 + lk2:
            d = x.rcmap[e]
            marked.add(d)
            by_pair[key].add(d)
    return pairs, marked, dict(by_pair)


def _r_pendant_delete(x: SpqrNode, e: int) -> None:
    """Delete skeleton edge ``e`` with a pendant endpoint, removing the
    pendant vertex; in the vertex-face graph the pendant's single
    corner edge contracts away and the two corners at the other end
    pair up."""
    g = x.graph
    d0, d1 = dart(e, 0), dart(e, 1)
    if g.degree(g.vertex_of_dart(d1)) == 1:
        d0, d1 = d1, d0
    z = g.vertex_of_dart(d0)
    w = g.vertex_of_dart(d1)
    assert g.degree(z) == 1 and g.degree(w) >= 2
    rp1 = g.rotation_prev(d1)
    c_z = x.cmap.pop(d0)
    x.det.contract_edge(c_z)
    del x.rcmap[c_z]
    _cmap_merge(x, rp1, d1)
    fz = x.fvv.pop(z)
    del x.vvf[fz]
    g.delete_edge(e)
    g.delete_vertex(z)


# ----------------------------------------------------------------------
# two-sided piece search over a skeleton split by an operation
#
# After a deletion or contraction the skeleton decomposes into a path
# of triconnected components.  Two searches start from the two ends of
# that path and peel off components one by one, alternating bounded
# work units, so that the unclaimed remainder y is never touched and
# the cost is proportional to the smaller side.  A component is
# certified complete when the frontier of the grown region is exactly
# two vertices forming a known separation pair.

class _SideSearch:
    """One side of the two-sided search: grows corner-bounded regions
    (a marked corner is never crossed), claims edges in a ledger shared
    with the opposite side, and finishes a piece whenever the cumulative
    frontier shrinks to a certified separation pair."""

    def __init__(self, g: EmbeddedMultigraph, pairs, marked, claim,
                 owned_all, side: int, seeds):
        self.g = g
        self.pairs = pairs
        self.marked = marked
        self.claim = claim          # edge -> side that claimed it
        self.owned_all = owned_all  # vertex -> darts claimed by either side
        self.side = side
        self.owned: dict[int, int] = defaultdict(int)
        self.open: set[int] = set()
        self.cut: tuple[int, int] | None = None
        self.seeds = list(seeds)
        self.w_darts: set[int] = set()
        self.w_edges: set[int] = set()
        self.w_at: dict[int, list[int]] = defaultdict(list)
        self.frontier: list[int] = []
        # finished pieces: (edges, darts-at-vertex, near cut, far cut)
        self.pieces: list[tuple] = []
        self.state = "running"
        self.reason = None

    # -- region growth ---------------------------------------------------

    def _claim(self, d: int) -> None:
        e = edge_of(d)
        self.claim[e] = self.side
        self.w_edges.add(e)
        for x in (d, d ^ 1):
            v = self.g.vertex_of_dart(x)
            self.w_darts.add(x)
            self.w_at[v].append(x)
            self.owned[v] += 1
            self.owned_all[v] += 1
            if self.owned[v] < self.g.degree(v):
                self.open.add(v)
            else:
                self.open.discard(v)
            self.frontier.append(x)

    def _scan(self, d: int) -> bool:
        """Expand one region dart; False on collision with the other
        side."""
        g = self.g
        nbrs = [d ^ 1]
        if d not in self.marked:
            nbrs.append(g.rotation_next(d))
        pd = g.rotation_prev(d)
        if pd not in self.marked:
            nbrs.append(pd)
        for nd in nbrs:
            if nd in self.w_darts:
                continue
            e = edge_of(nd)
            o = self.claim.get(e)
            if o == self.side:
                raise AssertionError("re-entered a sealed piece")
            if o is not None:
                return False
            self._claim(nd)
        return True

    # -- completion -------------------------------------------------------

    def _far_cut(self) -> tuple[int, int] | None:
        if len(self.open) != 2:
            return None
        p, q = sorted(self.open)
        return (p, q) if (p, q) in self.pairs else None

    def _finish_piece(self, far) -> None:
        self.pieces.append((self.w_edges, dict(self.w_at), self.cut, far))
        g = self.g
        seeds = []
        if far is not None:
            seeds = self._flank_seeds(
                d for v in far for d in self.w_at.get(v, ()))

            def prio(s):
                if set(g.endpoints(edge_of(s))) == set(far):
                    return (0, 0)
                v = g.vertex_of_dart(s)
                return (1, g.degree(v) - self.owned_all[v])

            seeds.sort(key=prio)
        self.cut = far
        self.seeds = seeds
        self.w_darts = set()
        self.w_edges = set()
        self.w_at = defaultdict(list)

    def _flank_seeds(self, darts) -> list[int]:
        """The unclaimed darts across a marked rotation gap from the
        given darts of the current region, in scan order."""
        g = self.g
        out = []
        for d in darts:
            if d in self.marked:
                nd = g.rotation_next(d)
                if nd not in self.w_darts and edge_of(nd) not in self.claim:
                    out.append(nd)
            pd = g.rotation_prev(d)
            if (pd in self.marked and pd not in self.w_darts
                    and edge_of(pd) not in self.claim):
                out.append(pd)
        return out

    # -- driver interface ---------------------------------------------------

    def step(self) -> None:
        """Advance by one bounded unit of work."""
        if self.state != "running":
            return
        if self.frontier:
            if not self._scan(self.frontier.pop()):
                self.state, self.reason = "stopped", "collision"
            return
        if self.w_edges:
            far = self._far_cut()
            if far is not None:
                self._finish_piece(far)
                return
            if not self.open:
                # the region closed with nothing beyond it
                self._finish_piece(None)
                self.state, self.reason = "stopped", "consumed"
                return
        blocked = False
        for i, s in enumerate(self.seeds):
            o = self.claim.get(edge_of(s))
            if o == self.side:
                continue
            if o is not None:
                blocked = True
                continue
            del self.seeds[: i + 1]
            self._claim(s)
            return
        self.seeds = []
        if blocked:
            self.state, self.reason = "stopped", "blocked"
            return
        if self.w_edges:
            # the region closed without completing and the cut seeds
            # ran out: fall back to all its flank darts
            fresh = self._flank_seeds(self.w_darts)
            if fresh:
                self.seeds = fresh
                return
        self.state, self.reason = "stopped", "stuck"


def _run_split_search(g: EmbeddedMultigraph, pairs, marked, by_pair,
                      seeds_a, seeds_b):
    """Peel path pieces from both ends in lockstep.

    Returns ``(side_a, side_b, y_edges)``: the two searches with their
    finished piece lists in path order from their respective ends, and
    the edge set of the unclaimed remainder.  When everything was
    claimed, ``y_edges`` is empty and the caller pops the largest
    finished piece instead.

    The search stops early — before either side wanders into the large
    remainder — once every certified pair is *resolved*: at most one of
    the corner-runs it delimits is still unclaimed.  Runs are sampled at
    the pair's own marked corners, and an edge counts as claimed only if
    its piece is already sealed, so a half-grown region never makes a
    pair look resolved prematurely.
    """
    claim: dict[int, int] = {}
    owned_all: dict[int, int] = defaultdict(int)
    a = _SideSearch(g, pairs, marked, claim, owned_all, 0, seeds_a)
    b = _SideSearch(g, pairs, marked, claim, owned_all, 1, seeds_b)

    def resolved() -> bool:
        for _pair, corners in by_pair.items():
            loose: dict[int, int] = defaultdict(int)
            for d in corners:
                nd = g.rotation_next(d)
                e = edge_of(nd)
                if (claim.get(e) is None or e in a.w_edges
                        or e in b.w_edges):
                    loose[g.vertex_of_dart(d)] += 1
            if any(c > 1 for c in loose.values()):
                return False
        return True

    while a.state == "running" and b.state == "running":
        for s in (a, b):
            n = len(s.pieces)
            s.step()
            if len(s.pieces) != n and resolved():
                for t in (a, b):
                    t.state, t.reason = "stopped", "resolved"
            if s.state != "running":
                break
    done = set()
    for s in (a, b):
        for edges, _at, _near, _far in s.pieces:
            done |= edges
    y_edges = {e for e in g.edge_ids() if e not in done}
    return a, b, y_edges


def _segment_graph(g: EmbeddedMultigraph, edges: set[int], my_idx: int,
                   seg_of: dict[int, int],
                   near, near_id, far, far_id) -> EmbeddedMultigraph:
    """One split segment as an embedded graph: the induced subgraph on
    ``edges`` plus a virtual edge per interface, placed in the rotation
    gap that faces the corresponding side of the chain.  ``seg_of``
    gives each edge's position in the chain and ``my_idx`` this
    segment's position, which orients the two gaps at a shared cut
    vertex."""
    verts: set[int] = set()
    elist = [(e, *g.endpoints(e)) for e in sorted(edges)]
    for _e, u, w in elist:
        verts.update((u, w))
    virts = []  # (pair, vid, toward): toward orders the chain side
    if near is not None:
        virts.append((near, near_id, -1))
    if far is not None:
        virts.append((far, far_id, +1))
    for pair, vid, _t in virts:
        elist.append((vid, *pair))
        verts.update(pair)
    cutverts = {v for pair, _vid, _t in virts for v in pair}
    rotations: dict[int, list[tuple[int, int]]] = {}
    for v in sorted(verts):
        if v not in cutverts:
            rotations[v] = [(edge_of(d), d & 1) for d in g.rotation(v)]
            continue
        # walk the full rotation; every maximal run of foreign darts is
        # one wedge of neighboring chain material and collapses to the
        # virtual edge(s) of the side(s) appearing in it, in order
        rot = g.rotation(v)
        mine = [edge_of(d) in edges for d in rot]
        if not any(mine):
            # the segment passes through v on virtual edges alone
            through = [(vid, 0 if v == pair[0] else 1)
                       for pair, vid, _t in virts if v in pair]
            assert len(through) == 2, "cut vertex with a single dart"
            rotations[v] = through
            continue
        assert not all(mine), "cut vertex fully inside the segment"
        n = len(rot)
        start = next(i for i in range(n) if mine[i] and not mine[i - 1])
        items: list[tuple[int, int]] = []
        placed: set[int] = set()
        i = start
        for _ in range(n):
            d = rot[i % n]
            if mine[i % n]:
                items.append((edge_of(d), d & 1))
            else:
                side_sign = -1 if seg_of[edge_of(d)] < my_idx else 1
                for pair, vid, toward in virts:
                    if toward == side_sign and v in pair and vid not in placed:
                        items.append((vid, 0 if v == pair[0] else 1))
                        placed.add(vid)
            i += 1
        want = {vid for pair, vid, _t in virts if v in pair}
        assert placed == want, "interface wedge missing at a cut vertex"
        rotations[v] = items
    return EmbeddedMultigraph.build(sorted(verts), elist, rotations)


def _reduce_to_segment(x: SpqrNode, y_edges: set[int],
                       near, far) -> dict:
    """Shrink an R node's skeleton to the segment ``y_edges`` in place,
    replacing each doomed chunk by one surviving edge across its
    interface pair.  Every removal goes through the synchronized
    surgeries, so the detector machinery stays valid.  Returns the
    surviving edge id per interface, ``{"near": id, "far": id}`` with
    ``None`` for an absent interface."""
    g = x.graph
    keys = []
    if near is not None:
        keys.append(frozenset(near))
    if far is not None:
        keys.append(frozenset(far))
    cutvset = {v for k in keys for v in k}
    interface = set(keys)

    def local_mult(e: int, u: int, w: int) -> int:
        # parallel count, scanned at a non-cut endpoint so the cost is
        # bounded by the doomed chunk, never by the kept segment
        z = u if u not in cutvset else w
        assert z not in cutvset, "doomed edge spanning two interfaces"
        return sum(1 for d in g.rotation(z)
                   if set(g.endpoints(edge_of(d))) == {u, w})

    deferred: list[int] = []
    work = [e for e in sorted(g.edge_ids()) if e not in y_edges]
    for e in work:
        u, w = g.endpoints(e)
        key = frozenset((u, w))
        if key in interface:
            deferred.append(e)
            continue
        if local_mult(e, u, w) >= 2:
            _r_delete_edge(x, e)
            continue
        if g.degree(u) == 1 or g.degree(w) == 1:
            _r_pendant_delete(x, e)
            continue
        keep = u if u in cutvset else (w if w in cutvset else min(u, w))
        dying = w if keep == u else u
        assert dying not in cutvset, "contracting away a cut vertex"
        _r_contract_edge(x, e, keep)
    survivors = {"near": None, "far": None}
    for name, pair in (("near", near), ("far", far)):
        if pair is None:
            continue
        key = frozenset(pair)
        mine = [e for e in deferred
                if frozenset(g.endpoints(e)) == key and survivors["near"] != e]
        assert mine, "interface chunk left no spanning edge"
        survivors[name] = mine[0]
    doomed_left = [e for e in deferred
                   if e not in (survivors["near"], survivors["far"])]
    for e in doomed_left:
        _r_delete_edge(x, e)
    return survivors


def _rebuilt(g: EmbeddedMultigraph) -> EmbeddedMultigraph:
    """A fresh, validated copy of g with the same rotations."""
    return EmbeddedMultigraph.build(
        sorted(g.vertices()),
        [(e, *g.endpoints(e)) for e in sorted(g.edge_ids())],
        {v: [(edge_of(d), d & 1) for d in g.rotation(v)]
         for v in g.vertices()})


def _decompose(g: EmbeddedMultigraph, pairs: set[tuple[int, int]],
               vids, vid_base: int, nodes: list[SpqrNode]) -> None:
    """Append the S, P and R nodes of g to ``nodes``, drawing virtual
    ids (all at or above ``vid_base``) from ``vids``.  ``pairs`` are the
    separation pairs of g, which is consumed.

    Each round splits on the smallest pair (a, b).  Every separation
    class that :func:`_split_classes` lists is copied out into a fresh
    piece closed by a virtual edge a-b and decomposed recursively; the
    class it leaves unlisted is cut free in g itself, closed the same
    way, and the loop goes on with it.  Several classes also make a P
    hub of the edges joining a and b and one virtual edge per class.
    No piece needs a fresh count: by the split-component lemma of
    Hopcroft and Tarjan ("Dividing a graph into triconnected
    components", SIAM J. Comput. 1973), the separation pairs of a split
    piece are exactly the pairs of the graph with both ends in the
    piece, other than (a, b).
    """
    peeled = False
    while True:
        kind = ("P" if g.n_vertices == 2
                else "S" if _is_simple_cycle_graph(g)
                else "R" if not pairs else None)
        if kind is not None:
            virt = {e for e in g.edge_ids() if e >= vid_base}
            if kind == "R":
                skel = _rebuilt(g) if peeled else g
            else:
                skel = _skeleton(kind, [(e, *g.endpoints(e))
                                        for e in sorted(g.edge_ids())])
            nodes.append(SpqrNode(kind, skel, virt))
            return
        pair = min(pairs)
        a, b = pair
        singles, done = _split_classes(g, a, b)
        assert done or len(singles) >= 2, \
            "singleton class in a two-class split"
        gone = set(singles).union(*(cls for cls, _ in done))
        # the class that stays gets its virtual edge where _piece_graph
        # puts it: right after the last dart of its run at a and at b,
        # which is right before the run of the classes that leave
        after = [g.rotation_prev(_class_run(g, v, gone)[0]) for v in pair]
        hub = [(e, a, b) for e in singles]
        for cls, inner in done:
            vid = next(vids)
            hub.append((vid, a, b))
            verts = {a, b, *inner}
            _decompose(_piece_graph(g, cls, a, b, vid),
                       {q for q in pairs if q != pair
                        and q[0] in verts and q[1] in verts},
                       vids, vid_base, nodes)
        if len(hub) == 1:
            # two classes share one virtual edge
            ((vid, _, _),) = hub
        else:
            vid = next(vids)
            hub.append((vid, a, b))
            nodes.append(SpqrNode("P", _skeleton("P", hub),
                                  {e for e, _, _ in hub if e >= vid_base}))
        for e in gone:
            g.delete_edge(e)
        cut = {v for _, inner in done for v in inner}
        for v in cut:
            g.delete_vertex(v)
        g.insert_edge(a, b, *after, eid=vid)
        peeled = True
        pairs = {q for q in pairs if q != pair
                 and q[0] not in cut and q[1] not in cut}


def _owners(nodes: list[SpqrNode]) -> dict[int, list[tuple[SpqrNode, int]]]:
    """During construction virtual ids are globally unique, so each id
    names one twin pair; map id -> its two (node, id) slots."""
    own: dict[int, list[tuple[SpqrNode, int]]] = defaultdict(list)
    for x in nodes:
        for e in x.twin:
            own[e].append((x, e))
    return own


def _merge_same_kind(nodes: list[SpqrNode]) -> list[SpqrNode]:
    """Merge every group of equal-kind S or P nodes joined by virtual
    edges into one node: the shared virtual edges disappear and each
    group's canonical skeleton is built once."""
    up = {x: x for x in nodes}

    def find(x: SpqrNode) -> SpqrNode:
        while up[x] is not x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    inner: set[int] = set()
    for vid, ((x, _), (y, _)) in _owners(nodes).items():
        if x.kind == y.kind and x.kind in "SP":
            inner.add(vid)
            up[find(x)] = find(y)
    groups: dict[SpqrNode, list[SpqrNode]] = defaultdict(list)
    for x in nodes:
        groups[find(x)].append(x)
    out = []
    for group in groups.values():
        if len(group) == 1:
            out.append(group[0])
            continue
        kind = group[0].kind
        edges = sorted((e, *z.graph.endpoints(e)) for z in group
                       for e in z.graph.edge_ids() if e not in inner)
        out.append(SpqrNode(kind, _skeleton(kind, edges),
                            set().union(*(z.twin for z in group)) - inner))
    return out


def _mini_nodes(shared: _Shared, sg: EmbeddedMultigraph) -> list[SpqrNode]:
    """Decompose an embedded graph into SPQR nodes, drawing internal
    virtual ids from the shared source and registering the internal
    twin links.  Edges that predate the call (reals, interface ids) are
    left unclassified for :func:`_adopt`.  ``sg`` is consumed."""
    vid_base = shared.vids.peek()
    nodes: list[SpqrNode] = []
    _decompose(sg, separation_pairs_embedded(sg), shared.vids, vid_base,
               nodes)
    nodes = _merge_same_kind(nodes)
    for vid, slots in _owners(nodes).items():
        assert len(slots) == 2, f"virtual edge {vid} not paired"
        (x, e), (y, f) = slots
        x.link(e, y, f)
    return nodes


def _adopt(shared: _Shared, nodes: list[SpqrNode],
           old: SpqrNode | None, ports=()) -> None:
    """Classify the edges of fresh nodes that predate them.  A virtual
    edge of the replaced node ``old`` moves with its twin link from
    ``old`` to the fresh node holding it; the ``ports`` ids are left for
    the caller to link; every other such edge is real.  R nodes get
    their machinery."""
    for nd in nodes:
        for e in sorted(nd.graph.edge_ids()):
            if e in nd.twin or e in ports:
                continue
            if old is not None and e in old.twin:
                old.move_twin(e, nd)
            else:
                shared.node_of_edge[e] = nd
        if nd.kind == "R":
            _attach_r(nd)


def build_spqr(g: EmbeddedMultigraph) -> SpqrTree:
    """The SPQR-tree of a biconnected embedded multigraph with at least
    three edges.  The input is copied; skeletons are fresh graphs."""
    if g.n_edges < 3:
        raise TooFewEdges("an SPQR-tree needs at least 3 edges")
    if not is_biconnected_embedded(g):
        raise NotBiconnected("SPQR-tree of a non-biconnected graph")
    shared = _Shared(_Vids(max(g.edge_ids()) + 1))
    nodes = _mini_nodes(shared, g.copy())
    _adopt(shared, nodes, None)
    tree = SpqrTree(nodes[0], shared)
    tree._reroot(nodes[0])
    return tree


# ----------------------------------------------------------------------
# splitting a maintained R node after a deletion or contraction

def _holder(nodes: list[SpqrNode], e: int) -> SpqrNode:
    for nd in nodes:
        if nd.graph.has_edge(e):
            return nd
    raise AssertionError(f"edge {e} in no node")


def _merge_adjacent(tree: SpqrTree, n1: SpqrNode, e1: int,
                    n2: SpqrNode, e2: int) -> SpqrNode:
    """Merge two adjacent equal-kind S or P nodes linked by the twin
    pair (n1,e1)-(n2,e2).  The node with more children keeps its
    identity (so its children keep their parent pointers for free) and
    receives a rebuilt canonical skeleton; the other node's twin links,
    real edges and children are re-seated onto it."""
    assert n1.kind == n2.kind and n1.kind in "SP"
    if len(_children(n1)) >= len(_children(n2)):
        keep, loser = n1, n2
    else:
        keep, loser = n2, n1
    skel = _merged_skeleton(n1, e1, n2, e2)
    loser_reals = loser.real_ids()
    n1.unlink(e1)
    # splice the dead node out of the rooted tree
    if keep.parent is loser:
        tree.set_parent(keep, loser.parent)
    for c in _children(loser):
        tree.set_parent(c, keep)
    loser.parent = None
    keep.graph = skel
    for e in list(loser.twin):
        loser.move_twin(e, keep)
    for e in loser_reals:
        tree.shared.node_of_edge[e] = keep
    if tree._root is loser:
        tree._root = keep
    return keep


def _split_r_node(tree: SpqrTree, x: SpqrNode,
                  seeds_a: list[int], seeds_b: list[int]) -> None:
    """After a surgery on R node ``x``, digest the detector's reports
    and, if the skeleton now has separation pairs, replace ``x`` in the
    tree by the path of its split pieces.  The big piece keeps ``x``'s
    machinery; the small ones are rebuilt from scratch."""
    shared = tree.shared
    pairs, marked, by_pair = _r_reports(x)
    g = x.graph
    if not pairs:
        x.det.reset_op_log()
        return
    a, b, y = _run_split_search(g, pairs, marked, by_pair,
                                seeds_a, seeds_b)
    old_parent = x.parent
    parent_key = None
    if old_parent is not None:
        parent_key = next(e for e, (y, _) in old_parent.twin.items()
                          if y is x)

    region: list[SpqrNode] = []
    sizes: list[int] = []

    if a.reason == "resolved" and y:
        near = a.pieces[-1][3] if a.pieces else None
        far = b.pieces[-1][3] if b.pieces else None
        chain = [(set(p[0]), p[2], p[3]) for p in a.pieces]
        yidx = len(chain)
        chain.append((set(y), near, far))
        chain += [(set(p[0]), p[3], p[2]) for p in reversed(b.pieces)]
        seg_of = {e: i for i, (es, _n, _f) in enumerate(chain) for e in es}
        jid = [next(shared.vids) for _ in range(len(chain) - 1)]
        ports: list[list] = [[None, None] for _ in chain]
        for i, (es, nr, fr) in enumerate(chain):
            sizes.append(len(es))
            if i == yidx:
                continue
            nid = jid[i - 1] if i > 0 else None
            fid = jid[i] if i < len(chain) - 1 else None
            sg = _segment_graph(g, es, i, seg_of, nr, nid, fr, fid)
            nodes = _mini_nodes(shared, sg)
            region.extend(nodes)
            if nid is not None:
                ports[i][0] = (_holder(nodes, nid), nid)
            if fid is not None:
                ports[i][1] = (_holder(nodes, fid), fid)
            _adopt(shared, nodes, x, (nid, fid))
        sv = _reduce_to_segment(x, set(y), near, far)
        x.det.reset_op_log()
        # a surviving interface edge keeps an id that lives on in the
        # neighboring segment, so it becomes a virtual edge under a
        # fresh id
        for side, e in enumerate((sv["near"], sv["far"])):
            if e is not None:
                vid = next(shared.vids)
                _rekey(x, e, vid)
                ports[yidx][side] = (x, vid)
        if g.n_vertices == 2:
            x.kind = "P"
        elif _is_simple_cycle_graph(g):
            x.kind = "S"
        if x.kind != "R":
            x.det = x.cmap = x.rcmap = x.fvv = x.vvf = None
        region.append(x)
        for i in range(len(chain) - 1):
            (ln, le), (rn, re_) = ports[i][1], ports[i + 1][0]
            ln.link(le, rn, re_)
        anchor_survivor = x
    else:
        # the searches met before a dominant remainder emerged; the
        # whole skeleton is about the size of the work already done,
        # so rebuild it outright
        nodes = _mini_nodes(shared, g)
        region.extend(nodes)
        sizes = [nd.graph.n_edges for nd in nodes]
        kids = _children(x)
        _adopt(shared, nodes, x)
        tree.set_parent(x, None)
        for c in kids:
            c.parent = None
        anchor_survivor = None

    shared.split_edges += sum(sizes) - max(sizes)

    # dissolve same-kind S/P adjacencies created at the seams; the
    # region is kept in creation order
    regset = dict.fromkeys(region)
    changed = True
    while changed:
        changed = False
        for nd in list(regset):
            if nd.kind not in "SP":
                continue
            for e in sorted(nd.twin):
                m, f = nd.twin[e]
                if m.kind != nd.kind:
                    continue
                if m is old_parent:
                    # the region grows over the parent; re-anchor above
                    pp = m.parent
                    if pp is None:
                        old_parent = parent_key = None
                    else:
                        parent_key = next(
                            k for k, (z, _) in pp.twin.items() if z is m)
                        old_parent = pp
                merged = _merge_adjacent(tree, nd, e, m, f)
                regset.pop(nd, None)
                regset.pop(m, None)
                regset[merged] = None
                if nd is anchor_survivor or m is anchor_survivor:
                    anchor_survivor = merged
                changed = True
                break
            if changed:
                break

    # re-anchor the region in the rooted tree and orient its parents
    if old_parent is not None:
        anchor, _ = old_parent.twin[parent_key]
        assert anchor in regset
        tree.set_parent(anchor, old_parent)
    else:
        anchor = (anchor_survivor if anchor_survivor in regset
                  else next(iter(regset)))
        tree.set_parent(anchor, None)
        tree._root = anchor
    seen = {anchor}
    stack = [anchor]
    while stack:
        cur = stack.pop()
        for e in sorted(cur.twin):
            m, _f = cur.twin[e]
            if m is cur.parent:
                continue
            if m in regset:
                if m not in seen:
                    seen.add(m)
                    tree.set_parent(m, cur)
                    stack.append(m)
            elif m.parent is not cur:
                tree.set_parent(m, cur)
    assert seen == regset.keys(), "split region not connected"


# ----------------------------------------------------------------------
# public update operations
#
# A deletion or contraction dispatches on the kind of the node holding
# the edge.  Most cases keep the block in one piece and only reshape the
# tree; deleting a cycle (S) edge breaks the block into a path of
# smaller blocks, and contracting a parallel (P) edge breaks it into a
# star of blocks around the merged vertex.  The outcome is reported in a
# ChangeLog so the block-cutpoint layer can restructure accordingly.

@dataclass
class Piece:
    """One block produced by a path or star split: its two attachment
    vertices on the former cycle (equal for star pieces and loops), and
    either its SPQR-tree or, for blocks of fewer than three edges, the
    real edge ids it consists of."""
    attach: tuple[int, int]
    tree: "SpqrTree | None"
    edges: tuple[int, ...] = ()


@dataclass
class ChangeLog:
    """Outcome of one public update.

    ``kind`` is ``"intact"`` (the block survives as one block with a
    tree), ``"pair"`` (the block survives but shrank to two edges, so
    its tree is gone), ``"path"`` (an S-deletion broke the block into
    the ordered pieces), or ``"star"`` (a P-contraction broke the block
    into pieces sharing the merged vertex)."""
    op: str
    edge: int
    kind: str
    tree: "SpqrTree | None" = None
    pair_edges: tuple[int, int] | None = None
    pair_ends: tuple[int, int] | None = None
    pieces: list[Piece] | None = None
    merged_vertex: int | None = None
    retired_vertex: int | None = None


def _rename_cascade(node: SpqrNode, via: int | None,
                    dying: int, keep: int) -> None:
    """Rename skeleton vertex ``dying`` to ``keep`` in ``node`` and in
    every node reachable through virtual edges whose pair contains
    ``dying`` (the nodes containing a vertex form a subtree), skipping
    the entry edge ``via``."""
    stack = [(node, via)]
    while stack:
        nd, came = stack.pop()
        g = nd.graph
        assert g.has_vertex(dying) and not g.has_vertex(keep)
        for f, slot in nd.twin.items():
            if f != came and dying in g.endpoints(f):
                stack.append(slot)
        g.rename_vertex(dying, keep)
        if nd.kind == "R":
            fl = nd.fvv.pop(dying)
            nd.fvv[keep] = fl
            nd.vvf[fl] = keep


def rename_vertex_in_block(tree: SpqrTree, node: SpqrNode,
                           dying: int, keep: int) -> None:
    """Rename a vertex throughout one block's tree, entering at any
    node whose skeleton contains it (used when a contraction elsewhere
    merges an articulation vertex this block shares)."""
    _rename_cascade(node, None, dying, keep)


def _rekey(nd: SpqrNode, old: int, new: int) -> None:
    """Rename skeleton edge ``old`` of ``nd`` to ``new``, keeping the R
    machinery's corner maps in step."""
    nd.graph.rename_edge(old, new)
    if nd.kind == "R":
        for s in (0, 1):
            od, ndt = dart(old, s), dart(new, s)
            c = nd.cmap.pop(od)
            nd.cmap[ndt] = c
            nd.rcmap[c] = ndt


def _splice_out(tree: SpqrTree, x: SpqrNode, m: SpqrNode) -> None:
    """Remove dissolved node ``x`` (whose only neighbor is ``m``) from
    the rooted tree, letting ``m`` take its place."""
    if x.parent is m:
        tree.set_parent(x, None)
    elif x.parent is None:
        tree.set_parent(m, None)
        tree._root = m
    else:
        p = x.parent
        tree.set_parent(x, None)
        tree.set_parent(m, p)


def _splice_link(tree: SpqrTree, x: SpqrNode,
                 m1: SpqrNode, m2: SpqrNode) -> None:
    """Remove dissolved node ``x`` (whose neighbors are ``m1`` and
    ``m2``, now linked directly) from the rooted tree."""
    if x.parent is None:
        tree.set_parent(m1, None)
        tree._root = m1
        tree.set_parent(m2, m1)
    elif x.parent is m1:
        tree.set_parent(x, None)
        tree.set_parent(m2, m1)
    else:
        assert x.parent is m2
        tree.set_parent(x, None)
        tree.set_parent(m1, m2)


def _dissolve_two_edge(tree: SpqrTree, x: SpqrNode) -> tuple[str, object]:
    """Case ladder for a node whose skeleton is down to two edges
    joining one vertex pair: 0 virtual edges ⇒ the whole block is those
    two real edges and the tree is gone; 1 ⇒ the node dissolves and the
    neighbor's twin becomes real; 2 ⇒ the node dissolves and its two
    neighbors are linked directly, merging them if both are S or both
    are P (two R neighbors stay apart)."""
    shared = tree.shared
    g = x.graph
    r1, r2 = sorted(g.edge_ids())
    vs = [v for v in (r1, r2) if v in x.twin]
    u, w = g.endpoints(r1)
    ends = (u, w) if u < w else (w, u)
    if not vs:
        shared.node_of_edge.pop(r1, None)
        shared.node_of_edge.pop(r2, None)
        tree.set_parent(x, None)
        return ("pair", (ends, (r1, r2)))
    if len(vs) == 1:
        v = vs[0]
        r = r2 if v == r1 else r1
        # the neighbor's virtual edge f becomes the real edge r
        m, f = x.unlink(v)
        _rekey(m, f, r)
        shared.node_of_edge[r] = m
        _splice_out(tree, x, m)
        if tree._root is x:
            tree._root = m
        return ("tree", tree)
    m1, f1 = x.unlink(r1)
    m2, f2 = x.unlink(r2)
    m1.link(f1, m2, f2)
    _splice_link(tree, x, m1, m2)
    if m1.kind == m2.kind and m1.kind in "SP":
        _merge_adjacent(tree, m1, f1, m2, f2)
    return ("tree", tree)


def _p_remove(tree: SpqrTree, x: SpqrNode, e: int) -> tuple[str, object]:
    """Remove edge ``e`` (real or virtual, already unlinked if virtual)
    from P node ``x`` and run the dissolution ladder if only two edges
    remain."""
    g = x.graph
    g.delete_edge(e)
    if g.n_edges >= 3:
        return ("tree", tree)
    return _dissolve_two_edge(tree, x)


def _s_contract(tree: SpqrTree, x: SpqrNode, e: int,
                keep: int, dying: int) -> tuple[str, object]:
    """Contract edge ``e`` (real, or already unlinked if virtual) of S
    node ``x`` (cycle shrinks by one vertex), cascading the vertex
    rename into neighbors that share the dying vertex, and run the
    dissolution ladder if only two edges remain."""
    g = x.graph
    targets = [slot for f, slot in x.twin.items()
               if dying in g.endpoints(f)]
    g.contract_edge(e, keep=keep)
    for m, f in targets:
        _rename_cascade(m, f, dying, keep)
    if g.n_edges >= 3:
        return ("tree", tree)
    return _dissolve_two_edge(tree, x)


def _r_remove(tree: SpqrTree, x: SpqrNode, e: int) -> tuple[str, object]:
    """Delete edge ``e`` (real or virtual, already unlinked if virtual)
    from R node ``x``, then split the skeleton along whatever
    separation pairs the detector reports."""
    g = x.graph
    d0, d1 = dart(e, 0), dart(e, 1)
    seeds_a = [g.rotation_prev(d0)]
    seeds_b = [g.rotation_prev(d1)]
    _r_delete_edge(x, e)
    _split_r_node(tree, x, seeds_a, seeds_b)
    return ("tree", tree)


def _r_contract(tree: SpqrTree, x: SpqrNode, e: int,
                keep: int, dying: int) -> tuple[str, object]:
    """Contract edge ``e`` (real, or already unlinked if virtual) of R
    node ``x``, cascade the vertex rename into neighbors sharing the
    dying vertex, then split the skeleton along whatever separation
    pairs the detector reports."""
    g = x.graph
    d0, d1 = dart(e, 0), dart(e, 1)
    seeds_a = [g.face_next(d0)]
    seeds_b = [g.face_next(d1)]
    targets = [slot for f, slot in x.twin.items()
               if dying in g.endpoints(f)]
    _r_contract_edge(x, e, keep)
    for m, f in targets:
        _rename_cascade(m, f, dying, keep)
    _split_r_node(tree, x, seeds_a, seeds_b)
    return ("tree", tree)


def _detach_fragment(tree: SpqrTree, x: SpqrNode,
                     m: SpqrNode) -> SpqrTree:
    """After popping the twin link between dying node ``x`` and its
    neighbor ``m``, hand the neighbor's subtree its own tree handle,
    rooted at ``m`` unless the fragment contains the old root."""
    if m.parent is x:
        frag = SpqrTree(m, tree.shared)
        tree.set_parent(m, None)
    else:
        # m is on the old root's side of x
        frag = SpqrTree(tree._root, tree.shared)
        tree.set_parent(x, None)
    return frag


def _break_up(tree: SpqrTree, x: SpqrNode, slots, recurse) -> list[Piece]:
    """Dissolve node ``x`` into one block per remaining skeleton edge,
    given in ``slots`` as ``(attach, edge id)``.  A real edge becomes a
    one-edge block; a virtual edge's subtree becomes a block of its own
    in which ``recurse(fragment tree, twin node, twin id)`` removes the
    twin."""
    shared = tree.shared
    jobs: list[tuple] = []
    for attach, f in slots:
        if f in x.twin:
            m, f2 = x.unlink(f)
            jobs.append((attach, _detach_fragment(tree, x, m), m, f2))
        else:
            shared.node_of_edge.pop(f, None)
            jobs.append((attach, None, None, f))
    tree.set_parent(x, None)
    pieces: list[Piece] = []
    for attach, frag, m, f in jobs:
        if frag is None:
            pieces.append(Piece(attach, None, (f,)))
            continue
        res = recurse(frag, m, f)
        if res[0] == "tree":
            pieces.append(Piece(attach, res[1]))
        else:
            _ends, ids = res[1]
            pieces.append(Piece(attach, None, ids))
    return pieces


def _s_remove(tree: SpqrTree, x: SpqrNode, e: int) -> list[Piece]:
    """Delete real edge ``e`` from S node ``x``: every other vertex of
    the cycle becomes an articulation point, so the block falls apart
    into one piece per remaining cycle edge, reported in path order
    from one endpoint of ``e`` to the other."""
    g = x.graph
    u, w = g.endpoints(e)
    # walk the cycle from u to w avoiding e
    order: list[tuple[int, int, int]] = []
    cur, prev_e = u, e
    while True:
        da, db = g.rotation(cur)
        nd_ = da if edge_of(da) != prev_e else db
        ne = edge_of(nd_)
        p, q = g.endpoints(ne)
        nxt = q if p == cur else p
        order.append((ne, cur, nxt))
        if nxt == w:
            break
        cur, prev_e = nxt, ne
    assert len(order) == g.n_edges - 1

    def remove_twin(frag, m, f):
        if m.kind == "P":
            return _p_remove(frag, m, f)
        assert m.kind == "R"
        return _r_remove(frag, m, f)

    return _break_up(tree, x, [((va, vb), ne) for ne, va, vb in order],
                     remove_twin)


def _p_star(tree: SpqrTree, x: SpqrNode, e: int,
            keep: int, dying: int) -> list[Piece]:
    """Contract real edge ``e`` of P node ``x``: the pole pair merges
    into one vertex, every parallel class becomes its own block hanging
    on it.  Other real edges of the bundle turn into self-loops (single
    edge blocks); each virtual edge's subtree becomes a block in which
    the twin is contracted recursively."""
    g = x.graph
    g.delete_edge(e)

    def contract_twin(frag, m, f):
        if m.kind == "S":
            return _s_contract(frag, m, f, keep, dying)
        assert m.kind == "R"
        return _r_contract(frag, m, f, keep, dying)

    slots = [((keep, keep), f) for f in sorted(g.edge_ids())]
    return _break_up(tree, x, slots, contract_twin)


def _finish(op: str, e: int, res: tuple[str, object],
            merged: int | None = None,
            retired: int | None = None) -> ChangeLog:
    if res[0] == "tree":
        return ChangeLog(op=op, edge=e, kind="intact", tree=res[1],
                         merged_vertex=merged, retired_vertex=retired)
    ends, ids = res[1]
    return ChangeLog(op=op, edge=e, kind="pair", pair_edges=ids,
                     pair_ends=ends, merged_vertex=merged,
                     retired_vertex=retired)


def _take_real(tree: SpqrTree, e: int) -> SpqrNode:
    """Unindex real edge ``e`` of this block; return its node.

    The edge belongs to this block when its node's parent chain ends
    at this tree's root; blocks of one origin share ``node_of_edge``.
    """
    x = tree.shared.node_of_edge.get(e)
    top = x
    while top is not None and top.parent is not None:
        top = top.parent
    if x is None or top is not tree._root:
        raise UnknownEdge(f"edge {e} is not a real edge of this block")
    del tree.shared.node_of_edge[e]
    return x


def delete_edge(tree: SpqrTree, e: int) -> ChangeLog:
    """Delete real edge ``e`` from the block maintained by ``tree``."""
    x = _take_real(tree, e)
    if x.kind == "P":
        return _finish("delete", e, _p_remove(tree, x, e))
    if x.kind == "R":
        return _finish("delete", e, _r_remove(tree, x, e))
    pieces = _s_remove(tree, x, e)
    return ChangeLog(op="delete", edge=e, kind="path", pieces=pieces)


def contract_edge(tree: SpqrTree, e: int) -> ChangeLog:
    """Contract real edge ``e`` of the block maintained by ``tree``;
    the smaller endpoint label survives."""
    x = _take_real(tree, e)
    u, w = x.graph.endpoints(e)
    assert u != w, "skeletons carry no self-loops"
    keep, dying = (u, w) if u < w else (w, u)
    if x.kind == "S":
        return _finish("contract", e, _s_contract(tree, x, e, keep, dying),
                       merged=keep, retired=dying)
    if x.kind == "R":
        return _finish("contract", e, _r_contract(tree, x, e, keep, dying),
                       merged=keep, retired=dying)
    pieces = _p_star(tree, x, e, keep, dying)
    return ChangeLog(op="contract", edge=e, kind="star", pieces=pieces,
                     merged_vertex=keep, retired_vertex=dying)
