"""Face-preserving separator trees.

Builds a binary tree of induced embedded subgraphs where every internal
node carries a balanced, small, face-preserving separation, and keeps
the whole tree consistent under embedding-respecting insertions, edge
deletions and vertex merges.  A vertex merge is one root-first walk,
which first deletes the edges at the retiring vertex that the caller
names; a contraction is the merge of the edge's ends that deletes the
edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from planarconn.embed import (
    EmbeddedMultigraph,
    EmbedError,
    SelfLoopContraction,
    dart,
    edge_of,
    rev,
)


# a node whose graph has at most LEAF_PATHS length-2 paths, the sum of
# C(deg v, 2) over its vertices v (:func:`length2_paths`), is a leaf; an
# internal node's open sides hold at most ALPHA * n vertices each, and
# its separator should hold at most C_SEP * sqrt(n); at most
# MAX_CANDIDATES fundamental cycles are tried per BFS root
#
# What must stay bounded is the table a leaf stores, not its vertex
# count.  A leaf tracks every length-2 path between its vertices of one
# colour class, of all of them once the detector widens, so a vertex of
# high degree makes its table quadratic; the path count is the all-pairs
# table, exactly what a widened leaf holds and an upper bound on a
# one-class table.  The paper's O(log^2 n) amortized bound needs only
# leaves of constant size: every vertex of degree 2 or more adds at
# least one path, so a leaf holds at most LEAF_PATHS of them, and in the
# vertex-face graph of a biconnected skeleton every vertex has degree 2
# or more.  The detector is exact over any separator tree, so the budget
# moves cost alone.  It replaced a bound of 128 vertices, which cut the
# vertex-face graph of every dense benchmark R node above 128 vertices
# into 3-7 nodes although those graphs hold only 6.4-6.6 paths per
# vertex.  At 4096 every R node of the benchmark is one leaf, the largest
# (dense_n400_s2) of 385 vertices and 2,545 paths: dense build_s went
# 0.137 -> 0.067 s and update_amortized_us 269 -> 225 against 128
# vertices (BENCH_leaf_paths.json), where 2048 read about 0.090 s and
# 238 us.  wheel(k) keeps the trees it had at 128 vertices at 4096 and
# 8192 (5,836 stored paths at k = 200); hub(200) stores 1,264 paths
# (1,329 before).  build_spqr(random_planar(6400, 1, 8)) took 1.51 s at
# 128 vertices and 0.98 / 0.83 / 0.68 s at 2048 / 4096 / 8192.  8192
# builds the benchmark's trees as 4096 does and doubles the largest
# table a leaf may hold.
LEAF_PATHS = 4096
ALPHA = 0.75
C_SEP = 8.0
MAX_CANDIDATES = 64


# ----------------------------------------------------------------------
# triangulation

def triangulate(g: EmbeddedMultigraph) -> tuple[EmbeddedMultigraph, dict[int, tuple]]:
    """A triangulation of g together with the added chords.

    Every face of degree above three is fanned with chords.  Returns
    (triangulation, added) where added maps each new edge id to the
    tuple of vertices of the original face it subdivides.  Vertex labels
    and original edge ids are unchanged.
    """
    gt = g.copy()
    added: dict[int, tuple] = {}
    reps = [cyc[0] for cyc in g.faces()]
    for start in reps:
        face_verts = tuple(dict.fromkeys(
            g.vertex_of_dart(d) for d in g.trace_face(start)))
        d = start
        while gt.face_degree_at_most(d, 3) is None:
            base = d
            while True:
                d2 = gt.face_next(gt.face_next(base))
                if gt.vertex_of_dart(base) != gt.vertex_of_dart(d2):
                    break
                base = gt.face_next(base)
                if base == d:
                    raise EmbedError("face cannot be triangulated "
                                     "without self-loops")
            u = gt.vertex_of_dart(base)
            w = gt.vertex_of_dart(d2)
            eid = gt.insert_edge(u, w,
                                 after_u=gt.rotation_prev(base),
                                 after_w=gt.rotation_prev(d2))
            added[eid] = face_verts
            # the chord dart at u stays on the remaining face
            d = dart(eid, 0)
    return gt, added


# ----------------------------------------------------------------------
# fundamental-cycle separators

class _Snapshot:
    """What one split reads of a connected graph h, taken once.

    ``gt`` and ``added`` are h's triangulation and its chords (see
    :func:`triangulate`).  The snapshot holds the vertex of every dart
    and the endpoints of every edge of ``gt``, the vertex list of every
    face of ``gt`` from one walk of its faces, a face at every vertex,
    and the BFS trees of h from the roots worth trying, so the per-root
    scans never query ``gt`` itself.
    """

    def __init__(self, h: EmbeddedMultigraph):
        self.h = h
        self.n = h.n_vertices
        self.rotation = {v: h.rotation(v) for v in h.vertices()}
        gt, self.added = triangulate(h)
        self.vert = vert = {}
        for v in gt.vertices():
            for d in gt.rotation(v):
                vert[d] = v
        self.ends = {e: (vert[dart(e, 0)], vert[dart(e, 1)])
                     for e in gt.edge_ids()}
        faces = gt.faces()
        self.face_verts = [[vert[d] for d in cyc] for cyc in faces]
        face_of = {d: f for f, cyc in enumerate(faces) for d in cyc}
        self.dual_ends = [(e, face_of[dart(e, 0)], face_of[dart(e, 1)])
                          for e in gt.edge_ids()]
        self.any_face = {v: face_of[gt.any_dart(v)] for v in gt.vertices()}
        self._trees: dict[int, tuple] = {}
        self.roots = self._bfs_roots()

    def tree(self, root: int):
        """BFS tree of h: (depth, parent dart into each vertex, order)."""
        if root not in self._trees:
            rotation, vert = self.rotation, self.vert
            depth = {root: 0}
            par_dart: dict[int, int | None] = {root: None}
            order = [root]
            for v in order:
                dw = depth[v] + 1
                for d in rotation[v]:
                    w = vert[rev(d)]
                    if w not in depth:
                        depth[w] = dw
                        par_dart[w] = d  # dart from v toward w
                        order.append(w)
            self._trees[root] = (depth, par_dart, order)
        return self._trees[root]

    def _bfs_roots(self) -> list[int]:
        """A few BFS roots worth trying: the smallest label, an eccentric
        vertex found by double BFS, and the midpoint of the long path
        between them (an approximate center)."""
        r0 = min(self.rotation)
        depth = self.tree(r0)[0]
        far1 = max(depth, key=lambda v: (depth[v], v))
        depth2, par2, _ = self.tree(far1)
        far2 = max(depth2, key=lambda v: (depth2[v], v))
        mid = far2
        for _ in range(depth2[far2] // 2):
            mid = self.vert[par2[mid]]
        return list(dict.fromkeys([mid, r0, far1]))


def _lca_tables(depth, parent):
    """Binary-lifting ancestor tables over the BFS tree."""
    tables = [parent]
    maxd = max(depth.values(), default=0)
    k = 1
    while (1 << k) <= maxd:
        prev = tables[-1]
        tables.append({v: (None if prev[v] is None else prev[prev[v]])
                       for v in prev})
        k += 1

    def lca(u, w):
        du, dw = depth[u], depth[w]
        if du < dw:
            u, w = w, u
            du, dw = dw, du
        diff = du - dw
        k = 0
        while diff:
            if diff & 1:
                u = tables[k][u]
            diff >>= 1
            k += 1
        if u == w:
            return u
        for k in range(len(tables) - 1, -1, -1):
            if tables[k][u] != tables[k][w]:
                u = tables[k][u]
                w = tables[k][w]
        return tables[0][u]

    return lca


def _preorder(order, parent, size):
    """Preorder numbers of a tree given in BFS order, so that the
    subtree of x holds the numbers [pre[x], pre[x] + size[x])."""
    pre = {order[0]: 0}
    nxt = {order[0]: 1}
    for x in order[1:]:
        p = parent[x]
        pre[x] = nxt[p]
        nxt[p] += size[x]
        nxt[x] = pre[x] + 1
    return pre


class _RootScan:
    """One BFS tree of a snapshot and its cotree, the interdigitating
    dual spanning tree over the non-tree edges of ``gt``.

    Removing the dual of a non-tree edge e splits the faces into the
    two sides of e's fundamental cycle; ``top_face[e]`` is the root of
    the side hanging below e, which holds ``n_faces[t]`` faces of
    total degree ``deg_sum[t]`` for t = ``top_face[e]``.  Both trees
    carry preorder numbers, so a vertex's BFS ancestors and a face's
    side are O(1) tests.
    """

    def __init__(self, snap: _Snapshot, root: int):
        self.snap = snap
        depth, par_dart, order = snap.tree(root)
        if len(order) != snap.n:
            raise EmbedError("cycle separator needs a connected graph")
        vert = snap.vert
        self.depth, self.par_dart = depth, par_dart
        parent = {v: (None if d is None else vert[d])
                  for v, d in par_dart.items()}
        size = dict.fromkeys(order, 1)
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
        self.size, self.pre = size, _preorder(order, parent, size)
        self.lca = _lca_tables(depth, parent)

        tree_edges = {edge_of(d) for d in par_dart.values() if d is not None}
        nf = len(snap.face_verts)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(nf)]
        for e, f1, f2 in snap.dual_ends:
            if e not in tree_edges:
                adj[f1].append((e, f2))
                adj[f2].append((e, f1))
        fparent: dict[int, int] = {0: None}
        self.top_face = top_face = {}
        self.kids = kids = [[] for _ in range(nf)]
        forder = [0]
        for f in forder:
            for e, f2 in adj[f]:
                if f2 not in fparent:
                    fparent[f2] = f
                    top_face[e] = f2
                    kids[f].append(f2)
                    forder.append(f2)
        n_faces = [1] * nf
        deg_sum = [len(vs) for vs in snap.face_verts]
        for f in reversed(forder[1:]):
            p = fparent[f]
            n_faces[p] += n_faces[f]
            deg_sum[p] += deg_sum[f]
        self.n_faces, self.deg_sum = n_faces, deg_sum
        self.face_pre = _preorder(forder, fparent, n_faces)

    def materialise(self, e: int):
        """The cycle closed by non-tree edge e and its separation:
        (cycle vertices, cycle edges, Separation), in O(n)."""
        snap = self.snap
        vert, par_dart = snap.vert, self.par_dart
        u, w = snap.ends[e]
        a = self.lca(u, w)
        paths = []
        for x in (u, w):
            vs, es = [], []
            while x != a:
                d = par_dart[x]
                vs.append(x)
                es.append(edge_of(d))
                x = vert[d]
            paths.append((vs, es))
        (left_v, left_e), (right_v, right_e) = paths
        cverts = left_v + [a] + right_v[::-1]
        cedges = left_e + right_e[::-1] + [e]
        inside: set = set()
        stack = [self.top_face[e]]
        while stack:
            f = stack.pop()
            inside.update(snap.face_verts[f])
            stack.extend(self.kids[f])
        b = set(snap.h.vertices()) - inside.difference(cverts)
        chord = snap.added.get(e, ())
        inside.update(chord)
        b.update(chord)
        return cverts, cedges, Separation(A=frozenset(inside),
                                          B=frozenset(b))


# ----------------------------------------------------------------------
# face-preserving separations

@dataclass(frozen=True)
class Separation:
    """A pair of vertex sets covering a graph, with separator A ∩ B."""
    A: frozenset
    B: frozenset

    @property
    def separator(self) -> frozenset:
        return self.A & self.B

    def is_balanced(self, n: int, alpha: float) -> bool:
        """Both open sides hold at most alpha * n vertices.

        The separator itself is exempt: face preservation can force
        every vertex of a crossed face into A ∩ B, and those vertices
        enlarge both sides equally.
        """
        return max(len(self.A - self.B), len(self.B - self.A)) <= alpha * n

    def is_face_preserving(self, g: EmbeddedMultigraph) -> bool:
        for cyc in g.faces():
            vs = {g.vertex_of_dart(d) for d in cyc}
            if not (vs <= self.A or vs <= self.B):
                return False
        return True


class Candidate(NamedTuple):
    """The counted sizes of the candidate separation (A, B) closed by
    edge e: |A|, |B|, |A ∩ B|, |A − B| and |B − A|, with the scan whose
    ``materialise(e)`` builds it."""
    e: int
    size_a: int
    size_b: int
    size_s: int
    open_a: int
    open_b: int
    scan: _RootScan


def cycle_separations(snap: _Snapshot, root: int):
    """Candidate face-preserving separations of the snapshot's graph h,
    one per fundamental cycle of h's BFS tree from ``root`` in h's
    triangulation ``gt``, each counted in O(1) plus O(1) per vertex of
    the face its closing edge crosses.

    Yields a :class:`Candidate` for at most MAX_CANDIDATES cycles, best
    first: by the larger open side of the cycle, estimated from the
    number of faces below its closing edge as if all were triangles,
    plus the vertices that face preservation adds.

    The counts are exact.  For the cycle of length c closed by e, with
    f faces of total degree D on the side below e, Euler's formula on
    that closed disc (c + inner vertices, (D + c) / 2 edges, f + 1
    faces) gives ``inner = 1 - c + (D + c) / 2 - f`` vertices strictly
    inside, for any face degrees.  A is the cycle plus the inside, B
    the cycle plus the outside.  Since the tree uses only edges of h, a
    cycle holds at most one chord of gt, its closing edge, and every
    vertex of the face that chord crosses joins both sides.  Such a
    vertex x is on the cycle if it is a BFS ancestor of u or w no
    higher than their LCA (preorder intervals), and otherwise on the
    side of any face at x (the cotree's preorder intervals).
    """
    scan = _RootScan(snap, root)
    n, added, ends = snap.n, snap.added, snap.ends
    depth, lca, n_faces = scan.depth, scan.lca, scan.n_faces
    scored = []
    for e, t in scan.top_face.items():
        u, w = ends[e]
        if u == w:
            continue
        a = lca(u, w)
        c = depth[u] + depth[w] - 2 * depth[a] + 1
        v_in = (n_faces[t] - c + 2) // 2
        v_out = n - v_in - c
        if v_in < 0 or v_out < 0:
            continue
        ms = max(v_in, v_out)
        scored.append((ms + len(added.get(e, ())), ms, c, e, a))
    scored.sort()
    pre, size = scan.pre, scan.size
    face_pre, any_face = scan.face_pre, snap.any_face
    for _, _, c, e, a in scored[:MAX_CANDIDATES]:
        t = scan.top_face[e]
        inner = 1 - c + (scan.deg_sum[t] + c) // 2 - n_faces[t]
        f_in = f_out = 0
        if e in added:
            u, w = ends[e]
            da, pu, pw = depth[a], pre[u], pre[w]
            lo = face_pre[t]
            hi = lo + n_faces[t]
            for x in added[e]:
                if depth[x] >= da:
                    px = pre[x]
                    sx = px + size[x]
                    if px <= pu < sx or px <= pw < sx:
                        continue  # on the cycle
                if lo <= face_pre[any_face[x]] < hi:
                    f_in += 1
                else:
                    f_out += 1
        yield Candidate(e, c + inner + f_out, n - inner + f_in,
                        c + f_in + f_out, inner - f_in,
                        n - c - inner - f_out, scan)


# ----------------------------------------------------------------------
# the separator tree

def length2_paths(h: EmbeddedMultigraph) -> int:
    """Σ C(deg v, 2) over the vertices of h: the length-2 paths, one
    per pair of edges at each middle, that a leaf tracking all its
    vertices stores."""
    total = 0
    for v in h.vertices():
        k = h.degree(v)
        total += k * (k - 1) // 2
    return total


def _induce(h: EmbeddedMultigraph, vs) -> EmbeddedMultigraph:
    """The subgraph of h induced by vs, its vertices in h's order.

    A child's vertex order fixes its dual's face numbering and with it
    the splits below, so it follows the graph, not the iteration order
    of a hashed set.
    """
    return h.induced(dict.fromkeys(v for v in h.vertices() if v in vs))


@dataclass
class SepNode:
    graph: EmbeddedMultigraph
    depth: int
    n_build: int
    children: list = field(default_factory=list)
    s_build: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def separator(self) -> set:
        if self.is_leaf:
            return set()
        y, z = self.children
        ys = set(y.graph.vertices())
        return {v for v in z.graph.vertices() if v in ys}

    def separation(self) -> Separation:
        y, z = self.children
        return Separation(A=frozenset(y.graph.vertices()),
                          B=frozenset(z.graph.vertices()))


def _first_held(h: EmbeddedMultigraph, step, d: int | None,
                v: int) -> int | None:
    """The first dart from ``d`` on, by ``step``, that ``h`` holds, if
    it is at ``v`` in ``h``; None otherwise or if ``d`` is None."""
    if d is None:
        return None
    while not h.has_dart(d):
        d = step(d)
    return d if h.vertex_of_dart(d) == v else None


def merge_survivor(h: EmbeddedMultigraph, u: int, w: int) -> int:
    """The one of u and w whose label survives their merge: the one
    with more edges in h, the smaller label on a tie."""
    du, dw = h.degree(u), h.degree(w)
    return u if du > dw else w if dw > du else min(u, w)


class SeparatorTree:
    """Binary separator tree over a copy of an embedded graph, with
    insertion, deletion, merge and contraction maintenance that keeps
    every node an induced embedded subgraph of its parent.  Every merge
    of two vertices, a contraction's included, is one walk
    (:meth:`apply_merge`), which also deletes the edges its caller
    names, a quad merge's two quad edges or a contracted edge."""

    def __init__(self, g: EmbeddedMultigraph):
        self.root = self._build(g.copy(), 0)

    # -- construction --------------------------------------------------

    def _split_sets(self, h: EmbeddedMultigraph):
        """A proper balanced face-preserving separation of h, or None.

        Tries the candidates of :func:`cycle_separations` for each BFS
        root in turn and keeps the one with the smallest key (open side
        over ALPHA * n, separator over C_SEP * sqrt(n), larger side,
        separator), stopping at the first that is balanced, small and
        leaves no side above 0.62 n.  The key reads only the counted
        sizes, which equal those of the built separation; only the
        returned candidate is built.
        """
        n = h.n_vertices
        comps = h.components()
        if len(comps) > 1:
            return self._split_disconnected(h, comps)
        snap = _Snapshot(h)
        s_cap = C_SEP * (n ** 0.5)
        good_child = 0.62 * n
        best = None
        for root in snap.roots:
            for cand in cycle_separations(snap, root):
                if not (cand.open_a and cand.open_b):
                    continue  # not proper
                big = max(cand.size_a, cand.size_b)
                if big >= n:
                    continue  # a child this big makes no progress
                key = (max(cand.open_a, cand.open_b) > ALPHA * n,
                       cand.size_s > s_cap, big, cand.size_s)
                if best is None or key < best[0]:
                    best = (key, cand)
                if not key[0] and not key[1] and key[2] <= good_child:
                    return cand.scan.materialise(cand.e)[2]
        if best is None or best[0][0]:
            return None
        cand = best[1]
        return cand.scan.materialise(cand.e)[2]

    def _split_disconnected(self, h, comps):
        comps = sorted(comps, key=len, reverse=True)
        n = h.n_vertices
        if len(comps[0]) > ALPHA * n:
            # split the big component and park the rest on the side
            # that stays smaller
            big = _induce(h, comps[0])
            sub = self._split_sets(big)
            if sub is None:
                return None
            rest = set().union(*comps[1:])
            if len(sub.A) <= len(sub.B):
                return Separation(A=frozenset(sub.A | rest), B=sub.B)
            return Separation(A=sub.A, B=frozenset(sub.B | rest))
        a: set = set()
        b: set = set()
        for comp in comps:
            (a if len(a) <= len(b) else b).update(comp)
        return Separation(A=frozenset(a), B=frozenset(b))

    def _build(self, h: EmbeddedMultigraph, depth: int) -> SepNode:
        node = SepNode(graph=h, depth=depth, n_build=h.n_vertices)
        if length2_paths(h) <= LEAF_PATHS:
            return node
        sep = self._split_sets(h)
        if sep is None:
            return node
        node.s_build = len(sep.separator)
        node.children = [self._build(_induce(h, sep.A), depth + 1),
                         self._build(_induce(h, sep.B), depth + 1)]
        return node

    # -- traversal -----------------------------------------------------

    def nodes(self):
        stack = [self.root]
        while stack:
            x = stack.pop()
            yield x
            stack.extend(x.children)

    @property
    def height(self) -> int:
        return max(x.depth for x in self.nodes())

    def dump(self) -> str:
        lines = []

        def rec(x):
            lines.append("  " * x.depth +
                         f"node: |V|={x.graph.n_vertices} "
                         f"|S|={len(x.separator())} depth={x.depth}")
            for c in x.children:
                rec(c)

        rec(self.root)
        return "\n".join(lines)

    # -- maintenance ---------------------------------------------------

    def apply_contraction(self, e: int) -> list[tuple]:
        """Contract edge e of the root graph everywhere it appears: one
        :meth:`apply_merge` of its ends where it was, which deletes e
        first at every node that holds it.  The merged vertex keeps the
        label of the endpoint with more edges in the root graph, or the
        smaller label on a tie (:func:`merge_survivor`), so the work at
        the retired endpoint is charged to the smaller side.  An unknown
        edge or a self-loop raises before anything changes.  No update
        calls it: it stays for the tests and for the tracer in
        ``perfbench/tracing.py``."""
        h = self.root.graph
        u, w = h.endpoints(e)
        if u == w:
            raise SelfLoopContraction(f"edge {e} is a self-loop")
        x = merge_survivor(h, u, w)
        return self.apply_merge(x, u + w - x, *h.contraction_corners(e, x),
                                gone=(e,))

    def _gain_edges(self, node, parent_h, x, events):
        """Insert into ``node`` every edge at x in its parent's graph
        ``parent_h`` whose other end the node holds but which the node
        lacks, at the parent's rotation positions, and propagate each
        into the children that hold both of its ends."""
        h = node.graph
        gained = []
        for d in parent_h.rotation(x):
            f = edge_of(d)
            if not h.has_edge(f) and h.has_vertex(
                    parent_h.vertex_of_dart(rev(d))):
                gained.append(f)
        for f in gained:
            if h.has_edge(f):
                continue  # both darts of a gained loop show up once each
            self._aligned_insert(parent_h, h, f)
            events.append(("insert", node, f))
            self._propagate_insertion(node, f, events)

    def apply_merge(self, x: int, r: int, after_x: int | None,
                    first_r: int | None,
                    gone: tuple[int, ...] = ()) -> list[tuple]:
        """Merge vertex r of the root graph into x in every node that
        holds either, in one root-first walk: the tree-wide
        :meth:`EmbeddedMultigraph.merge_vertex`.  Each node first deletes
        the edges of ``gone`` that it holds (``("delete", node, f)``),
        all of them at r, such as a merge's quad edges or a contracted
        edge.  Then r's rotation, read clockwise from dart ``first_r``,
        goes into x's right after dart ``after_x``, darts of the root
        graph once ``gone`` is deleted; either is None for an end with
        no darts.

        A node that holds both splices its own darts the same way, in
        the root's order restricted to them (``("merge", node, x, r,
        fr)``, with ``fr`` the ids of r's edges there before the merge,
        empty where r has none).  A node with r alone renames it to x
        (``("rename", node, r, x)``), and one with r or x alone gains
        x's edges from its parent (``("insert", node, f)``).  Returns
        the change list in that root-first order.
        """
        events: list[tuple] = []
        self._merge(self.root, None, x, r, after_x, first_r, gone, events)
        return events

    def _merge(self, node, parent_h, x, r, after_x, first_r, gone, events):
        """The walk of :meth:`apply_merge` at ``node``.  ``after_x`` and
        ``first_r`` are darts of ``parent_h``, which has merged already,
        or of the root graph at the root."""
        h = node.graph
        for f in gone:
            if h.has_edge(f):
                h.delete_edge(f)
                events.append(("delete", node, f))
        if not h.has_vertex(r):
            # what x gains here reaches every descendant holding both
            self._gain_edges(node, parent_h, x, events)
            return
        # only then can a child with x alone gain r's edges
        spliced = h.has_vertex(x) and h.degree(r) > 0
        if h.has_vertex(x):
            fr = [edge_of(d) for d in h.rotation(r)]
            if not spliced:
                after_x = first_r = None
            elif parent_h is not None:
                # the parent's rotation of x runs back from after_x over
                # x's darts and then r's, and on from first_r over r's:
                # the first of each that h holds places h's splice
                after_x = _first_held(h, parent_h.rotation_prev, after_x, x)
                first_r = _first_held(h, parent_h.rotation_next, first_r, r)
            h.merge_vertex(x, r, after_x, first_r)
            events.append(("merge", node, x, r, fr))
        else:
            h.rename_vertex(r, x)
            events.append(("rename", node, r, x))
            self._gain_edges(node, parent_h, x, events)
        for child in node.children:
            if child.graph.has_vertex(r) or (
                    spliced and child.graph.has_vertex(x)):
                self._merge(child, h, x, r, after_x, first_r, gone,
                            events)

    def apply_insertion(self, u: int, w: int,
                        after_u: int | None,
                        after_w: int | None) -> list[tuple]:
        """Insert an edge into the root graph across the face that the
        corners after ``after_u`` and ``after_w`` share, and duplicate
        it into every descendant holding both endpoints.  Corners on
        different faces raise NotOnFace before anything changes.  No
        update calls it: it stays for the tests and for the tracer in
        ``perfbench/tracing.py``."""
        eid = self.root.graph.insert_edge(u, w, after_u, after_w,
                                          require_same_face=True)
        events: list[tuple] = [("insert", self.root, eid)]
        self._propagate_insertion(self.root, eid, events)
        return events

    def _propagate_insertion(self, node, eid, events):
        u, w = node.graph.endpoints(eid)
        for child in node.children:
            if (child.graph.has_vertex(u) and child.graph.has_vertex(w)
                    and not child.graph.has_edge(eid)):
                self._aligned_insert(node.graph, child.graph, eid)
                events.append(("insert", child, eid))
                self._propagate_insertion(child, eid, events)

    def apply_deletion(self, e: int) -> list[tuple]:
        """Delete edge e from every node holding it, root first.

        Intended for edges whose removal merges a face into a neighbor
        sharing the same vertex set, which keeps every separation
        face-preserving: the losing edge of a doubled pair that
        quasi-simplification removes.  The edges that a merge deletes,
        a quad merge's two quad edges or a contracted edge, go in that
        merge's own walk (:meth:`apply_merge`).
        """
        events: list[tuple] = []

        def rec(node):
            if not node.graph.has_edge(e):
                return
            node.graph.delete_edge(e)
            events.append(("delete", node, e))
            for child in node.children:
                rec(child)

        rec(self.root)
        return events

    @staticmethod
    def _aligned_insert(parent_h, child_h, eid):
        """Insert an edge of the parent into the child at the matching
        rotation positions (nearest preceding dart present in the
        child)."""
        d0, d1 = dart(eid, 0), dart(eid, 1)
        u = parent_h.vertex_of_dart(d0)
        w = parent_h.vertex_of_dart(d1)

        def anchor(d, also=None):
            cur = parent_h.rotation_prev(d)
            while (cur != d and cur != also
                    and not child_h.has_dart(cur)):
                cur = parent_h.rotation_prev(cur)
            return cur if (cur == also or child_h.has_dart(cur)) else None

        after_u = anchor(d0)
        # for a loop, d1's nearest predecessor may be d0 itself, which
        # is only attached during this same insertion; insert_edge
        # places d1 right after d0 when after_w is None
        after_w = anchor(d1, also=d0 if u == w else None)
        if u == w and after_w == d0:
            after_w = None
        child_h.insert_edge(u, w, after_u=after_u, after_w=after_w,
                            eid=eid)

    # -- validation ----------------------------------------------------

    def check(self) -> None:
        """Assert the separator-tree invariants on the live tree."""
        for x in self.nodes():
            x.graph.check()
            assert x.graph.n_vertices <= x.n_build
            if x.is_leaf:
                continue
            sep = x.separation()
            assert sep.A | sep.B == set(x.graph.vertices())
            # properness holds at build; contractions may later drain
            # one side's private vertices into the separator
            assert sep.A and sep.B
            assert sep.is_balanced(x.n_build, ALPHA)
            assert sep.is_face_preserving(x.graph)
            assert len(sep.separator) <= x.s_build
            for child in x.children:
                assert child.n_build < x.n_build
                assert _is_induced_subgraph(child.graph, x.graph)


def _is_induced_subgraph(h: EmbeddedMultigraph, g: EmbeddedMultigraph) -> bool:
    """h equals the subgraph of g induced by V(h), including the
    rotation order."""
    vs = set(h.vertices())
    for e in h.edge_ids():
        if not g.has_edge(e) or set(g.endpoints(e)) - vs:
            return False
    for e in g.edge_ids():
        u, w = g.endpoints(e)
        if u in vs and w in vs and not h.has_edge(e):
            return False
    for v in vs:
        filtered = [d for d in g.rotation(v) if h.has_edge(edge_of(d))]
        rot = h.rotation(v)
        if not filtered and not rot:
            continue
        if sorted(filtered) != sorted(rot):
            return False
        i = filtered.index(rot[0])
        if filtered[i:] + filtered[:i] != rot:
            return False
    return True
