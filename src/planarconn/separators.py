"""Face-preserving separator trees.

Builds a binary tree of induced embedded subgraphs where every internal
node carries a balanced, small, face-preserving separation, and keeps
the whole tree consistent under edge contractions and
embedding-respecting insertions in the root graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from planarconn.embed import EmbeddedMultigraph, EmbedError, dart, edge_of, rev


# a node of at most N0 vertices is a leaf; an internal node's open
# sides hold at most ALPHA * n vertices each, and its separator should
# hold at most C_SEP * sqrt(n); at most MAX_CANDIDATES fundamental
# cycles are tried per BFS root
N0 = 16
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

def _bfs_tree(g: EmbeddedMultigraph, root: int):
    """BFS tree: (depth, parent dart into each vertex, tree edge set)."""
    depth = {root: 0}
    par_dart: dict[int, int | None] = {root: None}
    tree_edges: set[int] = set()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for d in g.rotation(v):
            w = g.vertex_of_dart(rev(d))
            if w not in depth:
                depth[w] = depth[v] + 1
                par_dart[w] = d  # dart from v toward w
                tree_edges.add(edge_of(d))
                queue.append(w)
    return depth, par_dart, tree_edges


def _bfs_roots(g: EmbeddedMultigraph) -> list[int]:
    """A few BFS roots worth trying: the smallest label, an eccentric
    vertex found by double BFS, and the midpoint of the long path
    between them (an approximate center)."""
    r0 = min(g.vertices())
    depth, par_dart, _ = _bfs_tree(g, r0)
    far1 = max(depth, key=lambda v: (depth[v], v))
    depth2, par2, _ = _bfs_tree(g, far1)
    far2 = max(depth2, key=lambda v: (depth2[v], v))
    mid = far2
    for _ in range(depth2[far2] // 2):
        mid = g.vertex_of_dart(par2[mid])
    return list(dict.fromkeys([mid, r0, far1]))


def _lca_tables(g, depth, par_dart):
    """Binary-lifting ancestor tables over the BFS tree."""
    parent0 = {}
    for v, d in par_dart.items():
        parent0[v] = None if d is None else g.vertex_of_dart(d)
    tables = [parent0]
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


def _cotree_face_counts(g: EmbeddedMultigraph, tree_edges: set[int]):
    """The interdigitating dual spanning tree over the non-tree edges.

    Returns (far_faces, kids, top_face, face_of): the number of faces
    strictly on the far side of each non-tree edge, the dual-tree child
    lists, the face hanging below each non-tree edge, and the face of
    each dart.  Removing the dual of a non-tree edge splits the faces
    into exactly the two sides of its fundamental cycle.
    """
    dualg, face_of = g.dual()
    cotree: dict[int, list[tuple[int, int]]] = {}
    for f in dualg.vertices():
        cotree[f] = []
    for e in dualg.edge_ids():
        if e in tree_edges:
            continue
        f1, f2 = dualg.endpoints(e)
        cotree[f1].append((e, f2))
        cotree[f2].append((e, f1))
    root_face = next(iter(cotree))
    order = []
    par: dict[int, tuple[int, int] | None] = {root_face: None}
    kids: dict[int, list[int]] = {f: [] for f in cotree}
    queue = deque([root_face])
    while queue:
        f = queue.popleft()
        order.append(f)
        for e, f2 in cotree[f]:
            if f2 not in par:
                par[f2] = (e, f)
                kids[f].append(f2)
                queue.append(f2)
    size = {f: 1 for f in order}
    for f in reversed(order):
        if par[f] is not None:
            size[par[f][1]] += size[f]
    far_faces = {}
    top_face = {}
    for f in order:
        if par[f] is not None:
            far_faces[par[f][0]] = size[f]
            top_face[par[f][0]] = f
    return far_faces, kids, top_face, face_of


def _fundamental_cycle(g, par_dart, depth, lca, e):
    """Vertex and edge lists of the cycle closed by non-tree edge e."""
    u, w = g.endpoints(e)
    a = lca(u, w)
    left_v, left_e = [], []
    x = u
    while x != a:
        d = par_dart[x]
        left_v.append(x)
        left_e.append(edge_of(d))
        x = g.vertex_of_dart(d)
    right_v, right_e = [], []
    x = w
    while x != a:
        d = par_dart[x]
        right_v.append(x)
        right_e.append(edge_of(d))
        x = g.vertex_of_dart(d)
    verts = left_v + [a] + right_v[::-1]
    cedges = left_e + right_e[::-1] + [e]
    return verts, cedges


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

    def is_proper(self) -> bool:
        return bool(self.A - self.B) and bool(self.B - self.A)

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


def cycle_separations(h: EmbeddedMultigraph, gt: EmbeddedMultigraph,
                      added: dict[int, tuple], root: int):
    """Candidate face-preserving separations of a connected graph h,
    one per fundamental cycle of a BFS tree of h from ``root`` in its
    triangulation ``gt`` (``added`` as returned by :func:`triangulate`).

    Yields ``(cycle vertices, cycle edges, separation)`` for at most
    MAX_CANDIDATES cycles, best first: by the larger open side of the
    cycle, counted from the dual subtree below its closing edge, plus
    the vertices that face preservation adds.  Since the tree uses only
    edges of h, a cycle holds at most one chord of gt, its closing
    edge, and every vertex of the face that chord crosses joins both
    sides.
    """
    n = gt.n_vertices
    depth, par_dart, tree_edges = _bfs_tree(h, root)
    if len(depth) != n:
        raise EmbedError("cycle separator needs a connected graph")
    lca = _lca_tables(gt, depth, par_dart)
    far_faces, kids, top_face, face_of = _cotree_face_counts(gt, tree_edges)
    scored = []
    for e, f_in in far_faces.items():
        u, w = gt.endpoints(e)
        if u == w:
            continue
        c = depth[u] + depth[w] - 2 * depth[lca(u, w)] + 1
        v_in = (f_in - c + 2) // 2
        v_out = n - v_in - c
        if v_in < 0 or v_out < 0:
            continue
        ms = max(v_in, v_out)
        scored.append((ms + len(added.get(e, ())), ms, c, e))
    scored.sort()
    face_verts: dict[int, list] = {}
    for d, f in face_of.items():
        face_verts.setdefault(f, []).append(gt.vertex_of_dart(d))
    all_verts = set(h.vertices())
    for _, _, _, e in scored[:MAX_CANDIDATES]:
        cverts, cedges = _fundamental_cycle(gt, par_dart, depth, lca, e)
        a: set = set()
        stack = [top_face[e]]
        while stack:
            f = stack.pop()
            a.update(face_verts[f])
            stack.extend(kids[f])
        b = all_verts - a.difference(cverts)
        a.update(added.get(e, ()))
        b.update(added.get(e, ()))
        yield cverts, cedges, Separation(A=frozenset(a), B=frozenset(b))


# ----------------------------------------------------------------------
# the separator tree

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


class SeparatorTree:
    """Binary separator tree over a copy of an embedded graph, with
    contraction and insertion maintenance that keeps every node an
    induced embedded subgraph of its parent."""

    def __init__(self, g: EmbeddedMultigraph):
        # called as hook(kind, node, payload) just before each per-node
        # mutation; kinds: contract, rename, insert, delete
        self.hook = None
        self.root = self._build(g.copy(), 0)

    def _notify(self, kind: str, node, payload) -> None:
        if self.hook is not None:
            self.hook(kind, node, payload)

    # -- construction --------------------------------------------------

    def _split_sets(self, h: EmbeddedMultigraph):
        """A proper balanced face-preserving separation of h, or None."""
        n = h.n_vertices
        comps = h.components()
        if len(comps) > 1:
            return self._split_disconnected(h, comps)
        gt, added = triangulate(h)
        s_cap = C_SEP * (n ** 0.5)
        good_child = 0.62 * n
        best = None
        for root in _bfs_roots(h):
            for _cverts, _cedges, sep in cycle_separations(h, gt, added,
                                                           root):
                if not sep.is_proper():
                    continue
                if max(len(sep.A), len(sep.B)) >= n:
                    continue  # a child this big makes no progress
                open_max = max(len(sep.A - sep.B), len(sep.B - sep.A))
                key = (open_max > ALPHA * n,
                       len(sep.separator) > s_cap,
                       max(len(sep.A), len(sep.B)),
                       len(sep.separator))
                if best is None or key < best[0]:
                    best = (key, sep)
                if not key[0] and not key[1] and key[2] <= good_child:
                    return best[1]
        if best is None or best[0][0]:
            return None
        return best[1]

    def _split_disconnected(self, h, comps):
        comps = sorted(comps, key=len, reverse=True)
        n = h.n_vertices
        if len(comps[0]) > ALPHA * n:
            # split the big component and park the rest on the side
            # that stays smaller
            big = h.induced(comps[0])
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
        if h.n_vertices <= N0:
            return node
        sep = self._split_sets(h)
        if sep is None:
            return node
        node.s_build = len(sep.separator)
        node.children = [self._build(h.induced(set(sep.A)), depth + 1),
                         self._build(h.induced(set(sep.B)), depth + 1)]
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
        """Contract edge e of the root graph everywhere it appears.

        Nodes holding one endpoint have the merged vertex relabeled and
        gain the induced edges the merge brings in.  Returns the change
        list [(kind, node, ...)] in root-first order.
        """
        u, w = self.root.graph.endpoints(e)
        x = min(u, w)
        events: list[tuple] = []
        self._notify("contract", self.root, (e, u, w, x))
        self.root.graph.contract_edge(e, report=False)
        events.append(("contract", self.root, e, x))
        for child in self.root.children:
            self._propagate_merge(child, self.root.graph, u, w, x, e, events)
        return events

    def _propagate_merge(self, node, parent_h, u, w, x, e, events):
        has_u = node.graph.has_vertex(u)
        has_w = node.graph.has_vertex(w)
        if not (has_u or has_w):
            return
        if has_u and has_w:
            self._notify("contract", node, (e, u, w, x))
            node.graph.contract_edge(e, report=False)
            events.append(("contract", node, e, x))
            for child in node.children:
                self._propagate_merge(child, node.graph, u, w, x, e, events)
            return
        old = u if has_u else w
        if old != x:
            self._notify("rename", node, (old, x))
            node.graph.rename_vertex(old, x)
            events.append(("rename", node, old, x))
        gained = []
        for d in parent_h.rotation(x):
            f = edge_of(d)
            other = parent_h.vertex_of_dart(rev(d))
            if not node.graph.has_edge(f) and node.graph.has_vertex(other):
                gained.append(f)
        for f in gained:
            if node.graph.has_edge(f):
                continue  # both darts of a gained loop show up once each
            self._notify("insert", node, (f,))
            self._aligned_insert(parent_h, node.graph, f)
            events.append(("insert", node, f))
            self._propagate_insertion(node, f, events)
        for child in node.children:
            self._propagate_merge(child, node.graph, u, w, x, e, events)

    def apply_insertion(self, u: int, w: int,
                        after_u: int | None, after_w: int | None,
                        eid: int | None = None) -> list[tuple]:
        """Insert an embedding-respecting edge into the root graph and
        duplicate it into every descendant holding both endpoints."""
        self._notify("insert", self.root, (eid,))
        eid = self.root.graph.insert_edge(u, w, after_u, after_w, eid=eid)
        events: list[tuple] = [("insert", self.root, eid)]
        self._propagate_insertion(self.root, eid, events)
        return events

    def _propagate_insertion(self, node, eid, events):
        u, w = node.graph.endpoints(eid)
        for child in node.children:
            if (child.graph.has_vertex(u) and child.graph.has_vertex(w)
                    and not child.graph.has_edge(eid)):
                self._notify("insert", child, (eid,))
                self._aligned_insert(node.graph, child.graph, eid)
                events.append(("insert", child, eid))
                self._propagate_insertion(child, eid, events)

    def apply_deletion(self, e: int) -> list[tuple]:
        """Delete edge e from every node holding it, root first.

        Intended for edges whose removal merges a face into a neighbor
        sharing the same vertex set (the losing edge of a doubled pair),
        which keeps every separation face-preserving.
        """
        events: list[tuple] = []

        def rec(node):
            if not node.graph.has_edge(e):
                return
            self._notify("delete", node, (e,))
            node.graph.delete_edge(e, report=False)
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
