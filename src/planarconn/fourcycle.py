"""Exact maintenance of the edges on separating 4-cycles of a plane
multigraph under edge insertions, contractions, and merges of two
corners across a face.

A 4-cycle of a plane multigraph is *separating* when neither of its two
sides is a face.  The :class:`Detector` keeps, for every node of a
face-preserving separator tree, a set ``K`` of tracked vertices and the
complete table of length-2 paths between pairs of ``K``.  Two such
paths with distinct middle vertices form a 4-cycle, and a constant-time
face walk decides whether it is separating.

Any 4-cycle is either confined to one side of a node's separation, in
which case a descendant tracks it, or it crosses with its two
separator vertices opposite on the cycle, in which case the node's own
pair table sees it, with ``K`` the node's separator.  A leaf closes
the recursion.  It needs one diagonal of every 4-cycle inside it in
``K``.  In general that takes all its vertices, and its table holds
every length-2 path of its graph, one per pair of edges at each middle
vertex, so a leaf around a vertex of degree d stores about d^2 / 2
paths.  That is why a node is a leaf when its graph has at most
``separators.LEAF_PATHS`` such paths (or no balanced face-preserving
separation), whatever its number of vertices: the budget bounds the
table itself.

The input SPQR-trees give, the vertex-face graph of a skeleton, is
bipartite: skeleton vertices on one side, faces on the other.  A plane
graph is bipartite exactly when every face walk has even length, and
then a 4-cycle alternates the two colour classes, so each of its two
diagonals lies in one class.  While the graph is bipartite, a leaf's
``K`` is therefore its vertices in one class ``T``, the class whose
pairs have fewer length-2 paths (those with a middle in the other
class): usually the skeleton vertices, whose paths run through faces
of small degree, while the paths through a hub of high degree are
never stored.  Every merge an update makes joins two corners of one
class and keeps one of their labels, so the labels of ``T`` stay one
class.  A mutation that would join the two classes (a contraction, an
insertion inside one class, a merge of corners of different classes;
only tests and the tracer make them) first *widens* the detector for
good: every leaf's ``K`` becomes all its vertices and its table is
scanned again.  The op log needs nothing then, since every cycle that
turned separating was logged through its tracked diagonal, which the
wider table still holds.

There are three mutations.  An insertion splits a face, and a merge
joins two corners of one face, retiring one vertex into another where
the face was.  The vertex that keeps its label is the one with more
edges, and only the paths with a leg at the other, whose label retires,
are re-seated; the others keep their pair, legs and middle.  A merge is
one root-first walk of the separator tree (``SeparatorTree.apply_merge``)
that first deletes, at each node, the edges at the retiring vertex that
the caller names, and a node that holds both vertices reports one
``merge`` event with the retiring vertex's edges there, none where it
has no edge left.  A contraction is the merge of the edge's two ends
that deletes the edge (``SeparatorTree.apply_contraction``).  Across a
quad of four distinct corners, the face of nearly every R-node surgery,
the merge deletes the retiring corner's two quad edges, which would
each end up parallel to one of the survivor's, so the survivor's stay.
Across any other face, such as the quad of a bridge that an R
split's cut contracts, whose two sides are one face (a pendant edge's
quad among them), and after a contraction, quasi-simplicity is
restored once the vertices have merged: of each pair of parallel edges
left, the larger id survives.  No mutation but an insertion adds an
edge to the root graph.  Every R-node surgery of ``spqr`` is one merge;
insertions and contractions serve the tests and the tracer in
``perfbench/tracing.py``.

Mutations walk no 4-cycle: they keep the tables and write one op log of
paths, each entry a node, the legs of one path in its table and the pair
the path was written under.  Construction logs every path of each pair
with two or more paths, any of which may close a separating 4-cycle.  A
mutation logs every path it adds to a table or moves to another pair
and, in each node an inserted edge enters (a contraction or a merge
inserts the survivor's edges into a node that held only one endpoint),
one path between the edge's ends around the face it splits when that
face had degree 4: wherever the face's boundary separates, some node
below tracks both ends.  A 4-cycle that turns separating either gains a
path or is such a face.  Each edge of a 4-cycle is a leg of one path on
each diagonal, so a cycle that gains a path gains one on its tracked
diagonal too.  Discovery happens at the single query,
:meth:`Detector.separating_now`.  A logged path still in the table of
the pair it was written under has that pair now; the pair of one that
left it is read off the node graph as it is now, which holds every
rename and move since.  A path that no longer exists names nothing, and
a pair the node does not track has no table.  It walks each pair's path
table once and lists the 4-cycles that are separating now.  The walk is
exact for every pair, so a logged path that closes no separating cycle
costs one walk and never a wrong answer.  A caller that resets the log
without asking walks nothing; the skeleton of an R node is triconnected
when its detector is built, so ``spqr`` resets without asking.

Every mutation is charged against an exact integer potential.  With
``debug`` enabled (off by default) each mutation takes the potential of
every node before it, recomputes after it that of each node its
separator-tree events name, and asserts that the candidate paths
examined there never exceed their total potential drop.
"""

from __future__ import annotations

from .embed import (
    EmbeddedMultigraph,
    EmbedError,
    NotOnFace,
    SelfLoopContraction,
    UnknownEdge,
    dart,
    edge_of,
    quasi_induced_degree,
    rev,
)
from .separators import SeparatorTree, merge_survivor

MAX_FACE_DEGREE = 64


class FaceDegreeExceeded(EmbedError):
    """The input graph has a face of degree above MAX_FACE_DEGREE."""


def _pairkey(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _legkey(e1: int, e2: int) -> tuple[int, int]:
    return (e1, e2) if e1 < e2 else (e2, e1)


def _derive(h: EmbeddedMultigraph, e1: int, e2: int):
    """(pair, middle) of the length-2 path with legs e1, e2 in h, or
    None when the two edges no longer form one."""
    try:
        a1, b1 = h.endpoints(e1)
        a2, b2 = h.endpoints(e2)
    except UnknownEdge:
        return None
    if a1 == b1 or a2 == b2:
        return None
    for m in (a1, b1):
        if m in (a2, b2):
            z1 = b1 if m == a1 else a1
            z2 = b2 if m == a2 else a2
            if z1 != z2:
                return _pairkey(z1, z2), m
    return None


def _opposite_on_quad(h: EmbeddedMultigraph, after_u: int,
                      after_w: int) -> bool:
    """Whether the corner after dart ``after_u`` and the one after
    ``after_w`` are opposite corners of a face of degree 4 whose four
    corners are distinct vertices, by one walk of four darts."""
    step, at = h.face_next, h.vertex_of_dart
    d0 = h.rotation_next(after_u)
    d1 = step(d0)
    d2 = step(d1)
    d3 = step(d2)
    return step(d3) == d0 and d2 == h.rotation_next(after_w) and len(
        {at(d0), at(d1), at(d2), at(d3)}) == 4


def cycle_is_separating(h: EmbeddedMultigraph,
                        a: int, m1: int, b: int, m2: int,
                        e1: int, e2: int, f2: int, f1: int) -> bool:
    """Whether the 4-cycle a -e1- m1 -e2- b -f2- m2 -f1- a bounds no
    face of h (both walks of its two sides fail to close a face).  The
    darts of one side leave a, m1, b and m2; the other side walks the
    same edges backwards, so its darts are their reverses.  Edge e owns
    darts 2e and 2e + 1, and ``d ^ 1`` reverses dart d (see ``embed``);
    the walk is spelt out because the query makes it for every cycle."""
    at, step = h.vertex_of_dart, h.face_next
    d1 = 2 * e1 if at(2 * e1) == a else 2 * e1 + 1
    d2 = 2 * e2 if at(2 * e2) == m1 else 2 * e2 + 1
    d3 = 2 * f2 if at(2 * f2) == b else 2 * f2 + 1
    d4 = 2 * f1 if at(2 * f1) == m2 else 2 * f1 + 1
    if step(d1) == d2 and step(d2) == d3 and step(d3) == d4 \
            and step(d4) == d1:
        return False
    return not (step(d4 ^ 1) == d3 ^ 1 and step(d3 ^ 1) == d2 ^ 1
                and step(d2 ^ 1) == d1 ^ 1 and step(d1 ^ 1) == d4 ^ 1)


def _colour_class(g: EmbeddedMultigraph) -> set[int]:
    """The colour class of bipartite g whose pairs have fewer length-2
    paths: with the classes coloured by a BFS from the smallest label
    of each component, the one whose *other* class has the smaller sum
    of C(deg m, 2) over its vertices m, the class of the smallest label
    on a tie."""
    colour: dict[int, int] = {}
    for s in sorted(g.vertices()):
        if s in colour:
            continue
        colour[s] = 0
        queue = [s]
        for v in queue:
            c = 1 - colour[v]
            for d in g.rotation(v):
                z = g.vertex_of_dart(rev(d))
                if z not in colour:
                    colour[z] = c
                    queue.append(z)
    paths = [0, 0]
    for v, c in colour.items():
        k = g.degree(v)
        paths[c] += k * (k - 1) // 2
    # the pairs of class c meet at middles of class 1 - c
    t = 0 if paths[1] <= paths[0] else 1
    return {v for v, c in colour.items() if c == t}


class _NodeState:
    """Per-node pair table: all length-2 paths between K vertices, with
    ``K`` the node's separator at an internal node and, at a leaf, its
    vertices in the detector's tracked class (all of them once the
    detector widened)."""

    __slots__ = ("node", "K", "paths", "by_edge")

    def __init__(self, node, K: set[int]):
        self.node = node
        self.K = K
        # pair -> {legkey: middle}
        self.paths: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        # edge id -> {(pair, legkey)}
        self.by_edge: dict[int, set] = {}

    def add(self, pair, lk, middle) -> bool:
        d = self.paths.setdefault(pair, {})
        if lk in d:
            return False
        d[lk] = middle
        for e in lk:
            self.by_edge.setdefault(e, set()).add((pair, lk))
        return True

    def purge(self, e: int) -> set:
        """Drop every path with a leg e and return them as ``(pair,
        legkey)`` items: e's index entry goes whole, and each path
        leaves its table and its other leg's entry."""
        paths, by_edge = self.paths, self.by_edge
        items = by_edge.pop(e, set())
        for item in items:
            pair, lk = item
            d = paths[pair]
            del d[lk]
            if not d:
                del paths[pair]
            f = lk[1] if lk[0] == e else lk[0]
            s = by_edge[f]
            s.discard(item)
            if not s:
                del by_edge[f]
        return items

    def scan_all(self) -> None:
        """Fill the empty table from the live node graph, in one pass
        that writes both indexes.  Two legs at one middle name their
        path alone, so no path is met twice."""
        h = self.node.graph
        K, paths, by_edge = self.K, self.paths, self.by_edge
        at = h.vertex_of_dart
        for m in h.vertices():
            # (edge, far end) of m's edges into K: d >> 1 is edge_of(d)
            # and d ^ 1 is rev(d)
            legs = [(d >> 1, z) for d in h.rotation(m)
                    if (z := at(d ^ 1)) != m and z in K]
            for i, (e1, z1) in enumerate(legs):
                for e2, z2 in legs[i + 1:]:
                    if z1 == z2:
                        continue
                    pair = (z1, z2) if z1 < z2 else (z2, z1)
                    lk = (e1, e2) if e1 < e2 else (e2, e1)
                    paths.setdefault(pair, {})[lk] = m
                    item = (pair, lk)
                    by_edge.setdefault(e1, set()).add(item)
                    by_edge.setdefault(e2, set()).add(item)


class Detector:
    """Maintains the separating 4-cycles of a plane multigraph under
    three mutations: :meth:`insert_edge`, :meth:`contract_edge` and
    :meth:`merge_across`, which merges two opposite corners of a face.
    SPQR updates make only merges.

    :meth:`separating_now` is the one answer: the 4-cycles that are
    separating now, found by walking the pairs in the op log that
    construction and every mutation write to.  Construction only logs:
    a caller that knows no 4-cycle separates at the start, as for the
    radial graph of a triconnected skeleton, resets the log and never
    pays for the walks that would confirm it.

    On a bipartite input, such as that radial graph, the leaves track
    one colour class (``_tracked``) until a mutation that joins the two
    classes widens them (:meth:`_widen`); see the module docstring.
    """

    def __init__(self, g: EmbeddedMultigraph, *, debug: bool = False):
        bipartite = True
        for f in g.faces():
            if len(f) > MAX_FACE_DEGREE:
                raise FaceDegreeExceeded(
                    f"face of degree {len(f)} exceeds {MAX_FACE_DEGREE}")
            if len(f) == 2 and edge_of(f[0]) != edge_of(f[1]):
                raise EmbedError("input has a doubled face: not quasi-simple")
            if len(f) == 1:
                raise EmbedError("input has a monogon face: not quasi-simple")
            bipartite = bipartite and len(f) % 2 == 0
        # the labels of the class the leaves track, or None once they
        # track every vertex
        self._tracked = _colour_class(g) if bipartite else None
        self.debug = debug
        self.candidates_total = 0
        # paths a contraction lifted out of their tables to re-seat them
        self.lifted_total = 0
        # (node state, legkey of a path logged for the query, the pair
        # the path was written under)
        self._op_items: list[tuple[_NodeState, tuple, tuple]] = []
        self.tree = SeparatorTree(g)
        self._states: dict[int, _NodeState] = {}
        # the debug ledger's potentials and candidates per node
        self._phi_pre: dict[int, int] = {}
        self._cand_node: dict[int, int] = {}
        for node in self.tree.nodes():
            st = _NodeState(node, self._tracked_at(node))
            st.scan_all()
            self._states[id(node)] = st
            # every path: any one may be gone by the query
            self._op_items += [(st, lk, pair)
                               for pair, d in st.paths.items()
                               if len(d) > 1 for lk in d]

    def _tracked_at(self, node) -> set[int]:
        """The vertices a node's table tracks (``_NodeState.K``)."""
        if not node.is_leaf:
            return set(node.separator())
        if self._tracked is None:
            return set(node.graph.vertices())
        T = self._tracked
        return {v for v in node.graph.vertices() if v in T}

    def _widen(self) -> None:
        """Stop tracking one colour class, for good, before a mutation
        that joins the two: every leaf's ``K`` becomes all its vertices
        and its table is scanned again.  The op log stays as it is."""
        self._tracked = None
        for st in self._states.values():
            if st.node.is_leaf:
                st.K = self._tracked_at(st.node)
                st.paths.clear()
                st.by_edge.clear()
                st.scan_all()

    # -- public operations ----------------------------------------------

    def insert_edge(self, u: int, w: int,
                    after_u: int | None, after_w: int | None) -> int:
        """Insert an edge splitting the face shared by the two corners
        and return its id; raises NotOnFace when the corners lie on
        different faces.  No update calls it: it stays for the tests
        and for the tracer in ``perfbench/tracing.py``."""
        T = self._tracked
        if T is not None and (u in T) == (w in T):
            self._widen()
        self._begin_op()
        tevents = self.tree.apply_insertion(u, w, after_u, after_w)
        eid = tevents[0][2]
        tevents += self._simplify_around(
            [dart(eid, 0), dart(eid, 1)])
        self._process_events(tevents)
        self._end_op(tevents)
        return eid

    def merge_across(self, u: int, w: int,
                     after_u: int | None, after_w: int | None) -> int:
        """Merge two opposite corners of one face, the corners after
        ``after_u`` at u and after ``after_w`` at w, log every new path
        and return the merged label, that of the endpoint with more
        edges (the smaller label on a tie).  Raises SelfLoopContraction
        when u == w and NotOnFace when the corners lie on different
        faces, before anything changes.

        The endpoint r that retires merges into the survivor x where the
        face was, in one root-first separator-tree walk
        (``SeparatorTree.apply_merge``), with nothing inserted or
        contracted.  Across a quad of four distinct corners, the face of
        nearly every R-node surgery, r's two quad edges would each end
        up parallel to one of x's, so they are passed as the walk's
        ``gone`` edges: each node deletes them before it merges, and x's
        stay.  Across any other face, such as the quad of a bridge that
        an R split's cut contracts, whose two sides are one face (a
        pendant edge's among them), the merge comes first and
        quasi-simplicity is restored after it: of each pair of parallel
        edges the merge leaves, the larger id survives.  That is the
        graph that inserting the diagonal between the two corners and
        contracting it would give."""
        if u == w:
            raise SelfLoopContraction(
                f"corners of vertex {u} cannot merge with each other")
        h = self.tree.root.graph
        for v, a in ((u, after_u), (w, after_w)):
            if a is None or not h.has_dart(a) or h.vertex_of_dart(a) != v:
                raise NotOnFace(f"dart {a} is not at vertex {v}")
        quad = _opposite_on_quad(h, after_u, after_w)
        if not quad and not h.same_face(h.rotation_next(after_u),
                                        h.rotation_next(after_w)):
            raise NotOnFace("corners lie on different faces")
        T = self._tracked
        if T is not None and (u in T) != (w in T):
            self._widen()
        self._begin_op()
        x = merge_survivor(h, u, w)
        r, after_r, after_x = (u, after_u, after_w) if x == w else (
            w, after_w, after_u)
        first_r, gone = h.rotation_next(after_r), ()
        if quad:
            # r's darts after its two quad edges, if it has any
            gone = (edge_of(after_r), edge_of(first_r))
            first_r = h.rotation_next(first_r)
            if first_r == after_r:
                first_r = None
        tevents = self.tree.apply_merge(x, r, after_x, first_r, gone)
        if not quad:
            tevents += self._simplify_around(list(h.rotation(x)))
        self._process_events(tevents)
        self._end_op(tevents)
        return x

    def contract_edge(self, e: int) -> int:
        """Contract a non-loop edge everywhere, restore quasi-simplicity
        and log every new path; return the merged label,
        that of the endpoint with more edges (the smaller label on a
        tie).  Raises UnknownEdge or SelfLoopContraction before
        anything changes.  No update calls it: it stays for the tests
        and for the tracer in ``perfbench/tracing.py``."""
        h = self.tree.root.graph
        u, w = h.endpoints(e)
        # an edge always joins the two classes
        if self._tracked is not None:
            self._widen()
        self._begin_op()
        tevents = self.tree.apply_contraction(e)
        x = u if h.has_vertex(u) else w
        tevents += self._simplify_around(list(h.rotation(x)))
        self._process_events(tevents)
        self._end_op(tevents)
        return x

    def reset_op_log(self) -> None:
        """Clear the path log consulted by :meth:`separating_now`.

        The log accumulates across operations so that a caller issuing
        several mutations as one logical step can validate them as a
        unit.  A caller that resets right after construction, because
        it knows that no 4-cycle separates yet, skips every walk of the
        pairs whose paths construction logged."""
        self._op_items = []

    def separating_now(self) -> list[tuple]:
        """Every 4-cycle that is separating now, provided none was when
        :meth:`reset_op_log` was last called (construction logs every
        path of a pair that has two, so a query before any reset lists
        the cycles separating at the start).

        Every 4-cycle that turns separating gains a path in some
        mutation, or is the boundary of a split face, and a path of a
        diagonal that a node where it separates tracks is logged.  This
        is where the walks happen: each logged path's pair is the one it
        was logged under while the path is still in that pair's table,
        and is read off its node's graph as it is now otherwise, and the
        pair's current path table, if it has two or more paths, is
        checked against the current graph, once however often it was
        met, which also filters out the cycles that were only
        transiently separating.  A cycle is
        ``(pair, m1, lk1, m2, lk2)``: the diagonal its node tracks, the
        two middle vertices and the two leg edge pairs; one cycle held
        by two node tables is listed twice."""
        # (node state, current pair), each once, in the order met
        todo: dict[tuple[_NodeState, tuple[int, int]], None] = {}
        for st, lk, pair in self._op_items:
            if lk not in st.paths.get(pair, ()):
                got = _derive(st.node.graph, *lk)
                if got is None:
                    continue
                pair = got[0]
            todo[st, pair] = None
        cycles: list[tuple] = []
        for st, pair in todo:
            d = st.paths.get(pair)
            if d is None or len(d) < 2:
                continue
            # orient each path's legs: the one at a first
            h = st.node.graph
            a, b = pair
            entries = []
            for lk, m in d.items():
                p, q = lk
                entries.append((lk, m, p, q) if a in h.endpoints(p)
                               else (lk, m, q, p))
            for i, (lk1, m1, e1, e2) in enumerate(entries):
                for lk2, m2, f1, f2 in entries[i + 1:]:
                    if m1 != m2 and cycle_is_separating(
                            h, a, m1, b, m2, e1, e2, f2, f1):
                        cycles.append((pair, m1, lk1, m2, lk2))
        return cycles

    def check(self) -> None:
        """Assert detector invariants against from-scratch recomputation:
        every node's ``K`` is its separator, its vertices in the tracked
        class at a leaf while one is tracked and all of them otherwise,
        and its table equals a fresh scan of ``K``; while a class is
        tracked, every edge of the root graph joins the two classes."""
        self.tree.check()
        root = self.tree.root.graph
        # in-place merges run no quasi-simplification to remove bigons
        assert not any(len(f) == 2 and edge_of(f[0]) != edge_of(f[1])
                       for f in root.faces()), "doubled face"
        T = self._tracked
        if T is not None:
            for e in root.edge_ids():
                a, b = root.endpoints(e)
                assert (a in T) != (b in T), f"edge {e} inside one class"
        for st in self._states.values():
            node = st.node
            assert st.K == self._tracked_at(node)
            fresh = _NodeState(node, set(st.K))
            fresh.scan_all()
            assert fresh.paths == st.paths
            want = {}
            for pair, d in fresh.paths.items():
                for lk in d:
                    for e in lk:
                        want.setdefault(e, set()).add((pair, lk))
            assert want == st.by_edge
            if self.debug:
                info = self._phi(node, st.K)
                assert info["phi"] >= 0
                assert len(info["M"]) <= max(0, len(st.K) - 2)

    # -- quasi-simplification --------------------------------------------

    def _simplify_around(self, darts: list[int]) -> list[tuple]:
        """Remove doubled faces reachable from the given root darts,
        keeping the larger edge id, and propagate the deletions."""
        root = self.tree.root.graph
        tevents: list[tuple] = []
        stack = list(darts)
        while stack:
            d = stack.pop()
            if not root.has_dart(d):
                continue
            big = root.bigon_at(d)
            if big is None:
                big = root.bigon_at(rev(d))
            if big is None:
                continue
            d1, d2 = big
            loser = min(edge_of(d1), edge_of(d2))
            survivor = d1 if edge_of(d1) != loser else d2
            tevents += self.tree.apply_deletion(loser)
            stack.append(survivor)
            stack.append(rev(survivor))
            stack.append(d)
        return tevents

    # -- event processing -------------------------------------------------

    def _begin_op(self) -> None:
        if self.debug:
            self._cand_node = {}
            self._phi_pre = {nid: self._phi(st.node, st.K)["phi"]
                             for nid, st in self._states.items()}

    def _end_op(self, tevents: list[tuple]) -> None:
        if not self.debug:
            return
        # candidate work in a child may be paid by an ancestor's drop
        # (a contraction's quasi-simplification can swap one child edge
        # for another, leaving that child's own potential flat), so the
        # ledger balances over all nodes the operation touched
        drop = 0
        cand = 0
        for nid in dict.fromkeys(id(ev[1]) for ev in tevents):
            st = self._states[nid]
            info = self._phi(st.node, st.K)
            drop += self._phi_pre[nid] - info["phi"]
            cand += self._cand_node.get(nid, 0)
            assert info["phi"] >= 0, f"negative potential at node {nid}"
            assert len(info["M"]) <= max(0, len(st.K) - 2)
        assert cand <= drop, (
            f"candidates {cand} exceed total potential drop {drop}")

    def _cand(self, st: _NodeState, k: int) -> None:
        if k:
            self.candidates_total += k
            if self.debug:
                nid = id(st.node)
                self._cand_node[nid] = self._cand_node.get(nid, 0) + k

    def _process_events(self, tevents: list[tuple]) -> None:
        # hygiene first: every node's graph is already final, so purge
        # paths through deleted edges and relabel renamed vertices
        # before any discovery touches the tables
        for ev in tevents:
            kind, node = ev[0], ev[1]
            st = self._states[id(node)]
            if kind == "rename":
                self._process_rename(st, ev[2], ev[3])
            elif kind == "delete":
                st.purge(ev[2])
        for ev in tevents:
            kind, node = ev[0], ev[1]
            st = self._states[id(node)]
            if kind == "merge":
                self._process_merge(st, *ev[2:])
            elif kind == "insert":
                self._process_insert_paths(st, ev[2])
                self._recheck_split_face(st, ev[2])

    # -- per-node updates --------------------------------------------------

    def _process_merge(self, st, x: int, r: int, fr: list[int]) -> None:
        """r merged into x, r with the edges ``fr`` before.  If r was
        tracked, x now stands where r stood and is tracked too.  Where r
        had no edge left (``fr`` empty), the deletions of its edges
        already purged every path through it, and if x just became
        tracked, any of its edges can start a new path."""
        h = st.node.graph
        K = st.K
        kx, kr = x in K, r in K
        if kr:
            K.discard(r)
            K.add(x)
        if not fr:
            if kr and not kx:
                self._paths_from(st, x, [edge_of(d) for d in h.rotation(x)])
            return
        # 1) lift out every path with a leg at r, whose label retired; a
        # path with no leg there keeps its pair, legs and middle
        affected = set()
        for f in fr:
            affected |= st.purge(f)
        self.lifted_total += len(affected)
        # 2) re-seat the lifted paths that survive; a path whose pair
        # changed may close new 4-cycles with paths it never shared a
        # pair with before, so it is logged like a new path
        moved_pairs = set()
        for pair, lk in affected:
            got = _derive(h, *lk)
            if got is None:
                continue
            npair, nmid = got
            if npair[0] not in K or npair[1] not in K:
                continue
            st.add(npair, lk, nmid)
            if npair != pair:
                moved_pairs.add(npair)
                self._op_items.append((st, lk, npair))
        self._cand(st, len(moved_pairs))
        # x's former edges are its edges now that were not r's; they are
        # read only where a former-r leg reaches K or exactly one of the
        # two was tracked
        rlegs = self._k_legs(h, fr, x, K)
        if not rlegs and kx == kr:
            return
        fx = {edge_of(d) for d in h.rotation(x)}.difference(fr)
        # 3) new paths with the merged vertex as middle: one former-x
        # leg and one former-r leg
        seen_pairs = set()
        for f1, z1 in self._k_legs(h, fx, x, K):
            for f2, z2 in rlegs:
                if z1 == z2 or f1 == f2:
                    continue
                seen_pairs.add(_pairkey(z1, z2))
                npair = _pairkey(z1, z2)
                lk = _legkey(f1, f2)
                if st.add(npair, lk, x):
                    self._op_items.append((st, lk, npair))
        self._cand(st, len(seen_pairs))
        # 4) when exactly one of the two was tracked, the other one's
        # former edges now start paths at a tracked vertex
        if kx != kr:
            self._paths_from(st, x, fr if kx else fx)

    def _paths_from(self, st, x: int, legs) -> None:
        """x just became tracked: add and log every path from x whose
        first leg is one of ``legs`` (edge ids; those no longer at x are
        skipped)."""
        h = st.node.graph
        K = st.K
        seen = set()
        for f in set(legs):
            try:
                a, b = h.endpoints(f)
            except UnknownEdge:
                continue
            if a == b or x not in (a, b):
                continue
            m = a + b - x
            for d2 in h.rotation(m):
                g2 = edge_of(d2)
                if g2 == f:
                    continue
                z = h.vertex_of_dart(rev(d2))
                if z == m or z == x or z not in K:
                    continue
                seen.add((m, z))
                lk, pair = _legkey(f, g2), _pairkey(x, z)
                if st.add(pair, lk, m):
                    self._op_items.append((st, lk, pair))
        self._cand(st, len(seen))

    @staticmethod
    def _k_legs(h, fs, x, K):
        out = []
        for f in set(fs):
            try:
                a, b = h.endpoints(f)
            except UnknownEdge:
                continue
            if a == b or x not in (a, b):
                continue
            z = a + b - x
            if z in K:
                out.append((f, z))
        return out

    def _process_rename(self, st, old: int, new: int) -> None:
        if old in st.K:
            st.K.discard(old)
            st.K.add(new)
        h = st.node.graph
        moved = set()
        for d in h.rotation(new):
            moved |= st.purge(edge_of(d))
        for pair, lk in moved:
            got = _derive(h, *lk)
            if got is None:
                continue
            npair, nmid = got
            if npair[0] in st.K and npair[1] in st.K:
                st.add(npair, lk, nmid)

    def _process_insert_paths(self, st, eid: int) -> None:
        """Edge ``eid`` was inserted: it is the first leg of new paths
        from each of its tracked ends."""
        h = st.node.graph
        if h.has_edge(eid):
            for a in h.endpoints(eid):
                if a in st.K:
                    self._paths_from(st, a, [eid])

    def _recheck_split_face(self, st, eid: int) -> None:
        """An insertion splits one face; if that face had degree 4, its
        boundary cycle C = a m1 b m2, with a and b the ends of the
        inserted edge, may just have turned from facial to separating.
        One path of the diagonal (a, b) is logged, and the query decides.

        A path of (m1, m2) would find nothing more.  It finds C only at a
        node N where C separates, and then N or a node below it that the
        edge enters tracks a and b and has C separating.  A leaf tracks
        every vertex here: in a bipartite graph no edge joins opposite
        corners of a 4-face, so only a widened detector splits one.  An
        internal node tracks its separator.  If a or b is not on it,
        both triangles of the split face lie on that vertex's side (face
        preservation), and so do C and the edge in that child, where C
        separates too.  Otherwise the side of C away from the edge would
        be a face in the child but not in N, so each face of N on that
        side next to C would hold a vertex that only the other side has,
        lie on the other side, and put all of C on the separator, a and
        b included."""
        h = st.node.graph
        if not h.has_edge(eid):
            return
        f1, f2 = h.trace_face(dart(eid, 0)), h.trace_face(dart(eid, 1))
        if len(f1) + len(f2) - 2 != 4:
            return
        # the boundary a -e1- m1 -e2- b - m2 - a of the split face
        seq = f1[1:] + f2[1:]
        self._op_items.append((st, _legkey(edge_of(seq[0]), edge_of(seq[1])),
                               _pairkey(h.vertex_of_dart(seq[0]),
                                        h.vertex_of_dart(seq[2]))))

    # -- potential ------------------------------------------------------------

    def _phi(self, node, K: set[int]) -> dict:
        """Exact integer potential of one node: 6*phi_v(V) +
        3*phi_q(Y u M) + phi_s(M u K), with phi_s = 63*phi_v^2 - sum of
        squared degrees, all measured on quasi-induced subgraphs."""
        h = node.graph
        qs = h.copy()
        qs.quasi_simplify()
        verts = set(h.vertices())
        Kset = set(K) & verts
        # d_X(m) is at most the number of m's edges into K, which
        # rules most vertices out without inducing a subgraph
        M = {m for m in verts - Kset
             if sum(h.vertex_of_dart(rev(d)) in Kset
                    for d in h.rotation(m)) >= 4
             and quasi_induced_degree(h, Kset, m) >= 4}
        phi_v = 4 * qs.n_vertices - qs.n_edges
        phi_q = sum(len(qs.rotation(v)) for v in verts - Kset)
        gmk = h.induced(M | Kset)
        gmk.quasi_simplify()
        phi_v_mk = 4 * gmk.n_vertices - gmk.n_edges
        phi_s = (63 * phi_v_mk * phi_v_mk
                 - sum(len(gmk.rotation(v)) ** 2 for v in gmk.vertices()))
        return {"phi": 6 * phi_v + 3 * phi_q + phi_s,
                "phi_v": phi_v, "phi_q": phi_q, "phi_s": phi_s,
                "M": M, "K": Kset}
