"""Exact maintenance of the edges on separating 4-cycles of a plane
multigraph under edge insertions and contractions.

A 4-cycle of a plane multigraph is *separating* when neither of its two
sides is a face.  The :class:`Detector` keeps, for every node of a
face-preserving separator tree, a set ``K`` of tracked vertices (the
node's separator at an internal node, every vertex at a leaf) and the
complete table of length-2 paths between pairs of ``K``.  Two such
paths with distinct middle vertices form a 4-cycle, and a constant-time
face walk decides whether it is separating; a pair connected through at
least four distinct middles has every one of its path edges on a
separating 4-cycle, so no walks are needed once a pair saturates.

Any 4-cycle is either confined to one side of a node's separation, in
which case a descendant tracks it, or it crosses with its two
separator vertices opposite on the cycle, in which case the node's own
pair table sees it.  Leaves track all pairs, closing the recursion.
A leaf is a node of at most ``separators.N0`` vertices, or one that has
no balanced face-preserving separation.  Its table holds every
length-2 path of its graph, one per pair of edges at each middle
vertex, so a leaf around a vertex of degree d stores about d^2 / 2
paths.  That is why leaves stay of bounded size.

Every discovery goes into one op log: at construction, the pairs
that already close a separating 4-cycle; during a mutation, each new
path's separating cycles (or its pair, once saturated) and a split
4-face whose boundary turned separating.  The single query,
:meth:`Detector.separating_now`, re-validates the logged pairs against
the current graph and lists the 4-cycles that are separating now.

Every mutation is charged against an exact integer potential.  With
``debug`` enabled (off by default) each insertion and contraction takes
the potential of every node before it, recomputes after it that of each
node its separator-tree events name, and asserts that the candidate
paths examined there never exceed their total potential drop.
"""

from __future__ import annotations

from .embed import (
    EmbeddedMultigraph,
    EmbedError,
    dart,
    edge_of,
    quasi_induced_degree,
    rev,
)
from .separators import SeparatorTree

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
    if not (h.has_edge(e1) and h.has_edge(e2)):
        return None
    if h.is_loop(e1) or h.is_loop(e2):
        return None
    a1, b1 = h.endpoints(e1)
    a2, b2 = h.endpoints(e2)
    for m in (a1, b1):
        if m in (a2, b2):
            z1 = b1 if m == a1 else a1
            z2 = b2 if m == a2 else a2
            if z1 != z2:
                return _pairkey(z1, z2), m
    return None


def _dart_at(h: EmbeddedMultigraph, e: int, v: int) -> int:
    d = dart(e, 0)
    return d if h.vertex_of_dart(d) == v else d ^ 1


def cycle_is_separating(h: EmbeddedMultigraph,
                        a: int, m1: int, b: int, m2: int,
                        e1: int, e2: int, f2: int, f1: int) -> bool:
    """Whether the 4-cycle a -e1- m1 -e2- b -f2- m2 -f1- a bounds no
    face of h (both walks of its two sides fail to close a face)."""
    s1 = (_dart_at(h, e1, a), _dart_at(h, e2, m1),
          _dart_at(h, f2, b), _dart_at(h, f1, m2))
    s2 = (_dart_at(h, f1, a), _dart_at(h, f2, m2),
          _dart_at(h, e2, b), _dart_at(h, e1, m1))
    for seq in (s1, s2):
        if all(h.face_next(seq[i]) == seq[(i + 1) % 4] for i in range(4)):
            return False
    return True


class _NodeState:
    """Per-node pair table: all length-2 paths between K vertices."""

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

    def remove(self, pair, lk) -> None:
        d = self.paths.get(pair)
        if d is None or lk not in d:
            return
        del d[lk]
        if not d:
            del self.paths[pair]
        for e in lk:
            s = self.by_edge.get(e)
            if s is not None:
                s.discard((pair, lk))
                if not s:
                    del self.by_edge[e]

    def scan_all(self) -> None:
        """Fill the table from scratch from the live node graph."""
        h = self.node.graph
        for m in h.vertices():
            legs = []
            for d in h.rotation(m):
                z = h.vertex_of_dart(rev(d))
                if z == m or z not in self.K:
                    continue
                legs.append((edge_of(d), z))
            for i in range(len(legs)):
                e1, z1 = legs[i]
                for j in range(i + 1, len(legs)):
                    e2, z2 = legs[j]
                    if z1 == z2 or e1 == e2:
                        continue
                    self.add(_pairkey(z1, z2), _legkey(e1, e2), m)


class Detector:
    """Maintains the separating 4-cycles of a plane multigraph under
    edge insertions and contractions.

    :meth:`separating_now` is the one answer: the 4-cycles that are
    separating now, found through the op log that construction and
    every mutation write to.
    """

    def __init__(self, g: EmbeddedMultigraph, *, debug: bool = False):
        for f in g.faces():
            if len(f) > MAX_FACE_DEGREE:
                raise FaceDegreeExceeded(
                    f"face of degree {len(f)} exceeds {MAX_FACE_DEGREE}")
            if len(f) == 2 and edge_of(f[0]) != edge_of(f[1]):
                raise EmbedError("input has a doubled face: not quasi-simple")
            if len(f) == 1:
                raise EmbedError("input has a monogon face: not quasi-simple")
        self.debug = debug
        self.candidates_total = 0
        # (node state, pair, legs of a logged cycle or ())
        self._op_items: list[tuple] = []
        self._op_renames: list[tuple[int, int, int]] = []
        self.tree = SeparatorTree(g)
        self._states: dict[int, _NodeState] = {}
        self._phi_pre: dict[int, int] = {}
        self._cand_node: dict[int, int] = {}
        for node in self.tree.nodes():
            K = (set(node.graph.vertices()) if node.is_leaf
                 else set(node.separator()))
            st = _NodeState(node, K)
            st.scan_all()
            self._states[id(node)] = st
            for pair in st.paths:
                if next(self._separating(st, pair), None) is not None:
                    self._op_items.append((st, pair, ()))

    # -- public operations ----------------------------------------------

    def insert_edge(self, u: int, w: int,
                    after_u: int | None, after_w: int | None,
                    eid: int | None = None) -> int:
        """Insert an edge splitting the face shared by the two corners
        and return its id; raises NotOnFace when the corners lie on
        different faces."""
        self._begin_op()
        tevents = self.tree.apply_insertion(u, w, after_u, after_w, eid=eid)
        eid = tevents[0][2]
        tevents += self._simplify_around(
            [dart(eid, 0), dart(eid, 1)])
        self._process_events(tevents)
        self._end_op(tevents)
        return eid

    def contract_edge(self, e: int) -> None:
        """Contract a non-loop edge everywhere and restore quasi-
        simplicity, logging any 4-cycle that turned separating; raises
        UnknownEdge or SelfLoopContraction before anything changes."""
        self._begin_op()
        tevents = self.tree.apply_contraction(e)
        x = tevents[0][3]
        tevents += self._simplify_around(
            list(self.tree.root.graph.rotation(x)))
        self._process_events(tevents)
        self._end_op(tevents)

    def reset_op_log(self) -> None:
        """Clear the discovery log consulted by :meth:`separating_now`.

        The log accumulates across operations so that a caller issuing
        several mutations as one logical step can validate them as a
        unit."""
        self._op_items = []
        self._op_renames = []

    def separating_now(self) -> list[tuple]:
        """Every 4-cycle that is separating now, provided none was when
        :meth:`reset_op_log` was last called (construction logs the
        cycles separating at the start).

        Every 4-cycle that turns separating is discovered by some
        mutation's path or split-face check and logged; each logged
        pair's current path table is re-checked against the current
        graph, which filters out the cycles that were only transiently
        separating.  A cycle is ``(pair, m1, lk1, m2, lk2)``: its
        diagonal pair, the two middle vertices and the two leg edge
        pairs; one cycle held by two node tables is listed twice."""
        cycles: list[tuple] = []
        done: set[tuple[int, tuple[int, int]]] = set()

        def check_pair(st, pair):
            key = (id(st), pair)
            if key in done:
                return
            done.add(key)
            for lk1, m1, lk2, m2 in self._separating(st, pair):
                cycles.append((pair, m1, lk1, m2, lk2))

        for st, pair, legs in self._op_items:
            # a logged cycle certifies its pair; sibling cycles of the
            # same pair may have turned separating too, so recheck the
            # whole current path table
            for lk in legs:
                g = _derive(st.node.graph, *lk)
                if g is not None:
                    check_pair(st, g[0])
            check_pair(st, self._translate_pair(st, pair))
        return cycles

    def _translate_pair(self, st, pair):
        a, b = pair
        nid = id(st.node)
        for xid, old, new in self._op_renames:
            if xid != nid:
                continue
            if a == old:
                a = new
            if b == old:
                b = new
        return _pairkey(a, b)

    def check(self) -> None:
        """Assert detector invariants against from-scratch recomputation."""
        self.tree.check()
        for st in self._states.values():
            node = st.node
            expected_K = (set(node.graph.vertices()) if node.is_leaf
                          else set(node.separator()))
            assert st.K == expected_K
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
        self._cand_node = {}
        if self.debug:
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
                for pair, lk in list(st.by_edge.get(ev[2], ())):
                    st.remove(pair, lk)
        for ev in tevents:
            kind, node = ev[0], ev[1]
            st = self._states[id(node)]
            if kind == "contract":
                self._process_merge(st, *ev[3:])
            elif kind == "insert":
                self._process_insert_paths(st, ev[2])
                self._recheck_split_face(st, ev[2])

    # -- discovery ---------------------------------------------------------

    def _pair_cycle_separating(self, h, pair, lk1, m1, lk2, m2) -> bool:
        a, b = pair
        p, q = lk1
        e1, e2 = (p, q) if a in h.endpoints(p) else (q, p)
        p, q = lk2
        f1, f2 = (p, q) if a in h.endpoints(p) else (q, p)
        return cycle_is_separating(h, a, m1, b, m2, e1, e2, f2, f1)

    def _separating(self, st, pair):
        """Yield ``(lk1, m1, lk2, m2)`` for every two stored paths of
        the pair with distinct middles that close a separating
        4-cycle."""
        d = st.paths.get(pair)
        if not d:
            return
        h = st.node.graph
        entries = list(d.items())
        for i, (lk1, m1) in enumerate(entries):
            for lk2, m2 in entries[i + 1:]:
                if m1 != m2 and self._pair_cycle_separating(
                        h, pair, lk1, m1, lk2, m2):
                    yield lk1, m1, lk2, m2

    def _on_new_path(self, st, pair, lk, middle) -> None:
        h = st.node.graph
        d = st.paths[pair]
        if len(set(d.values())) >= 4:
            # saturated: every stored path has at least three partners
            # with other middles, at most two of which can close a face
            self._op_items.append((st, pair, ()))
            return
        for lk2, m2 in list(d.items()):
            if lk2 == lk or m2 == middle:
                continue
            if self._pair_cycle_separating(h, pair, lk, middle, lk2, m2):
                self._op_items.append((st, pair, (lk, lk2)))

    # -- per-node updates --------------------------------------------------

    def _process_merge(self, st, x: int, u: int, w: int,
                       fu: list[int], fw: list[int]) -> None:
        h = st.node.graph
        K = st.K
        ku, kw = u in K, w in K
        if ku or kw:
            K.discard(u)
            K.discard(w)
            K.add(x)
        # 1) lift out every path touching an edge that was at u or w
        affected = set()
        for f in set(fu) | set(fw):
            affected |= st.by_edge.get(f, set())
        for pair, lk in affected:
            st.remove(pair, lk)
        # 2) re-seat the survivors; a path whose pair changed may close
        # new 4-cycles with paths it never shared a pair with before
        changed = []
        for pair, lk in affected:
            got = _derive(h, *lk)
            if got is None:
                continue
            npair, nmid = got
            if npair[0] not in K or npair[1] not in K:
                continue
            if npair == pair:
                st.add(npair, lk, nmid)
            else:
                changed.append((npair, lk, nmid))
        moved_pairs = set()
        for npair, lk, nmid in changed:
            if st.add(npair, lk, nmid):
                moved_pairs.add(npair)
                self._on_new_path(st, npair, lk, nmid)
        self._cand(st, len(moved_pairs))
        # 3) new paths with the merged vertex as middle: one former-u
        # leg and one former-w leg
        ulegs = self._k_legs(h, fu, x, K)
        wlegs = self._k_legs(h, fw, x, K)
        seen_pairs = set()
        for f1, z1 in ulegs:
            for f2, z2 in wlegs:
                if z1 == z2 or f1 == f2:
                    continue
                seen_pairs.add(_pairkey(z1, z2))
                npair = _pairkey(z1, z2)
                lk = _legkey(f1, f2)
                if st.add(npair, lk, x):
                    self._on_new_path(st, npair, lk, x)
        self._cand(st, len(seen_pairs))
        # 4) when exactly one endpoint was tracked, the other side's
        # former edges now start paths at a tracked vertex
        if ku != kw:
            outlegs = fw if ku else fu
            seen = set()
            for f in set(outlegs):
                if not h.has_edge(f) or h.is_loop(f):
                    continue
                a, b = h.endpoints(f)
                if x not in (a, b):
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
                    lk = _legkey(f, g2)
                    if st.add(_pairkey(x, z), lk, m):
                        self._on_new_path(st, _pairkey(x, z), lk, m)
            self._cand(st, len(seen))

    @staticmethod
    def _k_legs(h, fs, x, K):
        out = []
        for f in set(fs):
            if not h.has_edge(f) or h.is_loop(f):
                continue
            a, b = h.endpoints(f)
            if x not in (a, b):
                continue
            z = a + b - x
            if z in K:
                out.append((f, z))
        return out

    def _process_rename(self, st, old: int, new: int) -> None:
        self._op_renames.append((id(st.node), old, new))
        if old in st.K:
            st.K.discard(old)
            st.K.add(new)
        h = st.node.graph
        moved = set()
        for d in h.rotation(new):
            moved |= st.by_edge.get(edge_of(d), set())
        for pair, lk in moved:
            st.remove(pair, lk)
        for pair, lk in moved:
            got = _derive(h, *lk)
            if got is None:
                continue
            npair, nmid = got
            if npair[0] in st.K and npair[1] in st.K:
                st.add(npair, lk, nmid)

    def _process_insert_paths(self, st, eid: int) -> None:
        h = st.node.graph
        if not h.has_edge(eid) or h.is_loop(eid):
            return
        u, w = h.endpoints(eid)
        K = st.K
        for a, b in ((u, w), (w, u)):
            if a not in K:
                continue
            seen = set()
            for d2 in h.rotation(b):
                g2 = edge_of(d2)
                if g2 == eid:
                    continue
                z = h.vertex_of_dart(rev(d2))
                if z == b or z == a or z not in K:
                    continue
                seen.add(z)
                lk = _legkey(eid, g2)
                if st.add(_pairkey(a, z), lk, b):
                    self._on_new_path(st, _pairkey(a, z), lk, b)
            self._cand(st, len(seen))

    def _recheck_split_face(self, st, eid: int) -> None:
        """An insertion splits one face; if that face had degree 4, its
        boundary cycle may just have turned from facial to separating."""
        h = st.node.graph
        if not h.has_edge(eid):
            return
        d0, d1 = dart(eid, 0), dart(eid, 1)
        f1 = h.trace_face(d0)
        f2 = h.trace_face(d1)
        if len(f1) + len(f2) - 2 != 4:
            return
        i0 = f1.index(d0)
        j0 = f2.index(d1)
        seq = f1[i0 + 1:] + f1[:i0] + f2[j0 + 1:] + f2[:j0]
        verts = [h.vertex_of_dart(d) for d in seq]
        eds = [edge_of(d) for d in seq]
        if len(set(verts)) != 4 or len(set(eds)) != 4:
            return
        a, m1, b, m2 = verts
        e1, e2, g2, g1 = eds
        if cycle_is_separating(h, a, m1, b, m2, e1, e2, g2, g1):
            self._op_items.append(
                (st, _pairkey(a, b), (_legkey(e1, e2), _legkey(g1, g2))))

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
        M = {m for m in verts - Kset
             if quasi_induced_degree(h, Kset, m) >= 4}
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
