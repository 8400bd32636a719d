"""Embedded planar multigraph core.

A graph is a set of integer vertices, a table of identified edges, and a
rotation system: one circular, clockwise-ordered list of darts per
vertex.  Every edge ``e`` owns two darts ``2*e`` and ``2*e + 1``; dart
``2*e`` leaves the first endpoint and ``2*e + 1`` the second.  Faces are
traced with the next-dart rule (reverse the dart, then take the
clockwise successor at its vertex), so corners, duals and the
vertex-face graph are purely combinatorial.

The primitive mutations are edge insertion, edge deletion and the
merge of one vertex into another, all implemented as splices on the
rotation lists; an edge contraction is a deletion followed by a merge
of the edge's ends where it was.  Every dart names its vertex; a merge
or a rename rewrites the retiring vertex's darts, so callers keep the
busier end: merging small into large, a dart is rewritten O(log n)
times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence


class EmbedError(Exception):
    """Base class for errors raised by the embedding layer."""


class MalformedRotation(EmbedError):
    """The rotation input does not list every edge end exactly once."""


class EulerViolation(EmbedError):
    """The rotation system is not a planar embedding of the graph."""


class UnknownEdge(EmbedError):
    """The edge id is not present in the graph."""


class SelfLoopContraction(EmbedError):
    """Contraction of a self-loop was requested."""


class NotOnFace(EmbedError):
    """An insertion's two corners do not lie on a common face."""


class NotBiconnected(EmbedError):
    """The graph is not biconnected, or too small for an SPQR-tree."""


class TooFewEdges(EmbedError):
    """An SPQR-tree needs at least three edges."""


class UnknownVertex(EmbedError, ValueError):
    """The vertex label is not present in the graph."""


class LabelInUse(EmbedError, ValueError):
    """The vertex label or edge id is already taken."""


class VertexNotIsolated(EmbedError, ValueError):
    """Only a vertex without edges can be removed."""


class NotAnEndpoint(EmbedError, ValueError):
    """A contraction's survivor must be an end of the edge."""


class GraphFormatError(EmbedError):
    """A graph text file failed to parse.  Carries the 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def rev(d: int) -> int:
    """The opposite dart of the same edge."""
    return d ^ 1


def edge_of(d: int) -> int:
    """The edge owning dart ``d``."""
    return d >> 1


def dart(e: int, side: int) -> int:
    return 2 * e + side


class EmbeddedMultigraph:
    """Mutable plane-embedded multigraph with stable integer edge ids."""

    def __init__(self) -> None:
        # edge ids in insertion order; endpoints are read off the darts
        self._edges: dict[int, None] = {}
        self._nxt: dict[int, int] = {}
        self._prv: dict[int, int] = {}
        self._home: dict[int, int] = {}     # dart -> vertex
        # vertex -> a dart of its rotation, None when it has none; its
        # keys are the vertex set, in insertion order
        self._anchor: dict[int, int | None] = {}
        self._deg: dict[int, int] = {}
        self._next_eid = 0

    # ------------------------------------------------------------------
    # vertex identity

    def add_vertex(self, v: int) -> None:
        """Add isolated vertex ``v``, a label no vertex has, one that a
        merge or rename retired included."""
        if v in self._anchor:
            raise LabelInUse(f"vertex label {v} already used")
        self._anchor[v] = None
        self._deg[v] = 0

    def delete_vertex(self, v: int) -> None:
        """Remove an isolated vertex."""
        if v not in self._anchor:
            raise UnknownVertex(f"unknown vertex {v}")
        if self._anchor[v] is not None:
            raise VertexNotIsolated(f"vertex {v} still has edges")
        del self._anchor[v]
        del self._deg[v]

    def rename_vertex(self, old: int, new: int) -> None:
        """Give the vertex currently labeled ``old`` the label ``new``,
        rewriting each of its darts: O(degree), which a caller that
        walks ``old``'s rotation anyway already pays.  ``new`` goes last
        in the vertex order."""
        if old == new:
            return
        if old not in self._anchor:
            raise UnknownVertex(f"unknown vertex {old}")
        if new in self._anchor:
            raise LabelInUse(f"vertex label {new} already used")
        self._relabel(self._anchor[old], new)
        self._anchor[new] = self._anchor.pop(old)
        self._deg[new] = self._deg.pop(old)

    def rename_edge(self, old: int, new: int) -> None:
        """Give the edge currently labeled ``old`` the label ``new``,
        keeping its position in both rotations (dart sides carry over)."""
        if old == new:
            return
        if old not in self._edges:
            raise UnknownEdge(f"edge {old}")
        if new in self._edges:
            raise LabelInUse(f"edge id {new} already used")
        self._edges[new] = self._edges.pop(old)
        self.bump_edge_id(new)
        remap = {dart(old, 0): dart(new, 0), dart(old, 1): dart(new, 1)}
        saved = {}
        for od in remap:
            saved[od] = (self._prv.pop(od), self._nxt.pop(od),
                         self._home.pop(od))
        for od, (p, n, h) in saved.items():
            nd = remap[od]
            p = remap.get(p, p)
            n = remap.get(n, n)
            self._prv[nd] = p
            self._nxt[nd] = n
            self._nxt[p] = nd
            self._prv[n] = nd
            self._home[nd] = h
            if self._anchor[h] in remap:
                self._anchor[h] = remap[self._anchor[h]]

    def has_vertex(self, v: int) -> bool:
        return v in self._anchor

    def vertices(self) -> Iterator[int]:
        return iter(self._anchor)

    @property
    def n_vertices(self) -> int:
        return len(self._anchor)

    # ------------------------------------------------------------------
    # edges and darts

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def edge_ids(self) -> Iterator[int]:
        return iter(self._edges)

    def has_edge(self, e: int) -> bool:
        return e in self._edges

    def endpoints(self, e: int) -> tuple[int, int]:
        try:
            return self._home[2 * e], self._home[2 * e + 1]
        except KeyError:
            raise UnknownEdge(f"edge {e}") from None

    def is_loop(self, e: int) -> bool:
        u, w = self.endpoints(e)
        return u == w

    def vertex_of_dart(self, d: int) -> int:
        return self._home[d]

    def has_dart(self, d: int) -> bool:
        return d in self._home

    def new_edge_id(self) -> int:
        e = self._next_eid
        self._next_eid = e + 1
        return e

    def bump_edge_id(self, eid: int) -> None:
        """Make sure freshly allocated ids stay above ``eid``."""
        if eid >= self._next_eid:
            self._next_eid = eid + 1

    def degree(self, v: int) -> int:
        return self._deg[v]

    def any_dart(self, v: int) -> int | None:
        return self._anchor[v]

    # ------------------------------------------------------------------
    # rotations and faces

    def rotation_next(self, d: int) -> int:
        return self._nxt[d]

    def rotation_prev(self, d: int) -> int:
        return self._prv[d]

    def rotation(self, v: int) -> list[int]:
        start = self._anchor[v]
        if start is None:
            return []
        out = [start]
        d = self._nxt[start]
        while d != start:
            out.append(d)
            d = self._nxt[d]
        return out

    def face_next(self, d: int) -> int:
        return self._nxt[d ^ 1]

    # the face walks below step through ``_nxt`` directly: a face_next
    # call per dart would cost more than the step itself

    def trace_face(self, d: int) -> list[int]:
        nxt = self._nxt
        out = [d]
        x = nxt[d ^ 1]
        while x != d:
            out.append(x)
            x = nxt[x ^ 1]
        return out

    def face_degree_at_most(self, d: int, k: int) -> int | None:
        """Degree of the face through ``d`` if it is <= k, else None."""
        nxt = self._nxt
        n = 1
        x = nxt[d ^ 1]
        while x != d:
            n += 1
            if n > k:
                return None
            x = nxt[x ^ 1]
        return n

    def same_face(self, d1: int, d2: int) -> bool:
        if d1 == d2:
            return True
        nxt = self._nxt
        x = nxt[d1 ^ 1]
        while x != d1:
            if x == d2:
                return True
            x = nxt[x ^ 1]
        return False

    def face_orbits(self) -> tuple[list[list[int]], dict[int, int]]:
        """Every face as its dart cycle, and the index in that list of
        the face traced from each dart: the one walk over all faces,
        which every face enumeration reads, the separation records of
        ``spqr`` too."""
        cycles: list[list[int]] = []
        face_of: dict[int, int] = {}
        nxt = self._nxt
        for d in self._home:
            if d in face_of:
                continue
            i = face_of[d] = len(cycles)
            cyc = [d]
            x = nxt[d ^ 1]
            while x != d:
                cyc.append(x)
                face_of[x] = i
                x = nxt[x ^ 1]
            cycles.append(cyc)
        return cycles, face_of

    def faces(self) -> list[list[int]]:
        return self.face_orbits()[0]

    def n_faces(self) -> int:
        """Face count, including one face per isolated vertex."""
        return (len(self.face_orbits()[0])
                + sum(1 for a in self._anchor.values() if a is None))

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls,
              vertices: Iterable[int],
              edges: Iterable[tuple[int, int, int]],
              rotations: dict[int, Sequence[tuple[int, int]]]
              ) -> "EmbeddedMultigraph":
        """Validated construction from explicit rotations.

        ``edges`` yields (edge id, u, w); ``rotations`` maps each vertex
        to its clockwise list of (edge id, side) pairs.
        """
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        expected: dict[int, int] = {}
        for e, u, w in edges:
            if dart(e, 0) in expected:
                raise MalformedRotation(f"duplicate edge id {e}")
            if u not in g._anchor or w not in g._anchor:
                raise MalformedRotation(f"edge {e} touches unknown vertex")
            expected[dart(e, 0)] = u
            expected[dart(e, 1)] = w
        placed: set[int] = set()
        darts_at: dict[int, list[int]] = {}
        for v, seq in rotations.items():
            if v not in g._anchor:
                raise MalformedRotation(f"rotation for unknown vertex {v}")
            darts = darts_at[v] = []
            for e, side in seq:
                if side not in (0, 1):
                    raise MalformedRotation(f"bad dart side {side}")
                d = dart(e, side)
                if d not in expected:
                    raise MalformedRotation(f"dart {e}:{side} has no edge")
                if expected[d] != v:
                    raise MalformedRotation(
                        f"dart {e}:{side} listed at vertex {v}, "
                        f"belongs at {expected[d]}")
                if d in placed:
                    raise MalformedRotation(f"dart {e}:{side} listed twice")
                placed.add(d)
                darts.append(d)
        if len(placed) != len(expected):
            missing = next(iter(set(expected) - placed))
            raise MalformedRotation(
                f"dart {edge_of(missing)}:{missing & 1} missing from rotations")
        g.write_rotations([edge_of(d) for d in expected if not d & 1],
                          darts_at)
        if not g.euler_ok():
            raise EulerViolation("rotation system fails Euler's formula")
        return g

    def write_rotations(self, edges: Collection[int],
                        rotations: dict[int, Sequence[int]]) -> None:
        """Add the edges ``edges`` and make each ``rotations[v]`` the
        clockwise rotation of v, a vertex with no darts yet, unchecked:
        every dart of the new edges must be in exactly one of the
        rotations, at its own end, and no other dart in any.  Every
        edge set written whole with its rotations goes through here: in
        :meth:`build` once it has validated them, and in the derived
        graphs and the fresh S and P skeletons of ``spqr``, which are
        plane by construction."""
        self._edges.update(dict.fromkeys(edges))
        if edges:
            self.bump_edge_id(max(edges))
        home, nxt, prv = self._home, self._nxt, self._prv
        anchor, deg = self._anchor, self._deg
        for v, darts in rotations.items():
            if not darts:
                continue
            last = darts[-1]
            for d in darts:
                home[d] = v
                prv[d] = last
                nxt[last] = d
                last = d
            anchor[v] = darts[0]
            deg[v] = len(darts)

    # ------------------------------------------------------------------
    # mutations

    def _attach_after(self, d: int, v: int, after: int | None) -> None:
        """Link dart ``d`` into the rotation of live vertex ``v``, after
        dart ``after``, or as its only dart when ``after`` is None."""
        self._home[d] = v
        if after is None:
            self._nxt[d] = d
            self._prv[d] = d
            self._anchor[v] = d
        else:
            b = self._nxt[after]
            self._nxt[after] = d
            self._prv[d] = after
            self._nxt[d] = b
            self._prv[b] = d
        self._deg[v] += 1

    def insert_edge(self,
                    u: int,
                    w: int,
                    after_u: int | None,
                    after_w: int | None,
                    eid: int | None = None,
                    require_same_face: bool = False) -> int:
        """Insert an embedding-respecting edge u-w.

        The new dart at ``u`` is placed immediately clockwise after
        ``after_u`` (None only for an isolated vertex), then the dart at
        ``w`` after ``after_w``.  With ``require_same_face`` the two
        corners are checked to lie on one face, so the insertion splits
        that face.
        """
        for v in (u, w):
            if v not in self._anchor:
                raise UnknownVertex(f"unknown vertex {v}")
        if after_u is not None and self.vertex_of_dart(after_u) != u:
            raise NotOnFace(f"dart {after_u} is not at vertex {u}")
        if after_w is not None and self.vertex_of_dart(after_w) != w:
            raise NotOnFace(f"dart {after_w} is not at vertex {w}")
        # a loop's second dart goes after its first when after_w is None
        for v, a in ((u, after_u), (w, after_u if u == w else after_w)):
            if a is None and self._anchor[v] is not None:
                raise MalformedRotation(
                    f"insertion at {v} needs a position dart")
        if require_same_face:
            if after_u is None or after_w is None:
                raise NotOnFace("isolated endpoint has no face corner")
            if not self.same_face(self._nxt[after_u], self._nxt[after_w]):
                raise NotOnFace("corners lie on different faces")
        if eid is None:
            eid = self.new_edge_id()
        else:
            if eid in self._edges:
                raise LabelInUse(f"edge id {eid} already used")
            self.bump_edge_id(eid)
        self._edges[eid] = None
        d0, d1 = dart(eid, 0), dart(eid, 1)
        self._attach_after(d0, u, after_u)
        self._attach_after(d1, w, after_w if after_w is not None else
                           (d0 if u == w else None))
        return eid

    def delete_edge(self, e: int, report: bool = False) -> None:
        """Remove edge ``e``.  ``report`` is ignored: it once asked for a
        summary of the deletion, and the benchmark's replay in
        ``perfbench`` still passes it."""
        if e not in self._edges:
            raise UnknownEdge(f"edge {e}")
        nxt, prv, anchor = self._nxt, self._prv, self._anchor
        for d in (2 * e, 2 * e + 1):
            v = self._home.pop(d)
            a, b = prv.pop(d), nxt.pop(d)
            if b == d:
                anchor[v] = None
            else:
                nxt[a], prv[b] = b, a
                if anchor[v] == d:
                    anchor[v] = b
            self._deg[v] -= 1
        del self._edges[e]

    def contract_edge(self, e: int, keep: int | None = None,
                      report: bool = False) -> None:
        """Merge the ends of non-loop edge ``e`` into ``keep`` (by default
        the smaller label): delete ``e``, then merge the other end into
        ``keep`` where ``e`` was (:meth:`merge_vertex`).  The merged
        rotation starts at the dart after ``e`` at its first end, or at
        its second if the first has no other.  ``report`` is ignored, as
        in ``delete_edge``."""
        u, w = self.endpoints(e)
        if u == w:
            raise SelfLoopContraction(f"edge {e} is a self-loop")
        if keep is None:
            keep = min(u, w)
        if keep not in (u, w):
            raise NotAnEndpoint(
                f"survivor {keep} is not an endpoint of {e}")
        nxt, d0, d1 = self._nxt, 2 * e, 2 * e + 1
        anchor = (nxt[d0] if nxt[d0] != d0 else
                  nxt[d1] if nxt[d1] != d1 else None)
        after_x, first_r = self.contraction_corners(e, keep)
        self.delete_edge(e)
        self.merge_vertex(keep, u + w - keep, after_x, first_r)
        self._anchor[keep] = anchor

    def contraction_corners(self, e: int, keep: int) -> tuple:
        """Where a contraction of ``e`` into its end ``keep`` merges the
        ends once ``e`` is gone: the dart before ``e`` at ``keep`` and
        the dart after ``e`` at the other end, each None where ``e`` is
        that end's only dart (the arguments ``after_x`` and ``first_r``
        of :meth:`merge_vertex`)."""
        dx = 2 * e if self._home[2 * e] == keep else 2 * e + 1
        after_x, first_r = self._prv[dx], self._nxt[dx ^ 1]
        return (None if after_x == dx else after_x,
                None if first_r == dx ^ 1 else first_r)

    def merge_vertex(self, x: int, r: int, after_x: int | None,
                     first_r: int | None) -> None:
        """Merge vertex r into x, retiring r's label: r's rotation, read
        clockwise from dart ``first_r``, goes into x's right after dart
        ``after_x``.  Either dart is None for an end with no darts.
        Each of r's darts is rewritten to x, so the cost is r's degree:
        a caller keeps the busier end as x, or walks r's rotation
        anyway."""
        self._relabel(first_r, x)
        if first_r is not None:
            if after_x is None:
                self._anchor[x] = first_r
            else:
                nxt, prv = self._nxt, self._prv
                last, b = prv[first_r], nxt[after_x]
                nxt[after_x], prv[first_r] = first_r, after_x
                nxt[last], prv[b] = b, last
        self._deg[x] += self._deg.pop(r)
        del self._anchor[r]

    def _relabel(self, start: int | None, v: int) -> None:
        """Name ``v`` as the vertex of every dart in the rotation
        through ``start``, if it is not None."""
        home, nxt, d = self._home, self._nxt, start
        while d is not None:
            home[d] = v
            d = nxt[d]
            if d == start:
                break

    def bigon_at(self, d: int) -> tuple[int, int] | None:
        """If the face through dart ``d`` is a bigon of two distinct
        edges, return its two darts, else None."""
        y = self.face_next(d)
        if y != d and self.face_next(y) == d and edge_of(y) != edge_of(d):
            return (d, y)
        return None

    def quasi_simplify(self) -> list[int]:
        """Remove every bigon face, keeping the larger edge id."""
        stack = list(self._home)
        deleted: list[int] = []
        while stack:
            d = stack.pop()
            if d not in self._home:
                continue
            big = self.bigon_at(d)
            if big is None:
                continue
            d1, d2 = big
            e1, e2 = edge_of(d1), edge_of(d2)
            loser = min(e1, e2)
            survivor = d1 if loser == e2 else d2
            self.delete_edge(loser)
            stack.append(survivor)
            stack.append(survivor ^ 1)
            deleted.append(loser)
        return deleted

    # ------------------------------------------------------------------
    # derived graphs

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        out: list[set[int]] = []
        for v in self._anchor:
            if v in seen:
                continue
            comp = {v}
            seen.add(v)
            queue = [v]
            while queue:
                x = queue.pop()
                for d in self.rotation(x):
                    y = self.vertex_of_dart(d ^ 1)
                    if y not in comp:
                        comp.add(y)
                        seen.add(y)
                        queue.append(y)
            out.append(comp)
        return out

    def euler_ok(self) -> bool:
        face_id = self.face_orbits()[1]
        for comp in self.components():
            nv = len(comp)
            ne = 0
            cfaces: set[int] = set()
            for v in comp:
                for d in self.rotation(v):
                    ne += 1
                    cfaces.add(face_id[d])
            ne //= 2
            nfc = len(cfaces) if ne else 1
            if nv - ne + nfc != 2:
                return False
        return True

    def copy(self) -> "EmbeddedMultigraph":
        g = EmbeddedMultigraph.__new__(EmbeddedMultigraph)
        g._edges = dict(self._edges)
        g._nxt = dict(self._nxt)
        g._prv = dict(self._prv)
        g._home = dict(self._home)
        g._anchor = dict(self._anchor)
        g._deg = dict(self._deg)
        g._next_eid = self._next_eid
        return g

    def induced(self, vs: set[int]) -> "EmbeddedMultigraph":
        """Embedded subgraph induced by live vertex set ``vs``."""
        g = EmbeddedMultigraph()
        for v in vs:
            g.add_vertex(v)
        g._next_eid = self._next_eid
        kept = {v: [d for d in self.rotation(v)
                    if self.vertex_of_dart(d ^ 1) in vs] for v in vs}
        g.write_rotations(dict.fromkeys(
            edge_of(d) for darts in kept.values() for d in darts), kept)
        return g

    def dual(self) -> tuple["EmbeddedMultigraph", dict[int, int]]:
        """The dual multigraph and the face id of every primal dart.

        Dual darts reuse the primal dart ints: dart ``d`` of dual edge
        ``edge_of(d)`` sits at the dual vertex for the face whose orbit
        contains ``rev(d)``'s successor chain, i.e. the face traced from
        ``d`` itself is the face on the other side.  Concretely the dual
        rotation at a face is its face cycle, which makes the double
        dual the identity on darts.
        """
        cycles, face_of = self.face_orbits()
        g = EmbeddedMultigraph()
        g._next_eid = self._next_eid
        for i in range(len(cycles)):
            g.add_vertex(i)
        g.write_rotations(self._edges, dict(enumerate(cycles)))
        return g, face_of

    def corners(self) -> list[int]:
        """Corners, one per dart: corner ``d`` lies between dart ``d``
        and its clockwise successor."""
        return list(self._home)

    def vertex_face_graph(self) -> tuple["EmbeddedMultigraph", "FvInfo"]:
        """The vertex-face (radial) graph.

        One vertex per graph vertex (its own label), one per face
        (labeled ``offset + face index``) and one edge per corner.  The
        fv edge of corner ``d`` joins ``vertex_of_dart(d)`` with the
        face through the corner, which is the face orbit containing
        ``rotation_next(d)``.
        """
        cycles, face_of = self.face_orbits()
        offset = (max(self._anchor) + 1) if self._anchor else 0
        fv = EmbeddedMultigraph()
        for v in self._anchor:
            fv.add_vertex(v)
        for i in range(len(cycles)):
            fv.add_vertex(offset + i)
        fv_edge_of_corner: dict[int, int] = {}
        ne = 0
        for d in sorted(self._home):
            fv_edge_of_corner[d] = ne
            ne += 1
        # vertex-side rotations follow the primal rotations
        rotations = {v: [dart(fv_edge_of_corner[d], 0)
                         for d in self.rotation(v)] for v in self._anchor}
        # face-side rotations follow the face cycles; corner d lies on
        # the face traced from nxt[d], between rev(d) and nxt[d]
        for i, cyc in enumerate(cycles):
            rotations[offset + i] = [dart(fv_edge_of_corner[x ^ 1], 1)
                                     for x in reversed(cyc)]
        fv.write_rotations(range(ne), rotations)
        return fv, FvInfo(offset=offset,
                          face_of_dart=face_of,
                          fv_edge_of_corner=fv_edge_of_corner)

    # ------------------------------------------------------------------
    # inspection and canonical forms

    def check(self) -> None:
        """Assert internal consistency and Euler's formula."""
        for d, nd in self._nxt.items():
            assert self._prv[nd] == d, f"broken links at dart {d}"
            assert self.vertex_of_dart(nd) == self.vertex_of_dart(d)
        for v in self._anchor:
            rot = self.rotation(v)
            assert len(rot) == self._deg[v], f"degree mismatch at {v}"
            for d in rot:
                assert self.vertex_of_dart(d) == v
        count: dict[int, int] = {}
        for d in self._home:
            count[edge_of(d)] = count.get(edge_of(d), 0) + 1
        assert set(count) == set(self._edges)
        assert all(c == 2 for c in count.values())
        assert self.euler_ok(), "Euler's formula violated"

    def signature(self) -> tuple:
        """Canonical form of the embedded multigraph, invariant under
        vertex/edge relabeling and reflection.  Components are
        canonicalized separately and sorted."""
        comps = self.components()
        sigs = []
        for comp in comps:
            darts = [d for v in comp for d in self.rotation(v)]
            if not darts:
                sigs.append(((-1, -1),))
                continue
            best = None
            for start in darts:
                for mirrored in (False, True):
                    sig = self._component_signature(start, mirrored)
                    if best is None or sig < best:
                        best = sig
            sigs.append(best)
        return tuple(sorted(sigs))

    def _component_signature(self, start: int, mirrored: bool) -> tuple:
        step = self._prv if mirrored else self._nxt
        ids: dict[int, int] = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            for x in (step[d], d ^ 1):
                if x not in ids:
                    ids[x] = len(order)
                    order.append(x)
        return tuple((ids[step[d]], ids[d ^ 1]) for d in order)


@dataclass
class FvInfo:
    offset: int
    face_of_dart: dict[int, int]
    fv_edge_of_corner: dict[int, int]


def from_straight_line_drawing(
        coords: dict[int, tuple[float, float]],
        edges: Iterable[tuple[int, int, int]]) -> EmbeddedMultigraph:
    """Embedding from a planar straight-line drawing.

    ``edges`` yields (edge id, u, w); rotations are the incident edges
    sorted clockwise by angle.  Loops and parallel edges are not
    supported here (they have no straight-line drawing).
    """
    import math

    incident: dict[int, list[int]] = {v: [] for v in coords}
    elist = list(edges)
    for e, u, w in elist:
        if u == w:
            raise MalformedRotation(f"edge {e} is a loop: it has no "
                                    "straight-line drawing")
        if u not in coords or w not in coords:
            raise MalformedRotation(f"edge {e} touches a vertex with no "
                                    "coordinates")
        incident[u].append(dart(e, 0))
        incident[w].append(dart(e, 1))
    other = {}
    for e, u, w in elist:
        other[dart(e, 0)] = w
        other[dart(e, 1)] = u

    rotations: dict[int, list[tuple[int, int]]] = {}
    for v, ds in incident.items():
        x0, y0 = coords[v]

        def angle(d: int) -> float:
            x1, y1 = coords[other[d]]
            return -math.atan2(y1 - y0, x1 - x0)

        ds.sort(key=angle)
        rotations[v] = [(edge_of(d), d & 1) for d in ds]
    return EmbeddedMultigraph.build(list(coords), elist, rotations)


# ----------------------------------------------------------------------
# quasi-induced degree helper

def quasi_induced_degree(g: EmbeddedMultigraph, xs: set[int], v: int) -> int:
    """d_X(v): degree of ``v`` in the quasi-simplified subgraph induced
    by X union {v}.  Self-loops surviving the induction are ignored
    (they cannot carry length-2 paths)."""
    sub = g.induced(set(xs) | {v})
    sub.quasi_simplify()
    if not sub.has_vertex(v):
        return 0
    return sum(1 for d in sub.rotation(v)
               if sub.vertex_of_dart(d ^ 1) != v)


# ----------------------------------------------------------------------
# text format

def write_graph_text(g: EmbeddedMultigraph) -> str:
    """Serialize in the CLI graph format.

    Line 1: ``n m``.  Then ``m`` lines ``edge <id> <u> <w>`` and ``n``
    lines ``rot <v> <dart>...`` with darts written ``<edge id>:<0|1>``.
    """
    lines = [f"{g.n_vertices} {g.n_edges}"]
    for e in sorted(g.edge_ids()):
        u, w = g.endpoints(e)
        lines.append(f"edge {e} {u} {w}")
    for v in sorted(g.vertices()):
        darts = " ".join(f"{edge_of(d)}:{d & 1}" for d in g.rotation(v))
        lines.append(f"rot {v} {darts}".rstrip())
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> EmbeddedMultigraph:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)
            if ln.strip() and not ln.strip().startswith("#")]
    if not rows:
        raise GraphFormatError(1, "empty graph file")
    lineno, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise GraphFormatError(lineno, "expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(lineno, "header fields must be integers")
    if len(rows) != 1 + m + n:
        raise GraphFormatError(lineno,
                               f"expected {m} edge and {n} rot lines, "
                               f"found {len(rows) - 1}")
    edges = []
    vertices: list[int] = []
    rotations: dict[int, list[tuple[int, int]]] = {}
    for lineno, ln in rows[1:1 + m]:
        f = ln.split()
        if len(f) != 4 or f[0] != "edge":
            raise GraphFormatError(lineno, "expected 'edge <id> <u> <w>'")
        try:
            edges.append((int(f[1]), int(f[2]), int(f[3])))
        except ValueError:
            raise GraphFormatError(lineno, "edge fields must be integers")
    for lineno, ln in rows[1 + m:]:
        f = ln.split()
        if len(f) < 2 or f[0] != "rot":
            raise GraphFormatError(lineno, "expected 'rot <v> <darts>'")
        try:
            v = int(f[1])
        except ValueError:
            raise GraphFormatError(lineno, "vertex must be an integer")
        seq = []
        for tok in f[2:]:
            try:
                e, side = tok.split(":")
                seq.append((int(e), int(side)))
            except ValueError:
                raise GraphFormatError(lineno, f"bad dart token {tok!r}")
        if v in rotations:
            raise GraphFormatError(lineno, f"duplicate rotation for {v}")
        vertices.append(v)
        rotations[v] = seq
    try:
        return EmbeddedMultigraph.build(vertices, edges, rotations)
    except EmbedError as exc:
        raise GraphFormatError(rows[0][0], str(exc)) from exc
