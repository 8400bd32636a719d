"""SPQR-trees of biconnected plane multigraphs, maintained under edge
deletions and contractions.

The SPQR-tree of a biconnected graph with at least three edges is the
unique tree of its triconnected components.  Every node carries a
skeleton multigraph: a simple cycle (S), a bundle of at least three
parallel edges (P), or a simple triconnected graph (R).  Skeleton edges
are either real edges of the graph or virtual edges; each virtual edge
has a twin in the neighboring node's skeleton spanning the same
separation pair, and no two adjacent nodes have equal kind S or P.

Construction splits on separation records, which only need the faces.
A face walk of a biconnected graph meets each vertex at most once, so
a pair of vertices with k common faces lies on k(k - 1)/2 4-cycles
through two of those faces in the vertex-face graph.  The pair is a
separation pair exactly when that number exceeds the number of edges
joining them, because every such 4-cycle that does not bound a
quadrilateral vertex-face-graph face witnesses a separation and the
facial ones correspond one-to-one to the joining edges.  The same k is
the pair's number of separation classes.  Two faces with three or more
common vertices hold one S node, whose cycle those vertices are, and
every pair among them: the face pair is one S record, and every other
separation pair is a pair record with its k.  One listing that meets
each 4-cycle once finds them all in linear time.  It runs once per
decomposition: every split piece inherits the records of the graph
that lie inside it, less the split pair, read off an index of the
records by vertex.  At a split, searches from the record find the
separation classes and stop as soon as all classes but one are
complete, at an S record all its arcs but one; of the classes they
finished, a path becomes an S piece as it is and any other is copied
out into a fresh piece, the subgraph its vertices induce, and what is
left is cut free in the graph itself, so a split costs about its
smaller side, and an S node is cut whole in one round.  S and P pieces
stay edge lists until equal-kind neighbours are joined, so each fresh S
or P skeleton is written once, whole, one rotation per vertex.  No
skeleton goes through the validated ``EmbeddedMultigraph.build``:
every one is cut, induced or written from a plane graph, and
``SpqrTree.check`` re-checks them.

Edge deletions and contractions keep the tree in step with the graph.
The two are dual: deleting an edge of a plane graph contracts it in the
dual graph, whose SPQR-tree is the same tree with S and P swapped.  So
one update routine serves both, with S and P trading cases: an S
deletion or a P contraction breaks the block up, a P deletion or an S
contraction takes the edge out of its skeleton, and an R node's
surgery merges, across the edge's quad in the vertex-face graph, the
two faces beside a deleted edge or the two ends of a contracted one.
An R node keeps a separating-4-cycle detector over the vertex-face
graph of its skeleton, which reports the separation pairs an operation
creates, and their common faces.  The construction's decomposition then
runs on the skeleton the node keeps: the pieces that leave inherit the
reported pairs, so an update never counts pairs, and the node keeps its
detector.  Every equal-kind join a split makes is resolved once: the
pieces that leave join each other, the node that stays and its old
neighbours, and a group that holds an old node keeps one, into whose
skeleton the others are spliced by a 2-sum in place.  A node that an
update leaves with two edges dissolves: a neighbour takes its place,
and when its two neighbours are two S or two P nodes they join by the
same rule, through the same join.  So a join costs the fresh edges and
the smaller old sides and never rebuilds a skeleton, and an update
re-hangs only the nodes whose neighbour changed.  A node leaves the
tree without breaking up its block in one way only, handed over to a
neighbour.  Instrumentation counters record re-parented nodes that
stay and the edges in the non-largest pieces.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, repeat

from .embed import (
    EmbeddedMultigraph,
    LabelInUse,
    NotBiconnected,
    TooFewEdges,
    UnknownEdge,
    UnknownVertex,
    dart,
    edge_of,
    rev,
)
from .fourcycle import Detector
from .separators import merge_survivor


# ----------------------------------------------------------------------
# biconnectivity and separation pairs, both read off the faces

# per face its dart cycle, the face of each dart, per face its vertices
_Faces = tuple[list[list[int]], dict[int, int], list[list[int]]]


def _faces(g: EmbeddedMultigraph) -> _Faces:
    """The one face walk of g that a build reads, for its test and for
    its records: every face as its dart cycle, the face of each dart
    (:meth:`EmbeddedMultigraph.face_orbits`), and per face the vertices
    its walk meets, in walk order."""
    cycles, face_of = g.face_orbits()
    vertex_of = g.vertex_of_dart
    return cycles, face_of, [[vertex_of(x) for x in cyc] for cyc in cycles]


def is_biconnected_embedded(g: EmbeddedMultigraph,
                            faces: _Faces | None = None) -> bool:
    """Connected, loopless and without cut vertices; two vertices need
    at least two parallel edges.  The face walk decides, given as
    ``faces`` (:func:`_faces`) or made here.  In a connected plane graph
    the cut vertices are exactly the vertices that some face walk meets
    twice (Diestel, *Graph Theory*, Prop. 4.2.6), and a loop either
    makes a walk meet its vertex twice or bounds a face of one dart.
    That criterion already assumes the embedding plane, and then
    Euler's formula holds too: each component with edges has V - E + F
    = 2 over its face walks, and an isolated vertex, which no walk
    meets, counts 1, so a graph with edges is connected exactly when
    V - E + F = 2."""
    cycles, _, walks = faces or _faces(g)
    n = g.n_vertices
    if n < 2 or n - g.n_edges + len(cycles) != 2:
        return False
    return all(len(set(vs)) == len(vs) > 1 for vs in walks) and (
        n > 2 or g.n_edges >= 2)


def _edge_multiplicity(g: EmbeddedMultigraph) -> dict[tuple[int, int], int]:
    cnt: dict[tuple[int, int], int] = defaultdict(int)
    for e in g.edge_ids():
        u, w = g.endpoints(e)
        if u != w:
            cnt[(u, w) if u < w else (w, u)] += 1
    return cnt


class _SRecord(tuple):
    """An S record: the common vertices of two faces, at least three, in
    the order of one face's walk.  Hashed by identity, so that a set of
    records never hashes a whole cycle; no two S records hold the same
    vertices."""

    __slots__ = ()
    __hash__ = object.__hash__


def separation_records(g: EmbeddedMultigraph, faces: _Faces | None = None
                       ) -> dict[tuple[int, ...], int]:
    """The separation records of a biconnected embedded multigraph, each
    with its class count: every face pair with three or more common
    vertices as one S record (an :class:`_SRecord`) with its number of
    vertices, which is its number of arcs, and every other separation
    pair (a, b), a < b, with its number of common faces k.  The S
    record is exactly one S node of the SPQR-tree, and its vertices are
    the node's cycle.

    A face walk of a biconnected graph meets each vertex at most once,
    so a pair with k common faces lies on k(k - 1)/2 4-cycles of the
    vertex-face graph, and it is separating exactly when that exceeds
    its joining-edge count: the facial 4-cycles, an edge and the faces
    beside it, witness nothing.  Its classes are the sectors of a's
    rotation between the faces that hold b too, each a-b edge counting
    as one, so there are k of them.  A pair of an S record is left to
    the record when its common faces are the record's two: any two of
    its vertices but consecutive ones joined by an edge, with two
    classes.

    Each 4-cycle is listed once, as in Chiba and Nishizeki ("Arboricity
    and subgraph listing algorithms", SIAM J. Comput. 1985): vertices
    and faces are taken by decreasing degree, and each one lists the
    4-cycles through it, grouped by the node opposite it, before it is
    deleted: per vertex the common faces still there, per face the
    common vertices still there.  That is linear in the edges of a
    plane graph, so a hub or a long face is listed once, not once per
    pair it holds.  The degree order splits the 4-cycles of a record
    between the two views, so candidates are read off both and then
    checked on their smaller side.  A group of two that is a facial
    4-cycle names no candidate.
    - Face pairs: a face and a face grouped with two or more common
      vertices, two faces that are a vertex's group of two, and two
      faces consecutive around a vertex among three or more in its
      group (faces that hold two vertices with three or more common
      faces share a third vertex only if they are consecutive around
      either).  The common vertices of a face pair are those of its
      smaller face's walk that the other face holds.
    - Vertex pairs: a vertex and a vertex grouped with two or more
      common faces, two vertices that are a face's group of two, and
      two vertices consecutive in an S record (the theta's poles are
      seen only there), unless their 4-cycle with the record's faces
      is facial.  The common faces of a vertex pair are counted around
      its vertex of smaller degree.

    ``faces`` is g's face walk (:func:`_faces`), made here when not
    given: a build walks the faces once, for its test and for this.
    """
    cycles, face_of, walks = faces or _faces(g)
    rotation, vertex_of = g.rotation, g.vertex_of_dart
    corners: dict[int, list[int]] = defaultdict(list)
    facial: set[tuple[int, int, int, int]] = set()  # faces, then ends
    for f, (cyc, vs) in enumerate(zip(cycles, walks)):
        for x, u, w in zip(cyc, vs, vs[1:] + vs[:1]):
            corners[u].append(f)
            if not x & 1:   # each edge once, at its dart 0
                h = face_of[x ^ 1]
                if u > w:
                    u, w = w, u
                facial.add((f, h, u, w) if f < h else (h, f, u, w))

    def witness(f: int, h: int, u: int, w: int) -> tuple[int, int] | None:
        """The vertex pair of 4-cycle u f w h, or None if it is facial."""
        if u > w:
            u, w = w, u
        return None if ((f, h, u, w) if f < h else (h, f, u, w)) in facial \
            else (u, w)

    gone_vertices: set[int] = set()
    gone_faces: set[int] = set()

    def listed(x, near, far, gone_near, gone_far) -> dict[int, list[int]]:
        """Per node opposite ``x``, the nodes between them still there."""
        gone_far.add(x)
        groups: dict[int, list[int]] = {}
        for y in near[x]:
            if y not in gone_near:
                for z in far[y]:
                    if z not in gone_far:
                        groups.setdefault(z, []).append(y)
        return groups

    face_pairs: dict[tuple[int, int], None] = {}
    vertex_pairs: dict[tuple[int, int], None] = {}
    for _, is_vertex, x in sorted(
            [(len(fs), 1, v) for v, fs in corners.items()]
            + [(len(vs), 0, f) for f, vs in enumerate(walks)], reverse=True):
        if is_vertex:
            groups = listed(x, corners, walks, gone_faces, gone_vertices)
            at = None   # x's faces by rotation position, read once
            for z, fs in groups.items():
                if len(fs) == 2:
                    q = witness(*fs, x, z)
                    if q is not None:
                        vertex_pairs[q] = None
                        face_pairs[tuple(sorted(fs))] = None
                elif len(fs) > 2:
                    vertex_pairs[(x, z) if x < z else (z, x)] = None
                    if at is None:
                        at = {face_of[d]: i
                              for i, d in enumerate(rotation(x))}
                    fs.sort(key=at.__getitem__)
                    for f, h in zip(fs, fs[1:] + fs[:1]):
                        face_pairs[(f, h) if f < h else (h, f)] = None
        else:
            groups = listed(x, walks, corners, gone_vertices, gone_faces)
            for z, vs in groups.items():
                if len(vs) > 2:
                    face_pairs[(x, z) if x < z else (z, x)] = None
                elif len(vs) == 2:
                    q = witness(x, z, *vs)
                    if q is not None:
                        vertex_pairs[q] = None
                        face_pairs[(x, z) if x < z else (z, x)] = None
    holds = [set(vs) for vs in walks]
    s_faces = set()
    records: dict[tuple[int, ...], int] = {}
    for f, h in face_pairs:
        small, large = (f, h) if len(walks[f]) <= len(walks[h]) else (h, f)
        common = [v for v in walks[small] if v in holds[large]]
        if len(common) >= 3:
            s_faces.add((f, h))
            records[_SRecord(common)] = len(common)
            for u, w in zip(common, common[1:] + common[:1]):
                q = witness(f, h, u, w)
                if q is not None:
                    vertex_pairs[q] = None
    for a, b in vertex_pairs:
        u, w = (a, b) if len(corners[a]) <= len(corners[b]) else (b, a)
        fs = [f for f in corners[u] if w in holds[f]]
        k = len(fs)
        joins = sum(vertex_of(rev(d)) == w for d in rotation(u))
        if k * (k - 1) // 2 > joins and (
                k > 2 or tuple(sorted(fs)) not in s_faces):
            records[(a, b)] = k
    return records


def separation_pairs_embedded(
        g: EmbeddedMultigraph) -> dict[tuple[int, int], int]:
    """All separation pairs of a biconnected embedded multigraph, each
    with its number of separation classes: the pair records of
    :func:`separation_records`, and every two vertices of an S record
    not joined by an edge, with two classes.  Quadratic in the length
    of an S record, so builds read the records; ``SpqrTree.check`` and
    the tests read this."""
    records = separation_records(g)
    pairs = {q: k for q, k in records.items() if len(q) == 2}
    emult = _edge_multiplicity(g)
    for q in records:
        if len(q) > 2:
            for pair in combinations(sorted(q), 2):
                if pair not in pairs and pair not in emult:
                    pairs[pair] = 2
    return pairs


# ----------------------------------------------------------------------
# separation classes

def _split_classes(
        g: EmbeddedMultigraph, rec: tuple[int, ...], k: int
) -> tuple[list[int], list[tuple[set[int], list[int]]]]:
    """The ``k`` separation classes of g's edges at record ``rec``, all
    but one, which is explored as little as possible.

    At a pair (a, b) the classes are its k separation classes.  The c
    vertices of an S record cut g into c arcs, each joining two
    consecutive record vertices, and every arc is one class once the
    pairs at its ends are cut, so k = c.  A class is an edge joining two
    record vertices, a singleton, or the edges at the vertices of one
    component of g less the record.  One search starts at each
    neighbour off the record of every record vertex but the one of
    largest degree, the last of them on a tie, which reaches every
    class, since each touches the two ends of its arc: at a pair, the
    neighbours of its pole of smaller degree.  In every round each
    search scans one vertex off the record, and searches merge when
    they meet, so a search that runs dry has found a whole class.  They
    stop once k - 1 classes are complete, the singletons and the dry
    searches: every search still growing then belongs to the class left
    out.  If the last two classes finish in the same round, the largest
    is left out.  So a call scans at most the smaller pole's degree per
    round at a pair, and at an S record the record's degree sum less its
    largest, for as many rounds as its largest listed class has
    vertices; the record vertex of largest degree, a hub, is never
    read.  Returns the
    singleton edges and, per listed class, its edge set and its
    vertices off the record.
    """
    singles: list[int] = []
    owner: dict[int, int] = {}      # vertex -> search that claimed it
    up: list[int] = []              # union-find over searches
    todo: list[list[int]] = []      # per search: claimed, not yet scanned
    rots: dict[int, list[int]] = {}     # scanned vertex -> its rotation
    rotation, vertex_of = g.rotation, g.vertex_of_dart
    at = {v: i for i, v in enumerate(rec)}
    c = len(rec)
    degrees = list(map(g.degree, rec))
    skip = c - 1 - degrees[::-1].index(max(degrees))
    for i, v in enumerate(rec):
        if i == skip:
            continue
        # each edge along the record once: from its first end, or from
        # its second where the first is skipped
        after, before = (i + 1) % c, (i - 1) % c
        for d in rotation(v):
            w = vertex_of(rev(d))
            if w in at:
                j = at[w]
                if j == after or j == before == skip:
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

    roots = list(range(len(up)))
    growing = roots
    while growing and len(singles) + len(roots) - len(growing) < k - 1:
        for s in growing:
            if up[s] != s or not todo[s]:
                continue    # merged into another search this round
            v = todo[s].pop()
            rots[v] = rot = rotation(v)
            for d in rot:
                w = vertex_of(rev(d))
                if w in at:
                    continue
                t = owner.get(w)
                if t is None:
                    owner[w] = s
                    todo[s].append(w)
                    continue
                if t != s:
                    t = find(t)
                if t != s:
                    if len(todo[t]) > len(todo[s]):
                        s, t = t, s
                    up[t] = s
                    todo[s] += todo[t]
                    todo[t] = []
        roots = [s for s in roots if up[s] == s]
        growing = [s for s in roots if todo[s]]
    inner: dict[int, list[int]] = defaultdict(list)
    for v, s in owner.items():
        inner[find(s)].append(v)
    done = [({edge_of(d) for v in vs for d in rots[v]}, vs)
            for s, vs in inner.items() if not todo[s]]
    if not growing:
        done.remove(max(done, key=lambda c: len(c[0])))
    return singles, done


# ----------------------------------------------------------------------
# skeleton builders

def _class_run(g: EmbeddedMultigraph, v: int, cls: set[int]) -> list[int]:
    """The darts of ``cls`` at v, which occupy one circular run of v's
    rotation, in rotation order.  They are read off the class's edges,
    and the run is walked out from one of them, so a call costs the
    class and its run, never v's whole rotation."""
    endpoints, mine = g.endpoints, []
    for e in cls:
        u, w = endpoints(e)
        if u == v:
            mine.append(dart(e, 0))
        if w == v:
            mine.append(dart(e, 1))
    prev, nxt = g.rotation_prev, g.rotation_next
    first = mine[0]
    while (d := prev(first)) != mine[0] and edge_of(d) in cls:
        first = d
    run = [first]
    while (d := nxt(run[-1])) != first and edge_of(d) in cls:
        run.append(d)
    assert len(run) == len(mine), "class darts are not circularly consecutive"
    return run


def _piece_graph(g: EmbeddedMultigraph, cls: set[int],
                 a: int, b: int, vid: int) -> EmbeddedMultigraph:
    """The embedded split piece: one separation class plus a virtual
    edge ``vid`` joining a and b, right after the class's run at a and
    at b.  The class holds every edge at its inner vertices, so the
    subgraph induced by its vertices is the class plus the a-b edges
    outside it; a subgraph of a plane graph, closed by an edge inside
    one face, is plane, so nothing is re-validated."""
    piece = g.induced(dict.fromkeys(sorted(
        {a, b}.union(*(g.endpoints(e) for e in cls)))))
    for e in [e for e in piece.edge_ids() if e not in cls]:
        piece.delete_edge(e)
    piece.insert_edge(a, b, _class_run(g, a, cls)[-1],
                      _class_run(g, b, cls)[-1], eid=vid)
    return piece


def _is_simple_cycle_graph(g: EmbeddedMultigraph) -> bool:
    """Whether ``g`` is one cycle of three or more vertices: n >= 3,
    m = n, every degree 2, and a face of n darts.  Degree 2 everywhere
    makes ``g`` a union of cycles, a loop alone at its vertex among
    them, and a cycle's faces walk only its own darts, so a face of n
    darts is one cycle through every vertex."""
    n = g.n_vertices
    if n < 3 or g.n_edges != n or any(g.degree(v) != 2 for v in g.vertices()):
        return False
    return len(g.trace_face(g.any_dart(next(g.vertices())))) == n


# ----------------------------------------------------------------------
# tree structure

class SpqrNode:
    """One triconnected component: kind S, P or R with its skeleton.

    ``twin`` maps each virtual edge id of the skeleton to its twin slot
    ``(node, edge id)`` in the neighboring skeleton; one such pair of
    slots is one tree edge, and every skeleton edge not in ``twin`` is
    real.  ``parent`` orients the tree: the children of a node are its
    twin neighbors whose parent it is."""

    __slots__ = ("kind", "graph", "twin", "parent", "det", "cmap", "vvf")

    def __init__(self, kind: str, graph: EmbeddedMultigraph):
        self.kind = kind
        self.graph = graph
        self.twin: dict[int, tuple[SpqrNode, int]] = {}
        self.parent: SpqrNode | None = None
        self.det = None    # four-cycle detector over fv(skeleton), R only
        self.cmap = None   # skeleton dart -> vertex-face-graph edge id
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

    __slots__ = ("node_of_edge", "vids", "parent_changes", "split_edges",
                 "renames")

    def __init__(self, vids: "_Vids"):
        self.node_of_edge: dict[int, SpqrNode] = {}
        self.vids = vids
        self.parent_changes = 0
        self.split_edges = 0
        self.renames = 0


class SpqrTree:
    """The SPQR-tree of one biconnected block: a root pointer into a
    shared node universe.

    The tree edges are the twin maps of the nodes (``SpqrNode.twin``),
    walked from the root.  ``node_of_edge`` locates the skeleton holding
    each real edge.  ``parent_changes`` counts the parent pointers that
    update operations rewrite (:meth:`set_parent`), and only on nodes
    that stay in a tree: a node that leaves, handed over to a neighbour
    (:func:`_hand_over`) or broken up with its block, is reset without
    counting.  An R split rewrites the pointers of its fresh nodes, of
    the old nodes that took another's place in a join, of the old
    neighbours whose twin moved, of the children of nodes that left,
    and of the node it split when that no longer holds its parent link.
    A dissolve rewrites the pointer of the node that takes the
    dissolved node's place, unless that node was the top-most, and
    those of the children of the nodes that left.  So the count
    follows what leaves, not what stays.  ``split_edges``
    totals the skeleton edges placed in non-largest pieces of skeleton
    splits, and ``renames`` counts the node-vertex incidences that
    rename cascades rewrote.  All of them live in the shared registry,
    so handles over blocks of the same origin report combined
    counters.
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

    @property
    def renames(self) -> int:
        return self.shared.renames

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
                assert all(k == 1 for k in _edge_multiplicity(g).values())
                assert all(g.degree(v) >= 3 for v in g.vertices()), \
                    "R skeleton vertex of degree < 3"
                assert is_biconnected_embedded(g)
                assert not separation_pairs_embedded(g), \
                    "R skeleton has a separation pair"
                _check_r_sync(x)
                x.det.check()
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


# ----------------------------------------------------------------------
# R-node machinery: a four-cycle detector over the vertex-face graph

def _attach_r(x: SpqrNode) -> None:
    """Equip an R node with its split-detection machinery: a
    separating-4-cycle detector over the vertex-face graph of the
    skeleton, plus the corner map and the label map the surgeries keep
    in sync.  Every corner edge runs from its vertex (dart 0) to its
    face, so a skeleton vertex's label is the vertex end of any of its
    corner edges.  The skeleton is triconnected, so no 4-cycle of its
    radial graph separates yet: the pairs the detector logs when built
    are dropped unwalked, and ``SpqrTree.check()`` asserts the same fact
    as the skeleton's lack of separation pairs."""
    fv, info = x.graph.vertex_face_graph()
    x.det = Detector(fv)
    x.det.reset_op_log()
    x.cmap = info.fv_edge_of_corner
    x.vvf = {v: v for v in x.graph.vertices()}


def _check_r_sync(x: SpqrNode) -> None:
    """Assert that the maintained vertex-face graph, the corner map and
    the label map of an R node agree with its skeleton: in particular,
    that the faces of the vertex-face graph are the quads of the
    skeleton edges (:func:`_fv_quad`), one each."""
    g = x.graph
    fv = x.det.tree.root.graph
    assert set(x.cmap) == set(g.corners())
    assert sorted(x.cmap.values()) == sorted(fv.edge_ids())
    assert sorted(x.vvf.values()) == sorted(g.vertices())
    for v in g.vertices():
        prim = [x.cmap[d] for d in g.rotation(v)]
        fl = fv.endpoints(prim[0])[0]
        assert x.vvf[fl] == v, "label map disagrees with the corners"
        rot = [edge_of(d) for d in fv.rotation(fl)]
        assert len(rot) == len(prim)
        i = rot.index(prim[0])
        assert rot[i:] + rot[:i] == prim, "rotation mismatch at a vertex"
        for e in prim:
            a, b = fv.endpoints(e)
            assert a == fl and b not in x.vvf, "corner edge misoriented"
    # a face is one dart cycle, named here by its smallest dart
    quads = {min(_fv_quad(x, e)) for e in g.edge_ids()}
    faces = fv.faces()
    assert all(len(f) == 4 for f in faces), \
        "non-quad face in a maintained radial graph"
    assert len(quads) == g.n_edges == len(faces), "quads not one per face"


def _fv_quad(x: SpqrNode, e: int) -> list[int]:
    """The face of the maintained vertex-face graph that is the quad of
    skeleton edge ``e``, as its dart cycle: the face traced from the
    vertex end (dart 0) of the corner edge of ``e``'s dart 0.  Its edges
    must be, in walk order, the corners that flank ``e`` at its dart 0,
    before its dart 1, at its dart 1 and before its dart 0.  So darts 0
    and 2 leave the ends of ``e``, in the order of ``e``'s darts, and
    darts 1 and 3 leave the faces beside it."""
    g, fv, cmap = x.graph, x.det.tree.root.graph, x.cmap
    d0, d1 = dart(e, 0), dart(e, 1)
    want = [cmap[d0], cmap[g.rotation_prev(d1)], cmap[d1],
            cmap[g.rotation_prev(d0)]]
    f = fv.trace_face(dart(want[0], 0))
    if [edge_of(z) for z in f] != want:
        raise AssertionError(f"no quad face for skeleton edge {e}")
    u, w = g.endpoints(e)
    assert [x.vvf.get(fv.vertex_of_dart(z)) for z in f] == [u, None, w, None]
    return f


def _cmap_merge(x: SpqrNode, keep_dart: int, gone_dart: int) -> None:
    """Two corners merged in the vertex-face graph, whose edges became
    parallel and lost one of the two; the one the graph still holds
    now belongs to ``keep_dart``.  A pendant's one corner edge and the
    two at its other end become three parallel edges, and one stays."""
    kept, gone = x.cmap[keep_dart], x.cmap.pop(gone_dart)
    if not x.det.tree.root.graph.has_edge(kept):
        kept = gone
    x.cmap[keep_dart] = kept


def _r_remove(x: SpqrNode, e: int, keep: int | None = None) -> None:
    """Delete skeleton edge ``e`` of R node ``x`` (not a bridge), or
    with ``keep`` contract it (the only edge joining its ends) into
    ``keep``, and mirror the change in the vertex-face graph by one
    merge across ``e``'s quad face (:meth:`Detector.merge_across`): a
    deletion merges its two face corners, the faces beside ``e``, and a
    contraction its two vertex corners, the ends of ``e``.  Either way
    the four corners flanking ``e`` pair up, on each side of ``e`` for a
    deletion and across it for a contraction, and of each pair
    ``_cmap_merge`` maps the pair to whichever edge the vertex-face
    graph kept.  The detector merges in place and inserts nothing.
    The quad has four distinct corners, and the corner edges at the
    merge's survivor stay, unless ``e`` is a bridge that ``_r_cut``
    contracts in a partly cut skeleton: then the faces beside it are
    one, the quad repeats that face, and the detector quasi-simplifies
    after the merge, keeping the larger id of each parallel pair.  A
    pendant edge is such a bridge, with quad z, f, w, f for its pendant
    end z, which merges into its other end w."""
    g, fv = x.graph, x.det.tree.root.graph
    d0, d1 = dart(e, 0), dart(e, 1)
    rp0, rp1 = g.rotation_prev(d0), g.rotation_prev(d1)
    contract = int(keep is not None)
    # the ends of e for a contraction, the faces beside it for a deletion
    f = _fv_quad(x, e)[1 - contract::2]
    ends = [fv.vertex_of_dart(z) for z in f]
    merged = x.det.merge_across(*ends, *map(fv.rotation_prev, f))
    pairs = [(rp0, dart(e, contract)), (rp1, dart(e, 1 - contract))]
    if rp1 == d1:  # a pendant second end: its one corner maps first
        pairs.reverse()
    for keep_dart, gone_dart in pairs:
        _cmap_merge(x, keep_dart, gone_dart)
    if not contract:
        g.delete_edge(e)
        return
    for label in ends:
        del x.vvf[label]
    x.vvf[merged] = keep
    g.contract_edge(e, keep=keep)


def _r_pairs(x: SpqrNode) -> dict[tuple[int, int], int]:
    """The separation pairs of R node ``x``'s skeleton, each with its
    class count, read off the separating 4-cycles its detector found
    since its last reset: a cycle's two skeleton vertices are its
    diagonal or its two middle vertices, and its other two are faces
    that hold both.  A pair's count is its number of common faces, which
    are its cycles' faces and the faces beside its joining edges, read
    through the corner map at the darts of its vertex of smaller degree
    to the other, so that a hub's rotation is never read: any other
    common face lies on a separating cycle with each second one."""
    faces: dict[tuple[int, int], set[int]] = defaultdict(set)
    for (a, b), m1, _lk1, m2, _lk2 in x.det.separating_now():
        if a in x.vvf:
            assert b in x.vvf and m1 not in x.vvf and m2 not in x.vvf
            p, q, f1, f2 = x.vvf[a], x.vvf[b], m1, m2
        else:
            assert m1 in x.vvf and m2 in x.vvf
            p, q, f1, f2 = x.vvf[m1], x.vvf[m2], a, b
        faces[(p, q) if p < q else (q, p)].update((f1, f2))
    g, fv = x.graph, x.det.tree.root.graph
    for (p, q), fs in faces.items():
        if g.degree(p) > g.degree(q):
            p, q = q, p
        for d in g.rotation(p):
            if g.vertex_of_dart(rev(d)) == q:
                for c in (x.cmap[d], x.cmap[g.rotation_prev(d)]):
                    u, w = fv.endpoints(c)
                    fs.add(w if u in x.vvf else u)
    return {pair: len(fs) for pair, fs in faces.items()}


def _r_cut(x: SpqrNode, gone: set[int], a: int, b: int) -> int:
    """Remove the edges ``gone``, the separation classes at (a, b) that
    leave R node ``x``, from its skeleton through the synchronized
    surgeries, down to one edge joining a and b; return that edge.

    Edges joining a and b wait until the end, and all but one are
    deleted.  Every other edge has an end inside its class: it is
    deleted if it has a parallel copy and contracted otherwise, into a
    or b when it touches them, else into its end with more skeleton
    edges (:func:`merge_survivor`), which keeps a pendant end's
    neighbour.  The merge rewrites the retiring end's darts, so a
    contraction inside the class pays for its smaller end.  Every step
    removes an edge of the class and scans only the class, so the
    skeleton work is that of the classes that leave.  Every step is
    also one detector op, a merge across the edge's quad in the
    vertex-face graph (:func:`_r_remove`).  Every merge is done in
    place, with no diagonal (see :meth:`Detector.merge_across`); most
    retire a corner of degree 2, a skeleton vertex of degree 2 or the
    face between two parallel edges, which leaves nothing to splice.  A
    contraction of an edge that the cut has left a bridge, a pendant
    edge among them, has the same face on both sides, and its merge is
    quasi-simplified after it."""
    g = x.graph
    across = []
    for e in sorted(gone):
        u, w = g.endpoints(e)
        if {u, w} == {a, b}:
            across.append(e)
            continue
        z, far = (w, u) if u in (a, b) else (u, w)
        # a dart at z is a copy of e when its far end is e's other end:
        # R skeletons carry no loops
        if sum(g.vertex_of_dart(rev(d)) == far for d in g.rotation(z)) >= 2:
            _r_remove(x, e)
        else:
            _r_remove(x, e, u if u in (a, b) else w if w in (a, b)
                      else merge_survivor(g, u, w))
    for e in across[1:]:
        _r_remove(x, e)
    return across[0]


class _PairIndex:
    """The separation records of one working graph with their class
    counts, indexed by vertex and sorted: the pairs first, then the S
    records, each kind by its sorted vertices.  A round of
    :func:`_decompose` takes the first record and then touches only the
    records at the vertices it cuts.  Records are only ever removed, so
    the first one left is never before the last one taken, and one pass
    over the sorted records serves every round.  A pair's count is its
    number of common faces, and it holds for as long as the pair does:
    a cut at another record removes no face that holds a surviving
    pair, it only shortens the two faces beside the cut, and a piece
    copied out keeps the faces of its pairs the same way.  An S record
    keeps its cycle likewise: a cut elsewhere leaves all its vertices on
    one side, and at most turns one of its arcs into one virtual edge.
    Its count is its number of arcs, each of them one class by the time
    it is taken: a pair at the ends of an arc with several classes is
    taken before it, and leaves one virtual edge there, in the graph or
    in the piece the record moves to."""

    __slots__ = ("at", "count", "order", "next", "n")

    def __init__(self, records: dict[tuple[int, ...], int]):
        self.at: dict[int, set[tuple[int, ...]]] = defaultdict(set)
        for q in records:
            for v in q:
                self.at[v].add(q)
        self.count = records
        self.order = (sorted(q for q in records if len(q) == 2)
                      + sorted((q for q in records if len(q) > 2), key=sorted))
        self.next = 0
        self.n = len(records)

    def __bool__(self) -> bool:
        return self.n > 0

    def pop(self) -> tuple[tuple[int, ...], int]:
        """Remove the first record, skipping those dropped, and return
        it with its class count."""
        while True:
            q = self.order[self.next]
            self.next += 1
            if q in self.at.get(q[0], ()):
                for v in q:
                    self.at[v].discard(q)
                self.n -= 1
                return q, self.count[q]

    def inside(self, inner: list[int],
               verts: set[int]) -> dict[tuple[int, ...], int]:
        """The records with a vertex in ``inner`` and all of them in
        ``verts``, with their class counts."""
        found = {q for v in inner for q in self.at.get(v, ())}
        return {q: self.count[q] for q in found if verts.issuperset(q)}

    def drop_at(self, cut: set[int]) -> None:
        """Drop every record with a vertex in ``cut``."""
        for v in cut:
            for q in self.at.pop(v, ()):
                for u in q:
                    if u != v and u in self.at:
                        self.at[u].discard(q)
                self.n -= 1


def _leave(g: EmbeddedMultigraph, a: int, b: int, singles: list[int],
           done: list[tuple[set[int], list[int]]], vids, pieces: list[tuple],
           index: _PairIndex, sizes: list[int]) -> int:
    """Append the pieces of the classes listed at (a, b), a < b: a path
    class as an S piece, any other class copied out and decomposed
    with the records inside it, each closed by a fresh virtual edge
    a-b; several classes also make a P hub of the singletons and one
    virtual edge per class.  Returns the virtual edge a-b that stands
    for them all in what is left: that of the lone class or a fresh one
    of the hub."""
    hub = [(e, a, b) for e in singles]
    for cls, inner in done:
        vid = next(vids)
        hub.append((vid, a, b))
        if all(g.degree(v) == 2 for v in inner):
            pieces.append(("S", [(e, *g.endpoints(e)) for e in cls]
                           + [(vid, a, b)]))
        else:
            _decompose(_piece_graph(g, cls, a, b, vid),
                       index.inside(inner, {a, b, *inner}), vids, pieces)
        sizes.append(len(cls))
    if len(hub) == 1:
        return hub[0][0]
    vid = next(vids)
    hub.append((vid, a, b))
    pieces.append(("P", hub))
    sizes.append(len(singles))
    return vid


def _decompose(g: EmbeddedMultigraph, records: dict[tuple[int, ...], int],
               vids, pieces: list[tuple],
               r: SpqrNode | None = None) -> list[int]:
    """Append the S, P and R pieces of g to ``pieces``, drawing virtual
    ids from ``vids``.  ``records`` maps the separation records of g
    (:func:`separation_records`) to their class counts; g is consumed.
    Returns the sizes of the top-level split: the edge count of each
    class that leaves and of each hub's joining edges, then that of
    what is left.

    A piece is ``(kind, body)``: ``body`` is the skeleton graph of an R
    piece but only the ``(eid, u, w)`` edge list of an S or P piece,
    which :func:`_merge_same_kind` assembles once per node it makes, or
    splices into the old node its join keeps.

    Each round takes the first record that a :class:`_PairIndex` keeps
    at hand, with its class count, so the searches of
    :func:`_split_classes` stop at the last class they list, and
    :func:`_leave` makes the pieces of the listed classes.  At a pair
    (a, b) they are all classes but one, and several make a P hub.  At
    an S record they are all arcs but one, each one class: a lone edge
    stays an edge of the S piece, and any other arc leaves closed by a
    virtual edge that the S piece holds too.  The S piece is closed by a
    fresh virtual edge across the arc that stays, so an S node is cut in
    one round, whatever its length.  What is left out is cut free in g
    itself and closed the same way, the records at the cut vertices are
    dropped (the inner vertices of the listed classes, and the record
    vertices off the arc that stays), and the loop goes on with it.  No
    piece needs a fresh count: by the split-component lemma of Hopcroft
    and Tarjan ("Dividing a graph into triconnected components", SIAM J.
    Comput. 1973), the separation pairs of a split piece are exactly
    the pairs of the graph with both ends in the piece, other than
    (a, b), and so its S records are the graph's records inside it.

    With ``r``, the R node whose skeleton g is, the records are the
    pairs its detector reported, never an S record, and the unlisted
    class stays in ``r``: the leaving classes are cut through the R
    surgeries of :func:`_r_cut`, which keep its detector in step, the
    edge left across the pair takes the fresh virtual id, and ``r``
    takes the kind of what is left instead of a new piece being
    appended.  A split then costs the pieces that leave: the fresh ids
    that ``r`` keeps are found in the pieces that hold their twins, so
    ``r``'s skeleton is never scanned for them.
    """
    index = _PairIndex(records)
    sizes: list[int] = []
    while True:
        kind = ("P" if g.n_vertices == 2
                else "S" if _is_simple_cycle_graph(g)
                else "R" if not index else None)
        if kind is not None:
            sizes.append(g.n_edges)
            if r is not None:
                r.kind = kind
            elif kind == "R":
                pieces.append((kind, g))
            else:
                pieces.append((kind, [(e, *g.endpoints(e))
                                      for e in g.edge_ids()]))
            return sizes
        rec, k = index.pop()
        singles, done = _split_classes(g, rec, k)
        gone = set(singles).union(*(cls for cls, _ in done))
        cut = {v for _, inner in done for v in inner}
        if len(rec) == 2:
            assert done or len(singles) >= 2, \
                "singleton class in a two-class split"
            a, b = rec
            vid = _leave(g, a, b, singles, done, vids, pieces, index, sizes)
        else:
            assert r is None, "an R split got an S record"
            on = set(rec)
            cycle = [(e, *g.endpoints(e)) for e in singles]
            sizes += [1] * len(singles)
            for cls, inner in done:
                u, w = sorted({v for e in cls for v in g.endpoints(e)
                               if v in on})
                cycle.append((_leave(g, u, w, [], [(cls, inner)], vids,
                                     pieces, index, sizes), u, w))
            # every record vertex ends two arcs: those of the arc that
            # stays end only one listed arc
            ends = Counter(v for _, u, w in cycle for v in (u, w))
            a, b = sorted(v for v in rec if ends[v] == 1)
            cut |= on - {a, b}
            vid = next(vids)
            pieces.append(("S", [*cycle, (vid, a, b)]))
        if r is not None:
            _rekey(r, _r_cut(r, gone, a, b), vid)
        else:
            # what stays gets its virtual edge where _piece_graph puts
            # it: right after the last dart of its run at a and at b,
            # which is right before the run of what leaves
            after = [g.rotation_prev(_class_run(g, v, gone)[0])
                     for v in (a, b)]
            for e in gone:
                g.delete_edge(e)
            for v in cut:
                g.delete_vertex(v)
            g.insert_edge(a, b, *after, eid=vid)
        index.drop_at(cut)


def _merge_same_kind(shared: _Shared, pieces: list[tuple], vid_base: int,
                     r: SpqrNode | None) -> tuple[list[SpqrNode], tuple]:
    """The fresh nodes of the pieces of :func:`_decompose`, in piece
    order, with every equal-kind join made once, every twin pair the
    pieces draw linked and every real edge indexed; called by
    :func:`_mini_nodes`, for a build with no ``r`` and for a split of R
    node ``r``.  Virtual ids at or above ``vid_base`` were drawn by this
    decomposition, so each names one twin pair: two pieces, or a piece
    and ``r``, which holds it as an edge with no twin yet.  Every other
    edge of a piece is real or one that ``r`` hands over, with its twin
    in an old neighbour of ``r``.

    Two S or two P members that share an edge join: two pieces, a piece
    and ``r`` once :func:`_decompose` has left ``r`` S or P (only then
    are ``r``'s twins read), a piece and the old node holding the twin
    of an edge ``r`` handed it, and ``r`` and an old neighbour.  The
    shared edges disappear, and each group becomes one node.  A group of
    pieces only is one fresh skeleton, written whole into an empty graph
    in edge-id order (:func:`_splice`).  In a group with old nodes the
    :func:`_survivor` lives on, ``r`` on a tie, and :func:`_join`
    splices the fresh edges and the other old members into it once, so
    a join costs the fresh edges plus the old nodes that leave, none
    larger than the one that stays.  An R piece never joins.

    Besides the fresh nodes, returns for :func:`_split_r_node` the node
    pairs that fresh ids link, the old neighbours of ``r`` whose twin
    moved, each with its new node, the children of the old nodes that
    left, each with the node that took their place, and the node each
    old member of a group ended in."""
    n = len(pieces)
    up = list(range(n))     # union-find over the pieces, then old nodes
    old: list[SpqrNode] = []
    at: dict[SpqrNode, int] = {}
    seams: dict[SpqrNode, list[int]] = defaultdict(list)

    def find(i: int) -> int:
        while up[i] != i:
            up[i] = up[up[i]]
            i = up[i]
        return i

    def member(nd: SpqrNode) -> int:
        if nd not in at:
            at[nd] = len(up)
            up.append(len(up))
            old.append(nd)
        return at[nd]

    ids = [list(body.edge_ids()) if kind == "R" else [t[0] for t in body]
           for kind, body in pieces]
    holders: dict[int, list[int]] = defaultdict(list)
    handed: list[tuple[int, int]] = []  # (piece, edge r hands it)
    for i, es in enumerate(ids):
        for e in es:
            if e >= vid_base:
                holders[e].append(i)
            elif r is not None and e in r.twin:
                handed.append((i, e))
    inner: set[int] = set()     # the seams among the pieces' edges
    for vid, held in holders.items():
        other = pieces[held[1]][0] if len(held) == 2 else r.kind
        if pieces[held[0]][0] == other != "R":
            inner.add(vid)
            if len(held) == 1:
                seams[r].append(vid)
            up[find(held[0])] = find(held[1] if len(held) == 2
                                     else member(r))
    for i, e in handed:
        if r.twin[e][0].kind == pieces[i][0] != "R":
            inner.add(e)
            m, f = r.unlink(e)
            seams[m].append(f)
            up[find(i)] = find(member(m))
    if r is not None and r.kind != "R":
        for e, (m, f) in list(r.twin.items()):
            if m.kind == r.kind and r.graph.has_edge(e):
                r.unlink(e)
                seams[r].append(e)
                seams[m].append(f)
                up[find(member(r))] = find(member(m))

    groups: dict[int, list[int]] = defaultdict(list)
    for i in range(len(up)):
        groups[find(i)].append(i)
    node_of: list[SpqrNode | None] = [None] * len(up)
    nodes: list[SpqrNode] = []
    joins = []

    for group in groups.values():
        if group[-1] >= n:      # the old members come last
            olds = [old[i - n] for i in group if i >= n]
            nd = _survivor(olds, r)
            joins.append((nd, olds, [i for i in group if i < n]))
        else:
            kind, body = pieces[group[0]]
            if kind != "R":
                body = EmbeddedMultigraph()
                _splice(kind, body, [], sorted(t for i in group
                                               for t in pieces[i][1]
                                               if t[0] not in inner))
            nd = SpqrNode(kind, body)
            nodes.append(nd)
        for i in group:
            node_of[i] = nd
    into = {m: nd for nd, olds, _ in joins for m in olds}
    links = []
    for vid in sorted(holders.keys() - inner):
        held = [node_of[i] for i in holders[vid]]
        if len(held) == 1:
            assert r is not None and r.graph.has_edge(vid) \
                and vid not in r.twin, f"virtual edge {vid} not kept by r"
            held.append(r)
        held[0].link(vid, held[1], vid)
        links.append((held[0], into.get(held[1], held[1])))
    kids = []
    for nd, olds, fresh in joins:
        edges = [t for i in fresh for t in pieces[i][1] if t[0] not in inner]
        # an old child of r that joined a piece is linked to r by a fresh
        # id now, and hangs where the links say
        kids += [(c, nd) for c in _join(shared, nd, olds, seams, edges)
                 if c not in into]
    for i, es in enumerate(ids):
        for e in es:
            if e < vid_base:    # real, or handed over and unindexed next
                shared.node_of_edge[e] = node_of[i]
    moved = []
    for i, e in handed:
        del shared.node_of_edge[e]
        if e not in inner:
            moved.append((r.twin[e][0], node_of[i]))
            r.move_twin(e, node_of[i])
    return nodes, (links, moved, kids, into)


def _mini_nodes(shared: _Shared, sg: EmbeddedMultigraph,
                records: dict[tuple[int, ...], int],
                r: SpqrNode | None = None
                ) -> tuple[list[SpqrNode], list[int], tuple]:
    """Decompose an embedded graph with separation records ``records``
    into SPQR nodes, drawing virtual ids from the shared source; called
    by :func:`build_spqr`, and by :func:`_split_r_node` with ``r``, the
    R node whose skeleton ``sg`` is (see :func:`_decompose`).  ``sg`` is
    consumed.  The pieces of :func:`_decompose` become nodes in
    :func:`_merge_same_kind`, which joins them with each other and with
    ``r``'s old neighbours, moves the twins ``r`` hands over and indexes
    the real edges.  Fresh R nodes get their machinery.  Returns the
    fresh nodes, the top-level piece sizes and what the split
    re-hangs."""
    vid_base = shared.vids.peek()
    pieces: list[tuple] = []
    sizes = _decompose(sg, records, shared.vids, pieces, r)
    nodes, rehang = _merge_same_kind(shared, pieces, vid_base, r)
    for nd in nodes:
        if nd.kind == "R":
            _attach_r(nd)
    return nodes, sizes, rehang


def build_spqr(g: EmbeddedMultigraph) -> SpqrTree:
    """The SPQR-tree of a biconnected embedded multigraph with at least
    three edges.  The input is copied; skeletons are fresh graphs."""
    if g.n_edges < 3:
        raise TooFewEdges("an SPQR-tree needs at least 3 edges")
    faces = _faces(g)
    if not is_biconnected_embedded(g, faces):
        raise NotBiconnected("SPQR-tree of a non-biconnected graph")
    shared = _Shared(_Vids(max(g.edge_ids()) + 1))
    nodes, _, _ = _mini_nodes(shared, g.copy(),
                              separation_records(g, faces))
    tree = SpqrTree(nodes[0], shared)
    tree._reroot(nodes[0])
    return tree


# ----------------------------------------------------------------------
# joining S and P nodes, and splitting a maintained R node
#
# Two adjacent S nodes join into one cycle, and two adjacent P nodes
# into one bundle, by a 2-sum at the edges they share.  Every such join
# goes through _join, with the node that lives on picked by _survivor:
# the joins of an R split, which _merge_same_kind groups, and the join
# of the two S or two P neighbours that a dissolved two-edge node leaves
# adjacent (_dissolve_two_edge).  _splice writes every S and P
# skeleton, a fresh one into an empty graph.  An R node's skeleton is
# decomposed in place by _decompose, as in construction, and
# _split_r_node then re-hangs what changed.

def _survivor(olds: list[SpqrNode], r: SpqrNode | None = None) -> SpqrNode:
    """The node that lives on when the equal-kind S or P nodes ``olds``
    join: the one with most skeleton edges, on a tie ``r`` (the R node
    a split left S or P), then the one holding the smallest real edge
    id, then the one with the smallest sorted vertex labels.  So no
    virtual id decides, save between P nodes of one pair with no real
    edge and as many edges, which a contraction can bring together:
    the first of them in ``olds`` lives on."""
    most, tied = -1, []
    for m in olds:
        k = m.graph.n_edges
        if k > most:
            most, tied = k, [m]
        elif k == most:
            tied.append(m)
    if r in tied:
        return r
    return tied[0] if len(tied) == 1 else min(tied, key=lambda m: (
        min(m.real_ids(), default=float("inf")), sorted(m.graph.vertices())))


def _join(shared: _Shared, nd: SpqrNode, olds: list[SpqrNode],
          seams: dict[SpqrNode, list[int]],
          edges: list[tuple[int, int, int]]) -> list[SpqrNode]:
    """Join the equal-kind S or P nodes ``olds`` into ``nd``, one of
    them, by a 2-sum in place: each loses its ``seams``, the edges it
    was joined at, already unlinked, and :func:`_splice` puts the fresh
    ``edges`` and the other skeletons into ``nd``'s, which is never
    rebuilt.  The others are handed over to ``nd``
    (:func:`_hand_over`); returns the nodes that were their children,
    which the caller re-hangs."""
    leave = [m for m in olds if m is not nd]
    for m in leave:
        cut = set(seams[m])
        edges += [(e, *m.graph.endpoints(e))
                  for e in m.graph.edge_ids() if e not in cut]
    _splice(nd.kind, nd.graph, seams[nd], edges)
    return [c for m in leave for c in _hand_over(shared, nd, m, seams[m])]


def _hand_over(shared: _Shared, keep: SpqrNode, loser: SpqrNode,
               gone: list[int]) -> list[SpqrNode]:
    """Move node ``loser``'s twin links and real edges to ``keep`` once
    its skeleton, less the unlinked edges ``gone``, has gone into
    ``keep``'s, and reset its parent pointer, which is not a parent
    change; return the nodes that were its children.  The one way a node
    leaves the tree without breaking up its block: in :func:`_join`, for
    every node a join does not keep, and in :func:`_dissolve_two_edge`,
    for the dissolved node."""
    kids = []
    gone = set(gone)
    for e in loser.graph.edge_ids():
        if e in loser.twin:
            c = loser.twin[e][0]
            if c.parent is loser:
                kids.append(c)
            loser.move_twin(e, keep)
        elif e not in gone:
            shared.node_of_edge[e] = keep
    loser.parent = None
    return kids


def _splice(kind: str, g: EmbeddedMultigraph, cut: list[int],
            edges: list[tuple[int, int, int]]) -> None:
    """Write S or P skeleton g: with ``cut``, a 2-sum in place with
    equal-kind skeletons joined to g at those edges, which go; with no
    ``cut``, a fresh skeleton into an empty g, written whole, one
    rotation per vertex (:meth:`EmbeddedMultigraph.write_rotations`).
    ``edges``, the other skeletons' edges as (eid, u, w) less the edges
    they were joined at, come in with their ids and orientations, so a
    splice costs them and not g.  A cycle takes the new vertices and
    edges anywhere, since every vertex of a cycle has one rotation; a
    fresh one asserts that it is a cycle, and starts each rotation at
    the first edge given there.  A bundle takes every new edge right
    after the anchor, its first cut edge, at its smaller pole and right
    before it at the other, where the rotation runs in reverse, so it
    stays plane; a fresh bundle runs in the order given at its smaller
    pole and in reverse after the first edge at the other, both
    rotations starting at the first edge.  Nothing reads the order of a
    bundle's rotation."""
    if not cut:
        rotations: dict[int, list[int]] = {}
        for e, u, w in edges:
            rotations.setdefault(u, []).append(dart(e, 0))
            rotations.setdefault(w, []).append(dart(e, 1))
        if kind == "P":    # in reverse after the first at the larger pole
            b = max(rotations)
            rotations[b][1:] = rotations[b][:0:-1]
        else:
            assert all(len(ds) == 2 for ds in rotations.values()), \
                "not a cycle"
        for v in rotations:
            g.add_vertex(v)
        g.write_rotations([e for e, _, _ in edges], rotations)
        return
    if kind == "P":
        d = min(dart(cut[0], 0), dart(cut[0], 1), key=g.vertex_of_dart)
        a, b = g.vertex_of_dart(d), g.vertex_of_dart(rev(d))
        after = {a: d, b: g.rotation_prev(rev(d))}
        for e, u, w in edges:
            g.insert_edge(u, w, after[u], after[w], eid=e)
            # the next edge goes after this one at a, before it at b
            after[a] = dart(e, 0 if u == a else 1)
    for e in cut:
        g.delete_edge(e)
    if kind == "S":
        for e, u, w in edges:
            for v in (u, w):
                if not g.has_vertex(v):
                    g.add_vertex(v)
            g.insert_edge(u, w, g.any_dart(u), g.any_dart(w), eid=e)


def _split_r_node(tree: SpqrTree, x: SpqrNode) -> None:
    """After a surgery on R node ``x``, split its skeleton at the
    separation pairs its detector reports: :func:`_decompose` runs on
    the skeleton ``x`` keeps, the pieces that leave inherit those pairs
    instead of a recount, and :func:`_merge_same_kind` makes every
    equal-kind join once, so ``x`` lives on unless it ends S or P beside
    a larger old neighbour.

    Parents are then set only where a neighbour changed, so a split
    costs what leaves, not what ``x`` keeps.  The anchor is the node
    that now holds ``x``'s parent link: the node that took the parent's
    place in a join, or else the node the link moved to, or else ``x``
    or the node that took its place; it hangs on ``x``'s parent (none at
    the root).  A walk from it over the links of the fresh ids hangs the
    fresh nodes, the nodes a join kept and ``x``.  An old neighbour whose
    twin moved hangs on the node it moved to, and a child of a node that
    left on the node that took its place."""
    shared = tree.shared
    pairs = _r_pairs(x)
    if not pairs:
        x.det.reset_op_log()
        return
    up = None if tree._root is x else x.parent
    # the parent of x's parent, read before a join hands its place over
    top = None if up is None or tree._root is up else up.parent
    nodes, sizes, (links, moved, kids, into) = _mini_nodes(
        shared, x.graph, pairs, x)
    if x.kind == "R":
        x.det.reset_op_log()
    else:
        x.det = x.cmap = x.vvf = None
    shared.split_edges += sum(sizes) - max(sizes)

    anchor, above = into.get(x, x), up
    if up in into:
        anchor, above = into[up], top
    elif up is not None:
        anchor = next((nd for c, nd in moved if c is up), anchor)
    if tree._root in into:
        tree._root = into[tree._root]
    tree.set_parent(anchor, above)
    near: dict[SpqrNode, list[SpqrNode]] = defaultdict(list)
    for n1, n2 in links:
        near[n1].append(n2)
        near[n2].append(n1)
    stack, reached = [anchor], {anchor}
    while stack:
        cur = stack.pop()
        for m in near[cur]:
            if m not in reached:
                reached.add(m)
                tree.set_parent(m, cur)
                stack.append(m)
    assert reached.issuperset(nodes), "split region not connected"
    for c, nd in moved:
        if c is not up:
            tree.set_parent(c, nd)
    for c, nd in kids:
        tree.set_parent(c, nd)


# ----------------------------------------------------------------------
# public update operations
#
# Deletion and contraction are dual: deleting e from a plane graph G is
# contracting e in its dual G*, whose SPQR-tree is G's with S and P
# swapped.  So the case analysis on the kind of the node holding the
# edge is written once for both, in _update, which returns a ChangeLog.
# Deleting a cycle (S) edge breaks the block into a path of smaller
# blocks, and contracting a parallel (P) edge breaks it into a star
# around the merged vertex, both in _break_up; deleting a P edge or
# contracting an S edge only takes the edge out of its skeleton; an R
# edge goes through one surgery, _r_remove, which merges the two faces
# or the two ends of the edge, and the skeleton then splits.  The public
# operations call _update on the node of a real edge, and _break_up
# calls it again on the twin of each virtual edge it cuts, inside the
# subtree that becomes a block of its own.  The ChangeLog lets the
# block-cutpoint layer restructure accordingly.

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
    into pieces sharing the merged vertex).  Besides ``op`` and
    ``edge``, ``intact`` sets ``tree``; ``pair`` sets ``pair_edges``
    and ``pair_ends``; ``path`` and ``star`` set ``pieces``.  Every
    contraction also sets ``merged_vertex`` and ``retired_vertex``.
    After a ``path`` or ``star`` split the handle the op was called on
    is retired: each piece's edges are reached through the piece's own
    tree, and an op through the old handle raises ``UnknownEdge``."""
    op: str
    edge: int
    kind: str
    tree: "SpqrTree | None" = None
    pair_edges: tuple[int, int] | None = None
    pair_ends: tuple[int, int] | None = None
    pieces: list[Piece] | None = None
    merged_vertex: int | None = None
    retired_vertex: int | None = None


def _twins_at(x: SpqrNode, v: int,
              via: int | None = None) -> list[tuple[SpqrNode, int]]:
    """The twin slots of the virtual edges at vertex ``v`` of ``x``'s
    skeleton, except ``via``, found through ``v``'s rotation."""
    return [x.twin[edge_of(d)] for d in x.graph.rotation(v)
            if edge_of(d) != via and edge_of(d) in x.twin]


def _rename_cascade(shared: _Shared, node: SpqrNode, via: int | None,
                    dying: int, keep: int) -> None:
    """Rename skeleton vertex ``dying`` to ``keep`` in ``node`` and in
    every node reachable through virtual edges whose pair contains
    ``dying`` (the nodes containing a vertex form a subtree), skipping
    the entry edge ``via``; each node renamed counts in
    ``shared.renames``."""
    stack = [(node, via)]
    while stack:
        nd, came = stack.pop()
        g = nd.graph
        assert g.has_vertex(dying) and not g.has_vertex(keep)
        stack += _twins_at(nd, dying, came)
        g.rename_vertex(dying, keep)
        shared.renames += 1
        if nd.kind == "R":
            corner = nd.cmap[g.any_dart(keep)]
            nd.vvf[nd.det.tree.root.graph.endpoints(corner)[0]] = keep


def rename_vertex_in_block(tree: SpqrTree, node: SpqrNode,
                           dying: int, keep: int) -> None:
    """Rename a vertex throughout one block's tree, entering at any
    node whose skeleton contains it (used when a contraction elsewhere
    merges an articulation vertex this block shares).  Raises
    ``UnknownVertex`` or ``LabelInUse``, before any write, when
    ``node`` lacks ``dying`` or already holds ``keep``."""
    if not node.graph.has_vertex(dying):
        raise UnknownVertex(f"vertex {dying} not in the entry node")
    if node.graph.has_vertex(keep):
        raise LabelInUse(f"vertex label {keep} already used")
    _rename_cascade(tree.shared, node, None, dying, keep)


def _rekey(nd: SpqrNode, old: int, new: int) -> None:
    """Rename skeleton edge ``old`` of ``nd`` to ``new``, keeping the R
    machinery's corner maps in step."""
    nd.graph.rename_edge(old, new)
    if nd.kind == "R":
        for s in (0, 1):
            nd.cmap[dart(new, s)] = nd.cmap.pop(dart(old, s))


def _dissolve_two_edge(tree: SpqrTree, x: SpqrNode
                       ) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Case ladder for a node whose skeleton is down to two edges
    joining one vertex pair.  With no virtual edge the whole block is
    those two real edges and the tree is gone.  Otherwise ``x`` leaves
    the tree, handed over (:func:`_hand_over`) to the node that takes
    its place.  When its two neighbours are two S or two P nodes, both
    links are unlinked and the neighbours join through :func:`_join`,
    and the :func:`_survivor` takes the place of the top-most of ``x``
    and the two.  Otherwise the neighbour across a virtual edge takes
    the id of ``x``'s other edge, real or virtual, and ``x``'s place
    (two R neighbours stay apart).  Only pointers that change are set:
    the taker's, unless it was top-most, and those of the children of
    the nodes that left.  Returns ``(ends, edge ids)`` of the pair in
    the first case and None when the tree lives on."""
    shared = tree.shared
    g = x.graph
    r1, r2 = sorted(g.edge_ids())
    if r1 not in x.twin and r2 not in x.twin:
        shared.node_of_edge.pop(r1, None)
        shared.node_of_edge.pop(r2, None)
        return tuple(sorted(g.endpoints(r1))), (r1, r2)
    v, o = (r1, r2) if r1 in x.twin else (r2, r1)
    m = x.twin[v][0]
    m2 = x.twin[o][0] if o in x.twin else None
    joined = m2 is not None and m.kind == m2.kind != "R"
    up = None if tree._root is x else x.parent
    top = up if up is not None and (joined or up is m) else x
    above = None if tree._root is top else top.parent
    if joined:
        (m, f), (m2, f2) = x.unlink(v), x.unlink(o)
        nd = _survivor([m, m2])
        kids = _join(shared, nd, [m, m2], {m: [f], m2: [f2]}, [])
        kids += _hand_over(shared, nd, x, [v, o])
    else:
        m, f = x.unlink(v)
        _rekey(m, f, o)
        nd, kids = m, _hand_over(shared, m, x, [v])
    if nd is not top:
        tree.set_parent(nd, above)
    for c in kids:
        tree.set_parent(c, nd)
    if tree._root is top:
        tree._root = nd
    return None


def _break_up(tree: SpqrTree, x: SpqrNode, e: int, keep: int | None,
              dying: int | None) -> list[Piece]:
    """Dissolve node ``x``, a cycle (S) losing edge ``e`` or a bundle
    (P) contracting it, into one block per other skeleton edge.  After
    the deletion every other vertex of the cycle is an articulation
    point, and the blocks come in path order from one end of ``e`` to
    the other, each attached at its two ends; after the contraction the
    poles are one vertex, ``keep``, and the blocks come in id order, all
    hanging on it.  A real edge becomes a one-edge block (a self-loop
    after a contraction); a virtual edge's subtree becomes a block of
    its own, from which :func:`_update` takes out the twin the same
    way.  A fragment below ``x`` is rooted at the twin node, whose
    pointer at ``x`` is cleared once that is done: it counts only if
    that node is still there.  ``tree`` is retired last: with no root,
    :func:`_take_real` refuses every edge through it."""
    shared, g = tree.shared, x.graph
    if keep is None:
        slots, v, f = [], g.endpoints(e)[0], e
        while len(slots) < g.n_edges - 1:
            f = next(edge_of(d) for d in g.rotation(v) if edge_of(d) != f)
            w = sum(g.endpoints(f)) - v
            slots.append(((v, w), f))
            v = w
    else:
        slots = [((keep, keep), f) for f in sorted(g.edge_ids()) if f != e]
    jobs: list[tuple] = []
    for attach, f in slots:
        if f in x.twin:
            m, f2 = x.unlink(f)
            # the fragment holding x's parent keeps the old root
            frag = SpqrTree(m if m.parent is x else tree._root, shared)
            jobs.append((attach, frag, m, f2))
        else:
            shared.node_of_edge.pop(f, None)
            jobs.append((attach, None, None, f))
    x.parent = None
    pieces: list[Piece] = []
    for attach, frag, m, f in jobs:
        if frag is None:
            pieces.append(Piece(attach, None, (f,)))
            continue
        log = _update(frag, m, f, keep, dying)
        if log.tree is not None:
            tree.set_parent(log.tree.root, None)
        pieces.append(Piece(attach, log.tree, log.pair_edges or ()))
    tree._root = None
    return pieces


def _update(tree: SpqrTree, x: SpqrNode, e: int, keep: int | None = None,
            dying: int | None = None) -> ChangeLog:
    """Delete edge ``e`` (real, or virtual and already unlinked) from
    node ``x`` of ``tree``, or with ``keep`` contract it, merging
    ``dying`` into ``keep``; a contraction first renames ``dying`` in
    the neighbours that share it.  Deleting an S edge or contracting a
    P edge breaks the block up.  Deleting a P edge or contracting an S
    edge takes the edge out of the skeleton, which dissolves when two
    edges are left.  An R edge goes through the synchronized surgery,
    and the skeleton then splits at the separation pairs its detector
    reports."""
    log = ChangeLog("delete" if keep is None else "contract", e, "intact",
                    tree, merged_vertex=keep, retired_vertex=dying)
    if x.kind == ("S" if keep is None else "P"):
        log.kind = "path" if keep is None else "star"
        log.tree, log.pieces = None, _break_up(tree, x, e, keep, dying)
        return log
    if keep is not None:
        for m, f in _twins_at(x, dying):
            _rename_cascade(tree.shared, m, f, dying, keep)
    if x.kind == "R":
        _r_remove(x, e, keep)
        _split_r_node(tree, x)
    elif keep is None:
        x.graph.delete_edge(e)
    else:
        x.graph.contract_edge(e, keep=keep)
    pair = _dissolve_two_edge(tree, x) if x.graph.n_edges < 3 else None
    if pair is not None:
        log.kind, log.tree = "pair", None
        log.pair_ends, log.pair_edges = pair
    return log


def _take_real(tree: SpqrTree, e: int) -> SpqrNode:
    """Unindex real edge ``e`` of this block; return its node.

    The edge belongs to this block when its node's parent chain ends
    at this tree's root; blocks of one origin share ``node_of_edge``.
    Each tree edge holds a distinct virtual id, and every one drawn is
    below ``vids.peek()``, so a chain that climbs that far is a cycle,
    and the op fails with an ``AssertionError`` naming the edge.
    """
    x = tree.shared.node_of_edge.get(e)
    top = x
    if x is not None:
        for _ in repeat(None, tree.shared.vids.peek()):
            if (up := top.parent) is None:
                break
            top = up
        else:
            raise AssertionError(f"edge {e}: parent pointers form a cycle")
    if x is None or top is not tree._root:
        raise UnknownEdge(f"edge {e} is not a real edge of this block")
    del tree.shared.node_of_edge[e]
    return x


def delete_edge(tree: SpqrTree, e: int) -> ChangeLog:
    """Delete real edge ``e`` from the block maintained by ``tree``.
    When the block breaks up (a ``path`` split), ``tree`` is retired and
    every later op through it raises ``UnknownEdge``; the pieces carry
    their own trees."""
    return _update(tree, _take_real(tree, e), e)


def contract_edge(tree: SpqrTree, e: int) -> ChangeLog:
    """Contract real edge ``e`` of the block maintained by ``tree``;
    the smaller endpoint label survives.  A ``star`` split retires
    ``tree`` as a ``path`` split does in :func:`delete_edge`."""
    x = _take_real(tree, e)
    u, w = x.graph.endpoints(e)
    assert u != w, "skeletons carry no self-loops"
    return _update(tree, x, e, min(u, w), max(u, w))
