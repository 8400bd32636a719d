"""Shared embedded-graph fixtures for the test suite."""

from __future__ import annotations

import math

from planarconn.embed import EmbeddedMultigraph, from_straight_line_drawing


def cycle(n: int) -> EmbeddedMultigraph:
    coords = {i: (math.cos(2 * math.pi * i / n),
                  math.sin(2 * math.pi * i / n)) for i in range(n)}
    edges = [(i, i, (i + 1) % n) for i in range(n)]
    return from_straight_line_drawing(coords, edges)


def path(n: int) -> EmbeddedMultigraph:
    coords = {i: (float(i), 0.0) for i in range(n)}
    edges = [(i, i, i + 1) for i in range(n - 1)]
    return from_straight_line_drawing(coords, edges)


def single_edge() -> EmbeddedMultigraph:
    return path(2)


def triangle() -> EmbeddedMultigraph:
    return cycle(3)


def k4() -> EmbeddedMultigraph:
    coords = {0: (0.0, 3.0), 1: (-3.0, -2.0), 2: (3.0, -2.0), 3: (0.0, 0.0)}
    edges = [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3), (4, 1, 3), (5, 2, 3)]
    return from_straight_line_drawing(coords, edges)


def diamond() -> EmbeddedMultigraph:
    """K4 minus one edge; 0-3 is the degree-3 pair."""
    coords = {0: (0.0, 1.0), 1: (-1.0, 0.0), 2: (1.0, 0.0), 3: (0.0, -1.0)}
    edges = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 2, 3), (4, 0, 3)]
    return from_straight_line_drawing(coords, edges)


def cube() -> EmbeddedMultigraph:
    outer = {i: (2 * math.cos(a), 2 * math.sin(a))
             for i, a in ((i, math.pi / 4 + i * math.pi / 2)
                          for i in range(4))}
    inner = {i + 4: (math.cos(a), math.sin(a))
             for i, a in ((i, math.pi / 4 + i * math.pi / 2)
                          for i in range(4))}
    coords = outer | inner
    edges = []
    eid = 0
    for i in range(4):
        edges.append((eid, i, (i + 1) % 4))
        eid += 1
    for i in range(4):
        edges.append((eid, i + 4, (i + 1) % 4 + 4))
        eid += 1
    for i in range(4):
        edges.append((eid, i, i + 4))
        eid += 1
    return from_straight_line_drawing(coords, edges)


def wheel(k: int) -> EmbeddedMultigraph:
    """Hub 0 joined to a rim cycle 1..k."""
    coords = {0: (0.0, 0.0)}
    for i in range(k):
        a = 2 * math.pi * i / k
        coords[i + 1] = (math.cos(a), math.sin(a))
    edges = []
    eid = 0
    for i in range(k):
        edges.append((eid, i + 1, (i + 1) % k + 1))
        eid += 1
    for i in range(k):
        edges.append((eid, 0, i + 1))
        eid += 1
    return from_straight_line_drawing(coords, edges)


def hub(k: int) -> EmbeddedMultigraph:
    """Hub 0 joined to a rim cycle 1..k, and the rim joined to an
    enclosing triangle k+1, k+2, k+3, so that every face is a triangle.

    Triangle corner j sees the rim vertices in the 120-degree sector
    around it; the last of them also sees corner j + 1.  The straight
    lines of that drawing cross for k < 7.
    """
    coords = {0: (0.0, 0.0)}
    corners = [k + 1 + j for j in range(3)]
    for j, t in enumerate(corners):
        a = math.pi / 2 + 2 * math.pi * j / 3
        coords[t] = (10 * math.cos(a), 10 * math.sin(a))
    sector = {}
    for i in range(k):
        # offset by half a step so that no rim vertex sits on a border
        a = 2 * math.pi * (i + 0.5) / k
        coords[i + 1] = (math.cos(a), math.sin(a))
        sector[i + 1] = int((a - math.pi / 6) // (2 * math.pi / 3)) % 3
    edges = [(j, corners[j], corners[(j + 1) % 3]) for j in range(3)]
    for i in range(1, k + 1):
        nxt = i % k + 1
        edges.append((len(edges), i, nxt))
        edges.append((len(edges), 0, i))
        edges.append((len(edges), i, corners[sector[i]]))
        if sector[nxt] != sector[i]:
            edges.append((len(edges), i, corners[sector[nxt]]))
    return from_straight_line_drawing(coords, edges)


def k24() -> EmbeddedMultigraph:
    """K_{2,4}: hubs 0 and 1, middles 2..5."""
    coords = {0: (0.0, 0.0), 1: (0.0, 2.0),
              2: (-3.0, 1.0), 3: (-1.0, 1.0), 4: (1.0, 1.0), 5: (3.0, 1.0)}
    edges = []
    eid = 0
    for m in (2, 3, 4, 5):
        edges.append((eid, 0, m))
        eid += 1
        edges.append((eid, 1, m))
        eid += 1
    return from_straight_line_drawing(coords, edges)


def theta(lengths) -> EmbeddedMultigraph:
    """Poles 0 and 1 joined by one path per entry of ``lengths``, with
    that many edges; ``theta([2] * k)`` is K_{2,k}.  The paths leave
    pole 0 in order and reach pole 1 in reverse."""
    edges: list[tuple[int, int, int]] = []
    rotations: dict[int, list[tuple[int, int]]] = {0: [], 1: []}
    n = 2
    for length in lengths:
        path = [0, *range(n, n + length - 1), 1]
        n += length - 1
        for u, w in zip(path, path[1:]):
            rotations.setdefault(u, []).append((len(edges), 0))
            rotations.setdefault(w, []).append((len(edges), 1))
            edges.append((len(edges), u, w))
    rotations[1].reverse()
    return EmbeddedMultigraph.build(range(n), edges, rotations)


def flower(t: int, petal: int = 3) -> EmbeddedMultigraph:
    """Hub 0 and a rim cycle 1..t, each rim vertex joined to the hub by
    ``petal`` paths of length 2, a K_{2,petal} petal: the hub shares
    four faces with every rim vertex."""
    coords = {0: (0.0, 0.0)}
    edges = []
    for i in range(t):
        a = 2 * math.pi * i / t
        z = i + 1
        coords[z] = (2 * math.cos(a), 2 * math.sin(a))
        edges.append((len(edges), z, z % t + 1))
        for j in range(petal):
            m = t + 1 + i * petal + j
            b = a + math.pi / t * (j + 1 - (petal + 1) / 2) / petal
            coords[m] = (math.cos(b), math.sin(b))
            edges += [(len(edges), 0, m), (len(edges) + 1, m, z)]
    return from_straight_line_drawing(coords, edges)


def prism(k: int) -> EmbeddedMultigraph:
    """Two k-cycles, 0..k-1 around k..2k-1, joined by the rungs
    i - (i + k): triconnected for k >= 3."""
    coords = {}
    for i in range(k):
        a = 2 * math.pi * i / k
        coords[i] = (2 * math.cos(a), 2 * math.sin(a))
        coords[i + k] = (math.cos(a), math.sin(a))
    edges = []
    for i in range(k):
        edges += [(len(edges), i, (i + 1) % k),
                  (len(edges) + 1, i + k, (i + 1) % k + k),
                  (len(edges) + 2, i, i + k)]
    return from_straight_line_drawing(coords, edges)


def grid(rows: int, cols: int) -> EmbeddedMultigraph:
    coords = {r * cols + c: (float(c), float(r))
              for r in range(rows) for c in range(cols)}
    edges = []
    eid = 0
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((eid, v, v + 1))
                eid += 1
            if r + 1 < rows:
                edges.append((eid, v, v + cols))
                eid += 1
    return from_straight_line_drawing(coords, edges)


def inner_rungs(g: EmbeddedMultigraph, k: int) -> list[int]:
    """The ids of the rungs c - (c + k) of the ladder ``g = grid(2, k)``
    for c = 1 .. k - 2, in order."""
    rung = {frozenset(g.endpoints(e)): e for e in g.edge_ids()}
    return [rung[frozenset((c, c + k))] for c in range(1, k - 1)]


def k4_chain(k: int) -> EmbeddedMultigraph:
    """k K4s glued in a row along edges.  The zigzag v_0 .. v_(k+1),
    with v_j at (j, 1) or (j, -1), cuts a strip into k triangles
    v_i v_(i+1) v_(i+2), and a vertex inside each is joined to its
    corners.  Edge j is the zigzag edge v_j v_(j+1), so edges 1 .. k - 1
    are the seams, each shared by two K4s."""
    coords = {j: (float(j), 1.0 if j % 2 == 0 else -1.0)
              for j in range(k + 2)}
    edges = [(j, j, j + 1) for j in range(k + 1)]
    for i in range(k):
        w = k + 2 + i
        coords[w] = (i + 1.0, coords[i][1] / 3)
        edges.append((len(edges), i, i + 2))
        edges += [(len(edges) + c, w, i + c) for c in range(3)]
    return from_straight_line_drawing(coords, edges)


def nested(k: int) -> EmbeddedMultigraph:
    """k concentric triangles a_i b_i c_i = 3i, 3i + 1, 3i + 2 at radius
    i + 1, each joined to the next by the radial edges a_i a_(i+1),
    b_i b_(i+1) and c_i c_(i+1): triconnected for k >= 2, with n = 3k and
    m = 6k - 3.  Edges 6i, 6i + 1 and 6i + 2 are triangle i's a-b, b-c
    and c-a, and 6i + 3, 6i + 4 and 6i + 5 its radial a-, b- and c-edge
    to triangle i + 1.  Deleting the radial a-edge between triangles i
    and i + 1 makes {b_i, c_i} and {b_(i+1), c_(i+1)} separation pairs."""
    coords, edges = {}, []
    for i in range(k):
        for j in range(3):
            a = math.pi / 2 + 2 * math.pi * j / 3
            coords[3 * i + j] = ((i + 1) * math.cos(a), (i + 1) * math.sin(a))
        edges += [(6 * i + j, 3 * i + j, 3 * i + (j + 1) % 3)
                  for j in range(3)]
        if i + 1 < k:
            edges += [(6 * i + 3 + j, 3 * i + j, 3 * i + 3 + j)
                      for j in range(3)]
    return from_straight_line_drawing(coords, edges)


def bisection(lo: int, hi: int) -> list[int]:
    """lo .. hi - 1 in bisection order: the middle one, then those
    before it and those after it, each in bisection order."""
    if lo >= hi:
        return []
    mid = (lo + hi) // 2
    return [mid, *bisection(lo, mid), *bisection(mid + 1, hi)]


def parallel_bundle(k: int, ids: list[int] | None = None) -> EmbeddedMultigraph:
    """Two vertices joined by k parallel edges."""
    if ids is None:
        ids = list(range(k))
    return EmbeddedMultigraph.build(
        [0, 1],
        [(e, 0, 1) for e in ids],
        {0: [(e, 0) for e in ids],
         1: [(e, 1) for e in reversed(ids)]})


def bigon(id_a: int = 3, id_b: int = 7) -> EmbeddedMultigraph:
    return parallel_bundle(2, [id_a, id_b])


ALL_SMALL = {
    "triangle": triangle,
    "c4": lambda: cycle(4),
    "c5": lambda: cycle(5),
    "path4": lambda: path(4),
    "k4": k4,
    "diamond": diamond,
    "cube": cube,
    "wheel5": lambda: wheel(5),
    "k24": k24,
    "grid33": lambda: grid(3, 3),
    "grid55": lambda: grid(5, 5),
    "bundle3": lambda: parallel_bundle(3),
}
