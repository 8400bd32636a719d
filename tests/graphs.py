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
