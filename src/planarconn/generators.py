"""Random embedded planar instance generators.

All generators are deterministic in their seed so corpora can be
reproduced exactly.  They need nothing beyond the standard library: the
point stream is numpy's ``default_rng(seed).random`` reproduced bit for
bit, and the Delaunay triangulation is computed with exact integer
predicates.
"""

from __future__ import annotations

import random

from planarconn.embed import (EmbeddedMultigraph, dart,
                              from_straight_line_drawing)

# ----------------------------------------------------------------------
# numpy's default_rng: SeedSequence entropy mixing, then PCG64 (XSL-RR)

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        word = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _M32
        word = (word * hash_const) & _M32
        out.append(word ^ (word >> 16))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _random53(seed: int, count: int) -> list[int]:
    """The first ``count`` draws of ``default_rng(seed).random()`` as
    integers k, each draw being exactly k * 2**-53."""
    w = _seed_words(seed)
    inc = (((w[2] << 64 | w[3]) << 1) | 1) & _M128
    state = (inc + (w[0] << 64 | w[1])) & _M128
    state = (state * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        out.append(x >> 11)
    return out


# ----------------------------------------------------------------------
# Delaunay triangulation with exact predicates

def _orient(p, q, r) -> int:
    """Positive iff p, q, r turn counter-clockwise."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _incircle(a, b, c, d) -> int:
    """Positive iff d lies inside the circle through the counter-clockwise
    triangle a, b, c."""
    ax, ay = a[0] - d[0], a[1] - d[1]
    bx, by = b[0] - d[0], b[1] - d[1]
    cx, cy = c[0] - d[0], c[1] - d[1]
    return ((ax * ax + ay * ay) * (bx * cy - by * cx)
            - (bx * bx + by * by) * (ax * cy - ay * cx)
            + (cx * cx + cy * cy) * (ax * by - ay * bx))


def _delaunay_edges(pts: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges ``(u, w)``, u < w, of the Delaunay triangulation of points in
    general position (no three collinear, no four cocircular).

    Points are inserted in lexicographic order, so each lies outside the
    hull of the earlier ones and sees a chain of hull edges that contains
    the previous point; it is joined to that chain by a fan, then every
    edge that fails the incircle test is flipped (Lawson).  ``opp[a, b]``
    is the third corner of the counter-clockwise triangle on directed
    edge a -> b.
    """
    order = sorted(range(len(pts)), key=pts.__getitem__)
    a, b, c = order[:3]
    turn = _orient(pts[a], pts[b], pts[c])
    if turn == 0:
        raise ValueError("points not in general position")
    if turn < 0:
        b, c = c, b
    opp = {(a, b): c, (b, c): a, (c, a): b}
    nxt = {a: b, b: c, c: a}     # the hull, counter-clockwise
    prv = {b: a, c: b, a: c}
    last = order[2]

    def flip(stack: list) -> None:
        while stack:
            a, b = stack.pop()
            c = opp.get((a, b))
            d = opp.get((b, a))
            if c is None or d is None:
                continue
            s = _incircle(pts[a], pts[b], pts[c], pts[d])
            if s == 0:
                raise ValueError("points not in general position")
            if s < 0:
                continue
            for key in ((a, b), (b, c), (c, a), (b, a), (a, d), (d, b)):
                del opp[key]
            opp[d, b] = c
            opp[b, c] = d
            opp[c, d] = b
            opp[c, a] = d
            opp[a, d] = c
            opp[d, c] = a
            stack.extend(((a, d), (d, b), (b, c), (c, a)))

    def sees(u: int, w: int, p: int) -> bool:
        """Whether p lies right of the hull edge u -> w."""
        s = _orient(pts[u], pts[w], pts[p])
        if s == 0:
            raise ValueError("points not in general position")
        return s < 0

    for p in order[3:]:
        right = last
        while sees(right, nxt[right], p):
            right = nxt[right]
        left = last
        while sees(prv[left], left, p):
            left = prv[left]
        stack = []
        u = left
        while u != right:
            w = nxt[u]
            opp[w, u] = p
            opp[u, p] = w
            opp[p, w] = u
            stack.append((u, w))
            if u != left:
                del nxt[u], prv[u]
            u = w
        nxt[left] = p
        prv[p] = left
        nxt[p] = right
        prv[right] = p
        flip(stack)
        last = p
    return {(min(u, w), max(u, w)) for u, w in opp}


def random_delaunay(n: int, seed: int) -> EmbeddedMultigraph:
    """The Delaunay triangulation of n uniform random points in the
    unit square, embedded by its straight-line drawing.

    The points are those of ``numpy.random.default_rng(seed).random((n,
    2))``.  Every coordinate is an integer k times 2**-53, so the
    orientation and incircle determinants are evaluated on the integers
    k with Python's unbounded ints and every sign they give is exact.
    The triangulation is therefore the unique Delaunay triangulation
    whenever the points are in general position.  A ``ValueError``
    reports points that are not, and a negative seed (as numpy does).
    """
    if n < 4:
        raise ValueError("need at least 4 points")
    ks = _random53(seed, 2 * n)
    pts = [(ks[2 * i], ks[2 * i + 1]) for i in range(n)]
    edges = _delaunay_edges(pts)
    pos = {i: (x * 2.0 ** -53, y * 2.0 ** -53) for i, (x, y) in enumerate(pts)}
    elist = [(k, u, w) for k, (u, w) in enumerate(sorted(edges))]
    return from_straight_line_drawing(pos, elist)


def thin(g: EmbeddedMultigraph, rng: random.Random,
         max_face_degree: int = 8,
         keep_biconnected: bool = False) -> EmbeddedMultigraph:
    """Randomly delete edges of a triangulation while no face grows
    beyond ``max_face_degree``; with ``keep_biconnected`` only
    deletions that leave the graph biconnected are applied.

    Biconnectivity is tested on the two faces at the edge.  In a
    biconnected plane graph G, G - e is biconnected iff the faces on
    either side of e share no vertex other than the ends of e: a shared
    vertex x is passed twice by the face of G - e that merges them, so
    it is a cut vertex; conversely e joins two of the pieces that a cut
    vertex x of G - e separates, so the merged face passes x on both
    sides of e.  ``g`` must then be biconnected, and every test costs
    O(face degree).
    """
    g = g.copy()
    ids = sorted(g.edge_ids())
    rng.shuffle(ids)
    for e in ids:
        d0, d1 = dart(e, 0), dart(e, 1)
        f0 = g.trace_face(d0)
        if d1 in f0:
            continue  # a bridge or loop: deleting it would disconnect
        f1 = g.trace_face(d1)
        if len(f0) + len(f1) - 2 > max_face_degree:
            continue
        if keep_biconnected:
            side = {g.vertex_of_dart(d) for d in f0}
            if len(side.intersection(g.vertex_of_dart(d) for d in f1)) > 2:
                continue  # the ends of e and a cut vertex of g - e
        g.delete_edge(e)
    return g


def random_planar(n: int, seed: int,
                  max_face_degree: int = 8,
                  keep_biconnected: bool = True) -> EmbeddedMultigraph:
    """A random embedded planar graph: a random Delaunay triangulation
    thinned by random edge deletions under a face-degree bound."""
    g = random_delaunay(n, seed)
    return thin(g, random.Random(seed ^ 0x5EED),
                max_face_degree=max_face_degree,
                keep_biconnected=keep_biconnected)
