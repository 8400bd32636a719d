"""Plane duality and mirroring as oracles for SPQR-trees and their
updates.

Deleting edge e of a plane graph G is contracting e in its dual G*, and
the SPQR-tree of G* is that of G with S and P swapped: the same real
edges in each node, each R skeleton dualised.  ``dual()`` keeps edge
ids, so the two sides compare directly, by shape: no oracle is needed,
and the check reaches any n.  Each update on one side runs the other
side's case code: an S deletion's path split against a P contraction's
star split, an R deletion's face merge against an R contraction's
vertex merge.

The mirror of G, every rotation reversed, has the same SPQR-tree with
the same labels, so the same op on both sides must return trees that
serialize alike.  It runs the same case code with every choice that
follows rotation order made the other way round: which class a split
leaves unlisted, the order of a quad's corners, the order of the twin
maps.

G with its vertex labels permuted, edge ids kept, has the same
SPQR-tree up to the labels, so the same op on both sides must have the
same outcome up to labels.  It runs the same case code with every choice
that follows the labels made another way: which record a decomposition
takes first, which end of a contracted edge survives.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from planarconn import fourcycle, separators, spqr
from planarconn.embed import EmbeddedMultigraph, edge_of
from planarconn.generators import random_planar
from planarconn.spqr import build_spqr, contract_edge, delete_edge

SWAP = {"S": "P", "P": "S", "R": "R", "path": "star", "star": "path"}


def real_edges(tree) -> tuple[int, ...]:
    return tuple(sorted(e for x in tree.nodes() for e in x.real_ids()))


def shape(tree, dual: bool = False) -> tuple:
    """The tree up to vertex labels: per node its kind (S and P swapped
    with ``dual``), its sorted real edge ids and its children's shapes,
    sorted, rooted at the node that holds the smallest real edge."""
    def walk(x, via):
        kids = sorted(walk(y, f) for e, (y, f) in x.twin.items() if e != via)
        return ((SWAP[x.kind] if dual else x.kind), tuple(x.real_ids()),
                tuple(kids))

    return walk(tree.node_of_edge[real_edges(tree)[0]], None)


def outcome(log, dual: bool = False) -> tuple:
    """An update's outcome up to vertex labels: its kind (path and star
    swapped with ``dual``) and its blocks sorted by their real edges,
    each with its shape, or None for a block of fewer than three
    edges."""
    if log.kind == "intact":
        blocks = [(log.tree, ())]
    elif log.kind == "pair":
        blocks = [(None, log.pair_edges)]
    else:
        blocks = [(p.tree, p.edges) for p in log.pieces]
    return (SWAP.get(log.kind, log.kind) if dual else log.kind,
            sorted((real_edges(t), shape(t, dual)) if t
                   else (tuple(sorted(es)), None) for t, es in blocks))


def trees_by_edges(log) -> dict[tuple[int, ...], object]:
    """The trees an update leaves, keyed by their real edges."""
    trees = ([log.tree] if log.kind == "intact" else
             [p.tree for p in log.pieces or () if p.tree])
    return {real_edges(t): t for t in trees}


def mirror(g):
    """g with every rotation reversed, through the validated
    ``EmbeddedMultigraph.build``."""
    return EmbeddedMultigraph.build(
        g.vertices(), [(e, *g.endpoints(e)) for e in g.edge_ids()],
        {v: [(edge_of(d), d & 1) for d in reversed(g.rotation(v))]
         for v in g.vertices()})


def relabel(g, seed: int = 0):
    """g with its vertex labels permuted by a seeded permutation, edge
    ids and rotations kept, through the validated
    ``EmbeddedMultigraph.build``."""
    old = sorted(g.vertices())
    new = dict(zip(old, random.Random(seed).sample(old, len(old))))
    return EmbeddedMultigraph.build(
        new.values(),
        [(e, *(new[v] for v in g.endpoints(e))) for e in g.edge_ids()],
        {new[v]: [(edge_of(d), d & 1) for d in g.rotation(v)]
         for v in old})


# a twin: how it is made from g, whether an op on g is the other op on
# it, with S and P swapped, and whether it keeps g's labels, so that the
# trees an op leaves must serialize alike
DUAL = (lambda g: g.dual()[0], True, False)
MIRROR = (mirror, False, True)
RELABEL = (relabel, False, False)


def paired_ops(g, twin, steps: int, seed: int, after=None) -> int:
    """Run up to ``steps`` random deletions and contractions on the tree
    of g and each, swapped for the dual, on the tree of g's ``twin``,
    following the largest block; every outcome must match, and on a
    twin that keeps the labels so must the serialization of every tree
    an op leaves.  ``after``, if given, is called with the trees of both
    sides after each op.  Returns the ops made."""
    make, dual, same_labels = twin
    rng = random.Random(seed)
    prim, other = build_spqr(g), build_spqr(make(g))
    assert shape(prim) == shape(other, dual)
    for step in range(steps):
        e = rng.choice(real_edges(prim))
        swap = rng.random() < 0.5
        log = (contract_edge if swap else delete_edge)(prim, e)
        tlog = (contract_edge if swap != dual else delete_edge)(other, e)
        assert outcome(log) == outcome(tlog, dual), (step, e, swap)
        trees, ttrees = trees_by_edges(log), trees_by_edges(tlog)
        if same_labels:
            assert ({k: t.serialize() for k, t in trees.items()}
                    == {k: t.serialize() for k, t in ttrees.items()}), \
                (step, e, swap)
        if after is not None:
            after([*trees.values(), *ttrees.values()])
        if not trees:
            return step + 1
        key = max(trees, key=len)
        prim, other = trees[key], ttrees[key]
    return steps


def split_detectors(trees) -> int:
    """The R nodes of the given SPQR-trees whose detector's separator
    tree has internal nodes."""
    return sum(not x.det.tree.root.is_leaf
               for tree in trees for x in tree.nodes() if x.kind == "R")


def leaves_for(request, small: bool, seen: Counter):
    """With ``small``, separator trees with small leaves (the
    ``small_leaves`` fixture); returns an ``after`` for
    :func:`paired_ops` that counts in ``seen["split detectors"]`` the R
    nodes whose detector has internal nodes.  At the production leaf
    budget the R nodes of the dense graphs of 200 and 400 vertices are
    each one leaf, so those cases take small leaves, which the R
    surgeries of both sides then edit."""
    if small:
        request.getfixturevalue("small_leaves")

    def count(trees):
        seen["split detectors"] += split_detectors(trees)

    return count


# (n, max face degree, seeds, ops per seed, whether separator trees get
# small leaves, whether an R surgery merges across a face that is no
# quad of four distinct corners, the ends (0 or 1, by dart) at which an
# R split's cut contracts a pendant edge); face degree 24 leaves long
# chains of S nodes and P hubs, so S deletions and P contractions split
DUAL_CASES = [
    pytest.param(40, 8, 10, 40, False, True, {0, 1}, id="40"),
    pytest.param(40, 24, 10, 40, False, False, set(), id="40-sparse"),
    pytest.param(200, 8, 3, 50, True, True, {0}, id="200"),
    pytest.param(200, 24, 3, 50, False, True, {0, 1}, id="200-sparse"),
    pytest.param(400, 8, 2, 100, True, True, {0, 1}, id="400"),
]


@pytest.mark.parametrize(
    "n, max_face_degree, seeds, steps, small, non_quad, pendant_ends",
    DUAL_CASES)
def test_updates_commute_with_duality(request, monkeypatch, n,
                                      max_face_degree, seeds, steps, small,
                                      non_quad, pendant_ends):
    # an R split's cut can contract a bridge of the partly cut skeleton,
    # such as a pendant edge, whose quad repeats the face on both its
    # sides (a bridge with no pendant end in seed 1 of 200-sparse, step
    # 11); the detector then merges in place and quasi-simplifies,
    # and every tree on both sides must still pass check().  No update inserts an edge into a
    # detector's separator tree or contracts one there: merge_across is
    # the one detector mutation updates make
    merge = fourcycle.Detector.merge_across
    insertion = separators.SeparatorTree.apply_insertion
    contraction = fourcycle.Detector.contract_edge
    r_remove = spqr._r_remove
    seen = Counter()

    def counted_merge(self, u, w, after_u, after_w):
        h = self.tree.root.graph
        if not fourcycle._opposite_on_quad(h, after_u, after_w):
            seen["non-quad"] += 1
        return merge(self, u, w, after_u, after_w)

    def counted_insertion(self, *args, **kw):
        seen["inserts"] += 1
        return insertion(self, *args, **kw)

    def counted_contraction(self, *args, **kw):
        seen["contractions"] += 1
        return contraction(self, *args, **kw)

    def counted_remove(x, e, keep=None):
        for end, v in enumerate(x.graph.endpoints(e)):
            if x.graph.degree(v) == 1:
                seen[f"pendant end {end}"] += 1
        return r_remove(x, e, keep)

    count = leaves_for(request, small, seen)

    def check_after_non_quad(trees):
        if seen["non-quad"]:
            seen["non-quad ops"] += 1
            for tree in trees:
                tree.check()
        seen["non-quad"] = 0
        count(trees)

    monkeypatch.setattr(fourcycle.Detector, "merge_across", counted_merge)
    monkeypatch.setattr(separators.SeparatorTree, "apply_insertion",
                        counted_insertion)
    monkeypatch.setattr(fourcycle.Detector, "contract_edge",
                        counted_contraction)
    monkeypatch.setattr(spqr, "_r_remove", counted_remove)
    ops = sum(paired_ops(random_planar(n, seed, max_face_degree), DUAL,
                         steps, seed, check_after_non_quad)
              for seed in range(seeds))
    assert ops >= seeds
    assert not seen["inserts"]
    assert not seen["contractions"]
    assert seen["non-quad ops"] or not non_quad
    assert all(seen[f"pendant end {end}"] for end in pendant_ends)
    assert seen["split detectors"] or not small


@pytest.mark.parametrize("n, max_face_degree, seeds, steps, small", [
    pytest.param(40, 8, 10, 40, False, id="40"),
    pytest.param(40, 24, 10, 40, False, id="40-sparse"),
    pytest.param(200, 8, 3, 50, True, id="200"),
])
def test_updates_commute_with_mirroring(request, n, max_face_degree, seeds,
                                        steps, small):
    seen = Counter()
    count = leaves_for(request, small, seen)
    ops = sum(paired_ops(random_planar(n, seed, max_face_degree), MIRROR,
                         steps, seed, count)
              for seed in range(seeds))
    assert ops >= seeds
    assert seen["split detectors"] or not small


@pytest.mark.parametrize("n, max_face_degree, seeds, steps, small", [
    pytest.param(40, 8, 10, 40, False, id="40"),
    pytest.param(40, 24, 10, 40, False, id="40-sparse"),
    pytest.param(200, 8, 3, 50, True, id="200"),
])
def test_updates_commute_with_relabelling(request, n, max_face_degree, seeds,
                                          steps, small):
    seen = Counter()
    count = leaves_for(request, small, seen)
    ops = sum(paired_ops(random_planar(n, seed, max_face_degree), RELABEL,
                         steps, seed, count)
              for seed in range(seeds))
    assert ops >= seeds
    assert seen["split detectors"] or not small
