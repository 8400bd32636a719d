"""Tests for the instance generators.

The generators must keep producing the same bytes: the benchmark's
fixtures and the pinned digests below were made by an earlier
implementation that drew its points from numpy, triangulated them with
scipy and tested every deletion of ``thin`` with the brute-force
``oracle.is_biconnected``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from planarconn.embed import dart, write_graph_text
from planarconn.generators import (_delaunay_edges, _random53,
                                   random_delaunay, random_planar, thin)
from planarconn.oracle import is_biconnected

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"

# sha256 of write_graph_text(random_planar(n, seed, max_face_degree))
DIGESTS = {
    (6, 0, 4): "ec3bb8b0d05ee78183e8dbe5889e1394cbf09d9b2f430acfd18e6995d82090fb",
    (12, 0, 4): "5021868cf4fd04c4078fe3cf87d28203312fbcac1328cc8b18753152b103f7cb",
    (20, 1, 6): "a2802847f36d9b7c8ba9042bd825eecbdd21f288ce28ff8f6a4d8346f3cb1ea2",
    (24, 5, 8): "756f7e293feda151599ee3d646b1d259fffe033e954246392c8dbbb0100ad872",
    (33, 4, 8): "0c26117e0d1f4d3e9de42e23739b270ea5ec2617e58f978ebf6be85f3912ccde",
    (40, 7, 24): "3e11de9fd4a3210738f5ccadda069d1bf7fbb628062b6ff7018eac642fe261fe",
    (47, 13, 4): "392c1bde58e53d603454508c359ef9659c29fbafa07319f67ec1f6d4b6580f74",
    (50, 3, 8): "fe531d4fc17e323a03b740b785e0dcc80b8820389cf70dabb7bf93a416ea6d8c",
    (64, 11, 6): "09c1ac5f093c9c5eefaf0f4c753b78e9b1386d484ac009b80bc8fe281926fc96",
    (90, 6, 6): "05a133c876b322c3d97db836444355c6be79e7538dac39593733887c3330f49f",
    (120, 9, 8): "d59c5bb305255d413f9d417531d55efd8e794e24f3360ab271032204573924d1",
    (150, 1, 24): "79e350a0f873c6c7de904ef28c688a2ee496345a912d891cbe79d3d8f285c3e7",
}
# the same with keep_biconnected=False
DIGESTS_UNCHECKED = {
    (30, 2, 6): "ed4bcea9beb60614eaf1cf4eb121b9be17e5684e606fec8e23b4cac7bc24b645",
    (60, 4, 8): "0368ac7a381f318fb3ec106fd1c88f003cb4a9d452c316865be8eb38ce17fb47",
}


def _sha(g) -> str:
    return hashlib.sha256(write_graph_text(g).encode()).hexdigest()


@pytest.mark.parametrize("n,seed,fd", sorted(DIGESTS))
def test_random_planar_digest(n, seed, fd):
    assert _sha(random_planar(n, seed, fd)) == DIGESTS[n, seed, fd]


@pytest.mark.parametrize("n,seed,fd", sorted(DIGESTS_UNCHECKED))
def test_random_planar_unchecked_digest(n, seed, fd):
    g = random_planar(n, seed, fd, keep_biconnected=False)
    assert _sha(g) == DIGESTS_UNCHECKED[n, seed, fd]


@pytest.mark.parametrize("name,n,seed,fd", [("dense_n100_s1", 100, 1, 8),
                                            ("sparse_n200_s3", 200, 3, 24)])
def test_committed_fixture_bytes(name, n, seed, fd):
    text = (CORPUS / "graphs" / f"{name}.txt").read_text()
    assert write_graph_text(random_planar(n, seed, fd)) == text


def test_face_rule_matches_oracle_on_every_candidate():
    """Replay ``thin`` with the brute-force test deciding each deletion
    and compare it with the face rule at every candidate; the result
    must also be what ``thin`` returns."""
    accepted = rejected = 0
    for n in (8, 12, 16, 20, 24):
        for seed in range(3):
            for fd in (4, 6, 8, 24):
                g = random_delaunay(n, seed)
                rng = random.Random(seed)
                ids = sorted(g.edge_ids())
                random.Random(seed).shuffle(ids)
                want = thin(g, rng, fd, keep_biconnected=True)
                h = g.copy()
                for e in ids:
                    f0, f1 = h.trace_face(dart(e, 0)), h.trace_face(dart(e, 1))
                    if dart(e, 1) in f0 or len(f0) + len(f1) - 2 > fd:
                        continue
                    side = {h.vertex_of_dart(d) for d in f0}
                    common = side & {h.vertex_of_dart(d) for d in f1}
                    trial = h.copy()
                    trial.delete_edge(e)
                    ok = is_biconnected(trial)
                    assert ok == (common == set(h.endpoints(e))), (n, seed, e)
                    if ok:
                        accepted += 1
                        h = trial
                    else:
                        rejected += 1
                assert write_graph_text(h) == write_graph_text(want)
    assert accepted > 0 and rejected > 0


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        random_delaunay(10, -1)


@pytest.mark.parametrize("pts", [
    [(0, 0), (1, 0), (2, 0), (0, 1)],       # three collinear
    [(0, 0), (2, 0), (0, 2), (2, 2)],       # four cocircular
])
def test_degenerate_points_rejected(pts):
    with pytest.raises(ValueError):
        _delaunay_edges(pts)


def test_stream_matches_numpy():
    np = pytest.importorskip("numpy")
    seeds = list(range(40)) + [2**32 - 1, 2**32, 2**40 + 17, 2**64 + 3,
                               2**127 + 5, 3**100]
    for seed in seeds:
        want = np.random.default_rng(seed).random(12).tolist()
        assert [k * 2.0 ** -53 for k in _random53(seed, 12)] == want, seed


def test_delaunay_matches_scipy():
    np = pytest.importorskip("numpy")
    spatial = pytest.importorskip("scipy.spatial")
    for seed in range(100):
        n = 4 + seed * 60 // 99
        tri = spatial.Delaunay(np.random.default_rng(seed).random((n, 2)))
        want = {(min(a, b), max(a, b)) for s in tri.simplices.tolist()
                for a, b in ((s[0], s[1]), (s[1], s[2]), (s[2], s[0]))}
        ks = _random53(seed, 2 * n)
        got = _delaunay_edges([(ks[2 * i], ks[2 * i + 1]) for i in range(n)])
        assert got == want, (n, seed)
