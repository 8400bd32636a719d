"""Build scaling: SPQR-tree construction time per doubling of n.

    python -m tests.scale_build

Run from the root of a checkout; pytest does not collect this file.
For each maximum face degree f in 8 and 24 it builds the SPQR-tree of
``random_planar(n, 1, max_face_degree=f)`` for n = 400, 800, ... 6400,
then that of the ladder ``grid(2, k)``, the cycle ``cycle(n)`` and the
wheel ``wheel(k)`` for sizes 200, 400 and 800, whose long faces hold
many co-facial vertex pairs.  Per row it prints the size, the edge
count m, the fastest and the slowest of three build times, the ratio
of the fastest to the fastest at half the size and, from one more
build outside the timing, the vertices that ``spqr._split_classes``
scanned per inner vertex of the classes it listed.  A near-linear
build doubles per doubling.  A row is marked ``<-`` only when its
fastest build is above 3.0 times the slowest build at half the size,
so that the spread between repeats does not mark it.  A split scans at
most deg(a) vertices per round for as many rounds as its largest
listed class has vertices, so the scan ratio stays a small constant.
Every tree then goes through ``check()``, outside the timing, and the
exit status is 1 if any check failed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# the package's source directory, as pytest's ``pythonpath`` setting
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planarconn import spqr
from planarconn.generators import random_planar
from planarconn.spqr import build_spqr

from .graphs import cycle, grid, wheel

SIZES = (400, 800, 1600, 3200, 6400)
FAMILY_SIZES = (200, 400, 800)
# (title, size column, graph of a size, sizes)
FAMILIES = (
    *((f"max_face_degree {f}", "n",
       lambda n, f=f: random_planar(n, 1, max_face_degree=f), SIZES)
      for f in (8, 24)),
    ("ladder grid(2, k)", "k", lambda k: grid(2, k), FAMILY_SIZES),
    ("cycle(n)", "n", cycle, FAMILY_SIZES),
    ("wheel(k)", "k", wheel, FAMILY_SIZES),
)
REPEATS = 3
RATIO_MARK = 3.0


def timed_builds(g) -> tuple[float, float, object]:
    """The fastest and the slowest of REPEATS builds of g, and the last
    tree built."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        tree = build_spqr(g)
        times.append(time.perf_counter() - t0)
    return min(times), max(times), tree


def split_scans(g) -> float:
    """The vertices ``spqr._split_classes`` scans per inner vertex of the
    classes it lists, over one build of g: every rotation it reads but
    the one at the pair's first vertex."""
    split_classes = spqr._split_classes
    seen = {"scanned": 0, "listed": 0}

    def counted(h, a, b, k):
        rotation = h.rotation

        def counting(v):
            seen["scanned"] += v != a
            return rotation(v)

        h.rotation = counting
        try:
            singles, done = split_classes(h, a, b, k)
        finally:
            del h.rotation
        seen["listed"] += sum(len(inner) for _, inner in done)
        return singles, done

    spqr._split_classes = counted
    try:
        build_spqr(g)
    finally:
        spqr._split_classes = split_classes
    return seen["scanned"] / max(1, seen["listed"])


def main() -> int:
    failed = 0
    for title, size, make, sizes in FAMILIES:
        print(title)
        print(f"{size:>6} {'m':>7} {'min_s':>7} {'max_s':>7} {'scans':>6} "
              f"{'ratio':>6}")
        prev = None
        for n in sizes:
            g = make(n)
            secs, slowest, tree = timed_builds(g)
            note = ""
            if prev is not None:
                note = f"{secs / prev[0]:6.2f}"
                if secs > RATIO_MARK * prev[1]:
                    note += " <-"
            try:
                tree.check()
            except AssertionError as ex:
                failed += 1
                note += f" check failed: {ex}"
            print(f"{n:>6} {g.n_edges:>7} {secs:>7.3f} {slowest:>7.3f} "
                  f"{split_scans(g):>6.2f} {note}", flush=True)
            prev = secs, slowest
    if failed:
        print(f"{failed} trees failed check()")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
