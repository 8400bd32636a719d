"""Build scaling: SPQR-tree construction time per doubling of n.

    python -m tests.scale_build

Run from the root of a checkout; pytest does not collect this file.
For each maximum face degree f in 8 and 24 it builds the SPQR-tree of
``random_planar(n, 1, max_face_degree=f)`` for n = 400, 800, ... 6400
and prints n, the edge count m, the best of three build times and the
ratio to the time at n / 2.  A near-linear build doubles per doubling;
a ratio above 3.0 is marked ``<-``.  Every tree then goes through
``check()``, outside the timing, and the exit status is 1 if any check
failed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# the package's source directory, as pytest's ``pythonpath`` setting
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planarconn.generators import random_planar
from planarconn.spqr import build_spqr

FACE_DEGREES = (8, 24)
SIZES = (400, 800, 1600, 3200, 6400)
REPEATS = 3
RATIO_MARK = 3.0


def best_build(g) -> tuple[float, object]:
    """The fastest of REPEATS builds of g, and the last tree built."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        tree = build_spqr(g)
        best = min(best, time.perf_counter() - t0)
    return best, tree


def main() -> int:
    failed = 0
    for f in FACE_DEGREES:
        print(f"max_face_degree {f}")
        print(f"{'n':>6} {'m':>7} {'build_s':>9} {'ratio':>6}")
        prev = None
        for n in SIZES:
            g = random_planar(n, 1, max_face_degree=f)
            secs, tree = best_build(g)
            note = ""
            if prev is not None:
                note = f"{secs / prev:6.2f}"
                if secs > RATIO_MARK * prev:
                    note += " <-"
            try:
                tree.check()
            except AssertionError as ex:
                failed += 1
                note += f" check failed: {ex}"
            print(f"{n:>6} {g.n_edges:>7} {secs:>9.3f} {note}", flush=True)
            prev = secs
    if failed:
        print(f"{failed} trees failed check()")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
