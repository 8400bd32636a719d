"""Standing checks: every count a change must keep or explain, compared
with the committed ``tests/standing.json``.

    python -m tests.standing

Run from the root of a checkout; pytest does not collect this file.  It
takes about four minutes.  Counts, digests, failures and ``check()``
results are compared: a key that differs, that the JSON lacks or that
was not produced prints one line naming it, and the exit status is 1.
Timings are only printed: the fastest and slowest of three repeats, the
ratio to the fastest at the size before, and ``<-`` where the fastest
is above ``RATIO_MARK`` times the slowest there, so that the spread
between repeats marks no row.  A change that moves an expected value
edits the JSON and says why.  The sections:

- ``replay``: the ``perfbench/corpus`` fixtures through
  ``harness.replay``, which compares every tree with the fixture's.  It
  keeps the records, failures, ``parent_changes``, ``split_edges``, a
  digest of each record's graph, op, node kind hit, outcome and
  failure, and per graph kind the ``DETECTOR`` counts: face walks
  (``cycle_is_separating``) in builds and in updates, ``Detector``
  mutations, rename events of separator-tree merges (``apply_merge``,
  which every contraction runs through), ``Detector.merge_across``
  calls across a quad of four distinct corners by the degree of the
  corner that retires, across the quad of a pendant edge, whose
  retiring corner has degree 1, and across any other face,
  ``candidates_total`` and ``lifted_total``, and the paths the tables
  of every ``Detector`` hold and the nodes of its separator tree right
  after its construction.
- ``fuzz``: each op of ``_replay_ops`` on the primal tree and, swapped,
  on the dual's: ``intact``, ``check()`` on both sides, the same shape
  with S and P swapped, and in the oracle leg the oracle's tree.
- ``build``: edges, ``check()``, the S records and pair records that
  ``separation_records`` lists, and the vertices ``_split_classes``
  scans (rotations read but at the record's vertices) and lists (inner
  vertices of its classes) in one build, at pairs and at S records
  alike; the printed scans per listed vertex stay a small constant,
  also on the long faces of the ladder, cycle and wheel and at the
  theta's poles.
- ``updates``: ops, ``EmbeddedMultigraph.build`` and
  ``SpqrTree.set_parent`` calls in one pass, and ``check()`` on the
  final tree; most dense ops split one large R node.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# the package's source directory, as pytest's ``pythonpath`` setting
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import harness
from planarconn import fourcycle, separators, spqr
from planarconn.embed import EmbeddedMultigraph
from planarconn.generators import random_planar
from planarconn.spqr import SpqrTree, build_spqr, contract_edge, delete_edge

from .graphs import cycle, grid, inner_rungs, k4_chain, theta, wheel
from .test_duality import shape
from .test_spqr import _replay_case, _replay_ops

EXPECTED = Path(__file__).with_name("standing.json")
REPEATS = 3
# per section, how much slower than the size before marks a row
RATIO_MARK = {"build": 3.0, "updates": 1.6}
# per graph kind, the detector counters of the replay
DETECTOR = ("walks build", "walks updates", "mutations", "renames",
            "in-place degree 2", "in-place more", "pendant merges",
            "non-quad merges", "candidates", "lifted", "paths built",
            "tree nodes built")
# (leg, sizes, seeds, whether the oracle checks every primal tree)
FUZZ_LEGS = (("oracle", (20, 24, 32, 40), range(40), True),
             ("large", (200, 400), range(20), False))
FAMILY_SIZES = (200, 400, 800, 1600, 3200, 6400)
BUILDS = (*((f"random_planar f {f}", f"random_planar(n, 1, {f})",
             lambda n, f=f: random_planar(n, 1, max_face_degree=f),
             (400, 800, 1600, 3200, 6400)) for f in (8, 24)),
          ("ladder", "ladder grid(2, k)", lambda k: grid(2, k),
           FAMILY_SIZES),
          ("cycle", "cycle(n)", cycle, FAMILY_SIZES),
          ("wheel", "wheel(k)", wheel, FAMILY_SIZES),
          ("theta", "theta: poles joined by k paths of length 2",
           lambda k: theta([2] * k), FAMILY_SIZES))
UPDATES = (("ladder", "ladder grid(2, k), inner rungs deleted in order",
            lambda k: ((g := grid(2, k)),
                       [("d", e) for e in inner_rungs(g, k)]),
            (100, 200, 400, 800)),
           ("chain", "chain of k K4s glued along edges, seams deleted in "
            "order", lambda k: (k4_chain(k), [("d", e) for e in range(1, k)]),
            (100, 200, 400, 800)),
           ("dense", "dense random_planar(k, 1), 100 ops that keep one block",
            lambda k: _replay_ops(1, k, 100)[:2],
            (200, 400, 800, 1600)))


@contextlib.contextmanager
def patched(*changes):
    """Set each ``(owner, name, value)`` and put the originals back on
    exit, so that one section's counting wrappers neither count nor slow
    the next."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in changes]
    try:
        for owner, name, value in changes:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def flatten(doc: dict, prefix: str = "") -> dict:
    """Nested sections as one dict keyed by ``section/.../name``."""
    out = {}
    for k, v in doc.items():
        if isinstance(v, dict):
            out.update(flatten(v, f"{prefix}{k}/"))
        else:
            out[prefix + k] = v
    return out


def compare(expected: dict, got: dict) -> list[str]:
    """One line per key whose value differs, or that only one of
    ``expected`` and ``got`` has."""
    want, have = flatten(expected), flatten(got)
    lines = []
    for key in sorted(want.keys() | have.keys()):
        w, h = (repr(d[key]) if key in d else "nothing" for d in (want, have))
        if w != h:
            lines.append(f"{key}: expected {w}, got {h}")
    return lines


def replay() -> dict:
    mods, _shim = harness.load_program()
    work = {kind: Counter() for kind in harness.FACE_DEGREE}
    build = spqr.build_spqr
    walk = fourcycle.cycle_is_separating
    merge = separators.SeparatorTree.apply_merge
    merge_across = fourcycle.Detector.merge_across
    init = fourcycle.Detector.__init__

    def counted_build(g):
        walks = now["walks"]
        tree = build(g)
        now["walks build"] += now["walks"] - walks
        return tree

    def counted_walk(*args):
        now["walks"] += 1
        return walk(*args)

    def counted_merge(self, *args):
        events = merge(self, *args)
        now["renames"] += sum(ev[0] == "rename" for ev in events)
        return events

    def classified_merge_across(self, u, w, after_u, after_w):
        h = self.tree.root.graph
        r = u + w - separators.merge_survivor(h, u, w)
        if fourcycle._opposite_on_quad(h, after_u, after_w):
            now["in-place degree 2" if h.degree(r) == 2
                else "in-place more"] += 1
        else:
            now["pendant merges" if h.degree(r) == 1
                else "non-quad merges"] += 1
        return merge_across(self, u, w, after_u, after_w)

    def counted_init(self, *args, **kw):
        init(self, *args, **kw)
        now["paths built"] += sum(len(legs) for st in self._states.values()
                                  for legs in st.paths.values())
        now["tree nodes built"] += len(self._states)

    def counted_mutation(method):
        def run(self, *args, **kw):
            c0, l0 = self.candidates_total, self.lifted_total
            try:
                return method(self, *args, **kw)
            finally:
                now["mutations"] += 1
                now["candidates"] += self.candidates_total - c0
                now["lifted"] += self.lifted_total - l0
        return run

    h = hashlib.sha256()
    out = Counter()
    Detector, SeparatorTree = fourcycle.Detector, separators.SeparatorTree
    with patched((spqr, "build_spqr", counted_build),
                 (fourcycle, "cycle_is_separating", counted_walk),
                 (SeparatorTree, "apply_merge", counted_merge),
                 (Detector, "__init__", counted_init),
                 *((Detector, name, counted_mutation(method)) for name, method
                   in (("insert_edge", Detector.insert_edge),
                       ("contract_edge", Detector.contract_edge),
                       ("merge_across", classified_merge_across)))):
        for kind, n, seed in harness.pool_entries():
            now = work[kind]
            name = harness.graph_name(kind, n, seed)
            res = harness.replay(mods, harness.read_graph(mods["embed"], name),
                                 harness.read_sequence(name), harness.Clock())
            for r in res.records:
                h.update(repr((r.graph, r.index, r.op, r.hit, r.outcome,
                               r.failure)).encode())
                if r.failure:
                    print(f"  {r.graph} op {r.index} {r.op}: {r.failure}")
            out["records"] += len(res.records)
            out["failed"] += sum(bool(r.failure) for r in res.records)
            out["parent_changes"] += res.parent_changes
            out["split_edges"] += res.split_edges
    out = {**out, "digest": h.hexdigest()[:16]}
    print("  " + ", ".join(f"{k} {v}" for k, v in out.items()))
    for kind, w in work.items():
        w["walks updates"] = w["walks"] - w["walks build"]
        out[kind] = {k: w[k] for k in DETECTOR}
        print(f"  {kind}: " + ", ".join(f"{k} {v}"
                                        for k, v in out[kind].items()))
    return out


def fuzz_run(n: int, seed: int, oracle: bool) -> tuple[int, str | None]:
    """The ops of one run and its first failure as ``step side error``,
    or None."""
    if oracle:
        g, ops, wants = _replay_case(seed, n)
    else:
        g, ops, _ = _replay_ops(seed, n)
        wants = (None,) * len(ops)
    trees = {"primal": build_spqr(g), "dual": build_spqr(g.dual()[0])}
    for step, ((op, e), want) in enumerate(zip(ops, wants)):
        for side in trees:
            try:
                fn = delete_edge if (op == "d") == (side == "primal") \
                    else contract_edge
                log = fn(trees[side], e)
                assert log.kind == "intact", f"outcome {log.kind}"
                tree = trees[side] = log.tree
                tree.check()
                if side == "primal":
                    assert want is None or tree.serialize() == want, \
                        "tree differs from the oracle's"
                else:
                    assert shape(tree, True) == shape(trees["primal"]), \
                        "tree differs from the primal tree's dual"
            except Exception as ex:
                return len(ops), f"{step} {side} {type(ex).__name__}: {ex}"
    return len(ops), None


def fuzz() -> dict:
    out = {}
    for leg, sizes, seeds, oracle in FUZZ_LEGS:
        c = out[leg] = {"runs": 0, "ops": 0, "failed": 0}
        for n in sizes:
            for seed in seeds:
                ops, failure = fuzz_run(n, seed, oracle)
                c["runs"] += 1
                c["ops"] += ops
                if failure:
                    c["failed"] += 1
                    print(f"  {n} {seed} {failure}", flush=True)
        print(f"  {leg}: {c['failed']} of {c['runs']} runs failed, "
              f"{c['ops']} ops")
    return out


def rows(section: str, families, measure) -> dict:
    """Print and collect the rows of each ``(key, title, make, sizes)``
    family.  ``measure(make, size)`` returns the fastest and slowest
    repeat in seconds, the final tree, the row's counts and a
    printed-only ratio; the counts and the tree's ``check()`` are
    kept."""
    scale, unit = (1, "s") if section == "build" else (1e6, "us")
    out = {}
    for key, title, make, sizes in families:
        print(f"  {title}: fastest and slowest {unit}, ratio")
        out[key], prev = {}, None
        for size in sizes:
            fast, slow, tree, counts, shown = measure(make, size)
            note = "" if prev is None else f"{fast / prev[0]:.2f}" + (
                " <-" if fast > RATIO_MARK[section] * prev[1] else "")
            try:
                tree.check()
                counts["check"] = "ok"
            except AssertionError as ex:
                counts["check"] = f"failed: {ex}"
            print(f"  {size:>6} {fast * scale:9.3f} {slow * scale:9.3f} "
                  f"{note:>8}  {shown}, "
                  + ", ".join(f"{k} {v}" for k, v in counts.items()),
                  flush=True)
            out[key][str(size)] = counts
            prev = fast, slow
    return out


def split_scans(g) -> dict:
    """The vertices ``spqr._split_classes`` scans and lists over one
    build of g."""
    split_classes = spqr._split_classes
    seen = Counter()

    def counted(h, rec, k):
        rotation = h.rotation

        def counting(v):
            seen["scanned"] += v not in rec
            return rotation(v)

        h.rotation = counting
        try:
            singles, done = split_classes(h, rec, k)
        finally:
            del h.rotation
        seen["listed"] += sum(len(inner) for _, inner in done)
        return singles, done

    with patched((spqr, "_split_classes", counted)):
        build_spqr(g)
    return {"scanned": seen["scanned"], "listed": seen["listed"]}


def build() -> dict:
    def measure(make, n):
        g = make(n)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            tree = build_spqr(g)
            times.append(time.perf_counter() - t0)
        records = spqr.separation_records(g)
        cycles = sum(len(q) > 2 for q in records)
        scans = split_scans(g)
        return (min(times), max(times), tree,
                {"m": g.n_edges, "S records": cycles,
                 "pair records": len(records) - cycles, **scans},
                f"scans {scans['scanned'] / max(1, scans['listed']):.2f}")

    return rows("build", BUILDS, measure)


def updates() -> dict:
    calls = Counter()
    build = vars(EmbeddedMultigraph)["build"].__func__
    set_parent = SpqrTree.set_parent

    def counting_build(cls, *args):
        calls["builds"] += 1
        return build(cls, *args)

    def counting_set_parent(self, node, parent):
        calls["set_parent"] += 1
        set_parent(self, node, parent)

    def measure(family, k):
        g, ops = family(k)
        times = []
        for _ in range(REPEATS):
            tree = build_spqr(g)
            calls.clear()
            t0 = time.perf_counter()
            for op, e in ops:
                fn = delete_edge if op == "d" else contract_edge
                tree = fn(tree, e).tree
            times.append((time.perf_counter() - t0) / len(ops))
        return (min(times), max(times), tree,
                {"m": g.n_edges, "ops": len(ops), "builds": calls["builds"],
                 "set_parent": calls["set_parent"]},
                f"parents per op {calls['set_parent'] / len(ops):.1f}")

    with patched((EmbeddedMultigraph, "build", classmethod(counting_build)),
                 (SpqrTree, "set_parent", counting_set_parent)):
        return rows("updates", UPDATES, measure)


SECTIONS = {"replay": replay, "fuzz": fuzz, "build": build,
            "updates": updates}


def main() -> int:
    expected = json.loads(EXPECTED.read_text())
    got = {}
    for name, run in SECTIONS.items():
        print(name, flush=True)
        t0 = time.perf_counter()
        got[name] = run()
        print(f"  {name}: {time.perf_counter() - t0:.1f} s", flush=True)
    lines = compare(expected, got)
    print("\n".join([*lines, f"{len(flatten(got))} values compared with "
                     f"{EXPECTED.name}, {len(lines)} differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
