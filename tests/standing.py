"""Standing checks: every count a change must keep or explain, compared
with the committed ``tests/standing.json``.

    python -m tests.standing [section ...]

Run from the root of a checkout; pytest does not collect this file.
With no argument it runs all five sections, in about five minutes.
Named sections run alone and are compared alone, so ``python -m
tests.standing replay`` takes seconds.  Counts, digests, failures and
``check()`` results are compared: a key that differs, that the JSON
lacks or that was not produced prints one line naming it, and the exit
status is 1.
Timings are only printed: the fastest and slowest of three repeats, the
ratio to the fastest at the size before, and ``<-`` where the fastest
is above ``RATIO_MARK`` times the slowest there, so that the spread
between repeats marks no row.  Each row also prints one count per unit
of work, marked ``<-`` where it is above ``COUNT_MARK`` times that of
the size before, where the section states a factor.  A change that
moves an expected value edits the JSON and says why.  The sections:

- ``replay``: the ``perfbench/corpus`` fixtures through
  ``harness.replay``, which compares every tree with the fixture's.  It
  keeps the records, failures, ``parent_changes``, ``split_edges``, a
  digest of each record's graph, op, node kind hit, outcome and
  failure, and per graph kind the ``DETECTOR`` counts: face walks
  (``cycle_is_separating``) in builds and in updates, ``Detector``
  mutations, rename events of separator-tree merges (``apply_merge``,
  the one walk of every merge and contraction), ``Detector.merge_across``
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
  also on the long faces of the ladder, cycle and wheel, at the
  theta's poles and at the flower's hub, a pole of every pair, and are
  marked where they grow by more than ``COUNT_MARK`` per doubling.
- ``updates``: ops, ``EmbeddedMultigraph.build`` and
  ``SpqrTree.set_parent`` calls in one pass, the final tree's
  ``split_edges`` and ``parent_changes``, and ``check()`` on it; most
  dense ops split one large R node.  Every op of the nested family
  halves an R node whose detector, at k >= 128, has internal
  separator-tree nodes, which no corpus R node has.  The parents per
  op are marked where they grow by more than ``COUNT_MARK`` per
  doubling: an update that re-hangs what stays, not what leaves, grows
  them with the graph.  The nested rows also print ``split_edges`` per
  m log2 n, marked the same way: halving bounds it by 0.5.  Every
  contraction of the wheel family splits the R node at the hub and a
  rim vertex, so its time per op grows with the hub's degree if a
  split reads the hub's rotation.
- ``loc``: the code lines of each module of ``src/planarconn`` and
  their total, counted with ``tokenize``: lines that hold a token other
  than a comment, and not only a string that stands alone as a
  statement, a docstring.  They are printed and compared with nothing.

The ``replay`` and ``updates`` sections also audit their reach: a
``sys.setprofile`` hook records the functions they enter, and each
keeps, as its ``unreached`` key, the sorted names of the package's
functions and methods it never enters, so a change that strands code or
narrows a workload's reach moves that key.  ``UNREACHED`` gives each
listed function its reason.  The hook is off while ``updates`` times
its repeats, and one untimed pass of each row's ops before them is
audited instead.  On a 2-core x86-64 box the hook takes the replay from
about 2.3 to 6.3 s, and the updates section from 22 to 45 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import sys
import time
import tokenize
from collections import Counter
from pathlib import Path

# the package's source directory, as pytest's ``pythonpath`` setting
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import harness
from planarconn import (embed, fourcycle, generators, oracle, separators,
                        spqr)
from planarconn.embed import EmbeddedMultigraph
from planarconn.generators import random_planar
from planarconn.spqr import SpqrTree, build_spqr, contract_edge, delete_edge

from .graphs import (bisection, cycle, flower, grid, inner_rungs, k4_chain,
                     nested, theta, wheel)
from .test_duality import shape
from .test_spqr import _replay_case, _replay_ops

EXPECTED = Path(__file__).with_name("standing.json")
PACKAGE = Path(spqr.__file__).resolve().parent
REPEATS = 3
# per section, how much slower than the size before marks a row
RATIO_MARK = {"build": 3.0, "updates": 1.6}
# per section, how much larger than at the size before marks a row's
# count per unit of work
COUNT_MARK = {"build": 1.5, "updates": 1.5}
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
           lambda k: theta([2] * k), FAMILY_SIZES),
          ("flower", "flower(t): hub 0 shares four faces with each of t "
           "rim vertices", flower, (100, 200, 400, 800, 1600)))
UPDATES = (("ladder", "ladder grid(2, k), inner rungs deleted in order",
            lambda k: ((g := grid(2, k)),
                       [("d", e) for e in inner_rungs(g, k)]),
            (100, 200, 400, 800)),
           ("chain", "chain of k K4s glued along edges, seams deleted in "
            "order", lambda k: (k4_chain(k), [("d", e) for e in range(1, k)]),
            (100, 200, 400, 800)),
           ("dense", "dense random_planar(k, 1), 100 ops that keep one block",
            lambda k: _replay_ops(1, k, 100)[:2],
            (200, 400, 800, 1600)),
           ("nested", "nested(k), radial a-edges deleted in bisection order",
            lambda k: (nested(k),
                       [("d", 6 * i + 3) for i in bisection(0, k - 1)]),
            (64, 128, 256, 512, 1024)),
           ("wheel", "wheel(k), even rim edges below k/2 contracted in order",
            lambda k: (wheel(k), [("c", e) for e in range(0, k // 2, 2)]),
            (200, 400, 800, 1600)))


def package_functions() -> dict:
    """The code object of every function and method in the package's
    source files, mapped to its name ``module.qualname``; functions
    nested in others are left to their parents."""
    found = {}
    for mod in (embed, fourcycle, generators, oracle, separators, spqr):
        for top in vars(mod).values():
            for obj in vars(top).values() if inspect.isclass(top) else [top]:
                fns = ((obj.fget, obj.fset, obj.fdel)
                       if isinstance(obj, property)
                       else [getattr(obj, "__func__", obj)])
                for fn in fns:
                    code = getattr(fn, "__code__", None)
                    if code and Path(code.co_filename).parent == PACKAGE:
                        found[code] = (fn.__module__.removeprefix(
                            "planarconn.") + "." + fn.__qualname__)
    return found


@contextlib.contextmanager
def reach():
    """The code objects of the functions entered inside, recorded with
    ``sys.setprofile``; :func:`unprofiled` leaves a stretch out."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        yield codes
    finally:
        sys.setprofile(None)


@contextlib.contextmanager
def unprofiled():
    """Suspend the profile hook inside, so that what is timed there is
    not slowed by it."""
    hook = sys.getprofile()
    sys.setprofile(None)
    try:
        yield
    finally:
        sys.setprofile(hook)


def unreached(codes: set) -> list[str]:
    """The package functions whose code is not in ``codes``, sorted; the
    count is printed, and each one :data:`UNREACHED` gives no reason."""
    names = sorted(name for code, name in package_functions().items()
                   if code not in codes)
    print(f"  {len(names)} package functions unreached")
    for name in names:
        if name not in UNREACHED:
            print(f"  unreached, with no reason given: {name}")
    return names


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
    merge_across = fourcycle.Detector.merge_across
    init = fourcycle.Detector.__init__
    apply_merge = separators.SeparatorTree.apply_merge

    def counted_build(g):
        walks = now["walks"]
        tree = build(g)
        now["walks build"] += now["walks"] - walks
        return tree

    def counted_walk(*args):
        now["walks"] += 1
        return walk(*args)

    def counted_merge(self, *args, **kw):
        events = apply_merge(self, *args, **kw)
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
    family.  ``measure(key, make, size)`` returns the fastest and
    slowest repeat in seconds, the final tree, the row's counts and a
    list of printed-only counts per unit of work, each with its label;
    the counts and the tree's ``check()`` are kept."""
    scale, unit = (1, "s") if section == "build" else (1e6, "us")
    out = {}
    for key, title, make, sizes in families:
        print(f"  {title}: fastest and slowest {unit}, ratio")
        out[key], prev = {}, None
        for size in sizes:
            fast, slow, tree, counts, units = measure(key, make, size)
            note = "" if prev is None else f"{fast / prev[0]:.2f}" + (
                " <-" if fast > RATIO_MARK[section] * prev[1] else "")
            per = [f"{label} {value:.2f}" + " <-" * (
                prev is not None and section in COUNT_MARK
                and value > COUNT_MARK[section] * prev[2][i])
                for i, (label, value) in enumerate(units)]
            try:
                tree.check()
                counts["check"] = "ok"
            except AssertionError as ex:
                counts["check"] = f"failed: {ex}"
            print(f"  {size:>6} {fast * scale:9.3f} {slow * scale:9.3f} "
                  f"{note:>8}  " + ", ".join(
                      [*per, *(f"{k} {v}" for k, v in counts.items())]),
                  flush=True)
            out[key][str(size)] = counts
            prev = fast, slow, [value for _, value in units]
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
    def measure(_key, make, n):
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
                [("scans", scans["scanned"] / max(1, scans["listed"]))])

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

    def play(tree, ops):
        for op, e in ops:
            tree = (delete_edge if op == "d" else contract_edge)(tree, e).tree
        return tree

    def measure(key, family, k):
        g, ops = family(k)
        play(build_spqr(g), ops)    # untimed, for the reach audit
        times = []
        for _ in range(REPEATS):
            tree = build_spqr(g)
            calls.clear()
            with unprofiled():
                t0 = time.perf_counter()
                tree = play(tree, ops)
                times.append((time.perf_counter() - t0) / len(ops))
        units = [("parents per op", calls["set_parent"] / len(ops))]
        if key == "nested":
            units.append(("split edges per m log2 n", tree.split_edges
                          / (g.n_edges * math.log2(g.n_vertices))))
        return (min(times), max(times), tree,
                {"m": g.n_edges, "ops": len(ops), "builds": calls["builds"],
                 "set_parent": calls["set_parent"],
                 "split_edges": tree.split_edges,
                 "parent_changes": tree.parent_changes}, units)

    with patched((EmbeddedMultigraph, "build", classmethod(counting_build)),
                 (SpqrTree, "set_parent", counting_set_parent)):
        return rows("updates", UPDATES, measure)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code: blank lines, comments and
    docstrings, strings that stand alone as a statement, are left out."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in skip:
            statement.append(tok)
    return len(lines)


def loc() -> dict:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"  {path.name:<16} {n:>5}")
    print(f"  {'total':<16} {total:>5}")
    return {}


SECTIONS = {"replay": replay, "fuzz": fuzz, "build": build,
            "updates": updates, "loc": loc}
# the sections whose reach is audited
AUDITED = ("replay", "updates")
# why a package function that an audited section never enters is left
# out, one line per function
CHECK = "an invariant check: check() runs in updates and fuzz, not replay"
DEBUG = "debugging: an aid or the debug audit, which no operation calls"
INPUT = "makes or reads inputs: the tests, the standing families, the bench"
INNER = "separator-tree work below a root: every corpus R node is one leaf"
MUTATION = "serves detector mutations no SPQR update makes: to be deleted"
ORACLE = "the brute-force oracle, which only the tests compare against"
READ = "read by the tests and the benchmark harness, not the updates rows"
SPLIT = "a path or star split or a block-cut rename: updates keeps one block"
TESTS = "tests only"
UNREACHED = {
    "embed.EmbeddedMultigraph._component_signature": TESTS,
    "embed.EmbeddedMultigraph.check": CHECK,
    "embed.EmbeddedMultigraph.corners": CHECK,
    "embed.EmbeddedMultigraph.dual": TESTS,
    "embed.EmbeddedMultigraph.face_degree_at_most": INNER,
    "embed.EmbeddedMultigraph.n_faces": TESTS,
    "embed.EmbeddedMultigraph.new_edge_id": INNER,
    "embed.EmbeddedMultigraph.quasi_simplify": DEBUG,
    "embed.EmbeddedMultigraph.signature": TESTS,
    "embed.GraphFormatError.__init__": "raised on malformed graph text only",
    "embed.from_straight_line_drawing": INPUT,
    "embed.parse_graph_text": INPUT,
    "embed.quasi_induced_degree": DEBUG,
    "embed.write_graph_text": INPUT,
    "fourcycle.Detector._paths_from": INNER,
    "fourcycle.Detector._phi": DEBUG,
    "fourcycle.Detector._process_insert_paths": INNER,
    "fourcycle.Detector._process_rename": INNER,
    "fourcycle.Detector._recheck_split_face": INNER,
    "fourcycle.Detector._widen": MUTATION,
    "fourcycle.Detector.check": CHECK,
    "fourcycle.Detector.contract_edge": MUTATION,
    "fourcycle.Detector.insert_edge": MUTATION,
    "generators._delaunay_edges": INPUT,
    "generators._incircle": INPUT,
    "generators._orient": INPUT,
    "generators._random53": INPUT,
    "generators._seed_words": INPUT,
    "generators.random_delaunay": INPUT,
    "generators.random_planar": INPUT,
    "generators.thin": INPUT,
    "oracle._circularly_consecutive": ORACLE,
    "oracle._connected_on": ORACLE,
    "oracle._cycle_sides": ORACLE,
    "oracle._decompose": ORACLE,
    "oracle._edge_list": ORACLE,
    "oracle._is_simple_cycle": ORACLE,
    "oracle._merge_same_kind": ORACLE,
    "oracle._quad_face_sets": ORACLE,
    "oracle._virtual_owners": ORACLE,
    "oracle.canonical_spqr": ORACLE,
    "oracle.four_cycle_edges": ORACLE,
    "oracle.fv_correspondence_check": ORACLE,
    "oracle.fv_face_of_edge": ORACLE,
    "oracle.is_biconnected": ORACLE,
    "oracle.is_separation_pair_classes": ORACLE,
    "oracle.menger_k": ORACLE,
    "oracle.separating_4cycles": ORACLE,
    "oracle.separation_classes": ORACLE,
    "oracle.separation_classes_of_edges": ORACLE,
    "oracle.separation_pairs": ORACLE,
    "oracle.simple_4cycles": ORACLE,
    "separators.SepNode.separation": CHECK,
    "separators.SepNode.separator": INNER,
    "separators.Separation.is_balanced": CHECK,
    "separators.Separation.is_face_preserving": CHECK,
    "separators.Separation.separator": INNER,
    "separators.SeparatorTree._aligned_insert": INNER,
    "separators.SeparatorTree._gain_edges": INNER,
    "separators.SeparatorTree._propagate_insertion": INNER,
    "separators.SeparatorTree._split_disconnected": TESTS,
    "separators.SeparatorTree._split_sets": INNER,
    "separators.SeparatorTree.apply_contraction": MUTATION,
    "separators.SeparatorTree.apply_insertion": MUTATION,
    "separators.SeparatorTree.check": CHECK,
    "separators.SeparatorTree.dump": DEBUG,
    "separators.SeparatorTree.height": DEBUG,
    "separators._RootScan.__init__": INNER,
    "separators._RootScan.materialise": INNER,
    "separators._Snapshot.__init__": INNER,
    "separators._Snapshot._bfs_roots": INNER,
    "separators._Snapshot.tree": INNER,
    "separators._first_held": INNER,
    "separators._induce": INNER,
    "separators._is_induced_subgraph": INNER,
    "separators._lca_tables": INNER,
    "separators._preorder": INNER,
    "separators.cycle_separations": INNER,
    "separators.triangulate": INNER,
    "spqr.SpqrNode.__repr__": DEBUG,
    "spqr.SpqrTree.check": CHECK,
    "spqr.SpqrTree.node_of_edge": READ,
    "spqr.SpqrTree.renames": TESTS,
    "spqr.SpqrTree.root": READ,
    "spqr.SpqrTree.serialize": READ,
    "spqr._break_up": SPLIT,
    "spqr._check_r_sync": CHECK,
    "spqr._children": CHECK,
    "spqr._edge_multiplicity": CHECK,
    "spqr.rename_vertex_in_block": SPLIT,
    "spqr.separation_pairs_embedded": CHECK,
}


def main(names: list[str]) -> int:
    """Run the named sections, all of them when none is named, and
    compare their values with the JSON's for those sections; exit
    status 2 for an unknown name, before any section runs."""
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        print(f"unknown section {', '.join(unknown)}; the sections are "
              f"{', '.join(SECTIONS)}")
        return 2
    expected = json.loads(EXPECTED.read_text())
    got = {}
    for name, run in SECTIONS.items():
        if names and name not in names:
            continue
        print(name, flush=True)
        t0 = time.perf_counter()
        if name in AUDITED:
            with reach() as codes:
                got[name] = run()
            got[name]["unreached"] = unreached(codes)
        else:
            got[name] = run()
        print(f"  {name}: {time.perf_counter() - t0:.1f} s", flush=True)
    lines = compare({name: expected.get(name, {}) for name in got}, got)
    print("\n".join([*lines, f"{len(flatten(got))} values compared with "
                     f"{EXPECTED.name}, {len(lines)} differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
