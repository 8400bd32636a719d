"""Replay machinery shared by the benchmark, its fixture generator and
its tests.

The program under test is the ``planarconn`` package in ``src/`` of the
checkout this directory sits in.  Everything here talks to it through
its public functions and classes only.
"""

from __future__ import annotations

import builtins
import dataclasses
import hashlib
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus"
KNOWN_FAILURES = CORPUS / "known_failures.json"

# Fixture pools: graph kind -> size -> random_planar seeds.  Sizes and
# seeds are fixed once and never re-chosen, so a fixture that exposes a
# defect or a regression stays in the corpus.
FACE_DEGREE = {"dense": 8, "sparse": 24}
SIZES = (100, 200, 400)
POOLS = {kind: {100: (1, 2, 3, 4, 5, 6), 200: (1, 2, 3, 4), 400: (1, 2)}
         for kind in FACE_DEGREE}


class ProgramMissing(RuntimeError):
    """``src/planarconn`` is not importable from this checkout."""


def load_program():
    """Import the program from ``ROOT/src``; return ``(modules, shim)``.

    ``planarconn.spqr`` uses ``@dataclass`` without importing it.  Only
    when its import fails with exactly that ``NameError`` is
    ``dataclasses.dataclass`` put into builtins and the import retried;
    ``shim`` records whether that happened.
    """
    src = ROOT / "src"
    if not (src / "planarconn" / "__init__.py").is_file():
        raise ProgramMissing(f"no planarconn package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    shim = False
    try:
        import planarconn.spqr  # noqa: F401
    except NameError as exc:
        if exc.name != "dataclass":
            raise
        sys.modules.pop("planarconn.spqr", None)
        builtins.dataclass = dataclasses.dataclass
        shim = True
    import planarconn
    import planarconn.embed
    import planarconn.fourcycle
    import planarconn.oracle
    import planarconn.separators
    import planarconn.spqr
    if Path(planarconn.__file__).resolve().parent != src / "planarconn":
        raise ProgramMissing(f"planarconn imported from {planarconn.__file__}")
    mods = {name: sys.modules[f"planarconn.{name}"]
            for name in ("embed", "fourcycle", "oracle", "separators", "spqr")}
    return mods, shim


def load_generators():
    """The generator module (it pulls in numpy and scipy, so only the
    ``gen`` workload and the fixture script import it)."""
    import planarconn.generators
    return planarconn.generators


# ----------------------------------------------------------------------
# corpus

def pool_entries():
    return [(kind, n, seed) for kind, sizes in POOLS.items()
            for n, seeds in sizes.items() for seed in seeds]


def graph_name(kind: str, n: int, seed: int) -> str:
    return f"{kind}_n{n}_s{seed}"


def read_graph(embed, name: str):
    return embed.parse_graph_text((CORPUS / "graphs" / f"{name}.txt").read_text())


def read_sequence(name: str) -> dict:
    return json.loads((CORPUS / "ops" / f"{name}.json").read_text())


def known_failures() -> set[tuple[str, int]]:
    """``(graph, op index)`` of every op the program got wrong when
    ``failures.py`` last recorded them."""
    doc = json.loads(KNOWN_FAILURES.read_text())
    return {(f["graph"], f["op_index"]) for f in doc["failures"]}


def nlog2n(n: int) -> float:
    return n * math.log2(n) ** 2


# ----------------------------------------------------------------------
# blocks of a multigraph, computed independently of the program

def biconnected_blocks(edges) -> list[list[int]]:
    """Biconnected components of a multigraph given as ``(eid, u, w)``
    triples, as lists of edge ids.  Each self-loop is a block of its
    own; parallel edges share a block."""
    adj = defaultdict(list)
    out: list[list[int]] = []
    for e, u, w in edges:
        if u == w:
            out.append([e])
            continue
        adj[u].append((w, e))
        adj[w].append((u, e))
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack = [(root, None, iter(adj[root]))]
        estack: list[int] = []
        while stack:
            v, pe, it = stack[-1]
            for w, e in it:
                if e == pe:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    estack.append(e)
                    stack.append((w, e, iter(adj[w])))
                    break
                if index[w] < index[v]:
                    estack.append(e)
                    low[v] = min(low[v], index[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= index[p]:
                        comp = []
                        while True:
                            f = estack.pop()
                            comp.append(f)
                            if f == pe:
                                break
                        out.append(comp)
    return out


class Model:
    """The benchmark's own copy of the graph and of its block
    structure, advanced op by op with the embedding primitives only.

    Blocks of at least three edges are *live*: the program keeps an
    SPQR-tree for each.  Smaller blocks (single edges, loops, two
    parallel edges) carry no tree and take no further ops.
    """

    def __init__(self, g):
        self.g = g.copy()
        self.block_of: dict[int, int] = {}
        self.blocks: dict[int, set[int]] = {}
        self._next = 0
        self._add_blocks(biconnected_blocks(self._triples(g.edge_ids())))

    def _triples(self, eids):
        return [(e, *self.g.endpoints(e)) for e in eids]

    def _add_blocks(self, comps) -> list[int]:
        made = []
        for comp in comps:
            bid = self._next
            self._next += 1
            self.blocks[bid] = set(comp)
            for e in comp:
                self.block_of[e] = bid
            made.append(bid)
        return made

    def live(self, bid: int) -> bool:
        return len(self.blocks[bid]) >= 3

    def live_edges(self) -> list[int]:
        return sorted(e for b, es in self.blocks.items()
                      if len(es) >= 3 for e in es)

    def vertices(self, bid: int) -> set[int]:
        return {v for e in self.blocks[bid] for v in self.g.endpoints(e)}

    def apply(self, op: str, e: int):
        """Apply ``op`` (``"d"`` delete, ``"c"`` contract) to edge ``e``
        of a live block.  Returns ``(made, renamed, dying, keep)``: the
        blocks the op's block broke into, the other live blocks holding
        the contracted edge's larger endpoint (now renamed to the
        smaller), and that vertex pair (``None`` for deletions)."""
        bid = self.block_of.pop(e)
        rest = self.blocks.pop(bid) - {e}
        dying = keep = None
        renamed: list[int] = []
        if op == "d":
            self.g.delete_edge(e, report=False)
        else:
            u, w = self.g.endpoints(e)
            keep, dying = min(u, w), max(u, w)
            renamed = [b for b, es in self.blocks.items()
                       if len(es) >= 3 and dying in self.vertices(b)]
            self.g.contract_edge(e, report=False)
        made = self._add_blocks(biconnected_blocks(self._triples(rest)))
        return made, renamed, dying, keep

    def block_graph(self, bid: int):
        """The block as an embedded graph of its own (rotations
        restricted to its edges)."""
        h = self.g.induced(self.vertices(bid))
        keep = self.blocks[bid]
        for f in [f for f in h.edge_ids() if f not in keep]:
            h.delete_edge(f, report=False)
        return h


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# replaying a fixture against the program

class Clock:
    """Times calls into the program.  ``call`` returns ``(result,
    error, seconds)``; an exception raised by the program is returned,
    not raised, so that it counts as a failed op.

    With a ``speed.Speed`` that is sampling, the seconds are those the
    call would have taken at the reference speed: its wall time, less
    the time spent sampling during it, times the mean speed sampled
    over it.  Without one they are plain wall time."""

    def __init__(self, speed=None):
        self.speed = speed

    def call(self, fn, *args):
        spent = self.speed.spent if self.speed else 0.0
        t0 = perf_counter()
        try:
            res, err = fn(*args), None
        except Exception as exc:  # the program's failure is the datum
            res, err = None, exc
        secs = perf_counter() - t0
        if self.speed:
            secs = (secs - (self.speed.spent - spent)) * self.speed.since(t0)
        return res, err, secs


@dataclasses.dataclass
class OpRecord:
    graph: str
    index: int          # op index in the fixture; -1 for the build
    op: str             # "build", "d" or "c"
    hit: str            # kind of the node holding the edge, read before
    outcome: str        # ChangeLog kind, or "" for the build
    seconds: float
    failure: str = ""   # "" when the op's output matched


@dataclasses.dataclass
class SequenceResult:
    graph: str
    n: int
    build_s: float
    records: list
    parent_changes: int
    split_edges: int
    candidates: int = 0     # filled in by a traced run


def _result_trees(log) -> list:
    if log.kind == "intact":
        return [log.tree]
    if log.kind == "pair":
        return []
    return [p.tree for p in log.pieces if p.tree is not None]


def _real_edges(tree) -> list[int]:
    return [e for x in tree.nodes() for e in x.real_ids()]


def _compare(trees, want) -> str:
    try:
        got = sorted(digest(t.serialize()) for t in trees)
    except Exception as exc:
        return f"serialize {type(exc).__name__}: {exc}"
    if got != sorted(d for d, _ref in want):
        return "wrong tree"
    return ""


def replay(mods, g, seq: dict, clock: Clock) -> SequenceResult:
    """Build the SPQR-tree of ``g`` and run the fixture's ops, timing
    only calls into ``spqr``.  After every op, untimed, the trees of all
    blocks the op produced or renamed are compared with the fixture's
    expected digests.  An exception or a mismatch marks the op failed;
    the affected blocks are then rebuilt from the benchmark's own copy
    of the graph so that the rest of the sequence still runs."""
    spqr = mods["spqr"]
    name = seq["graph"]
    model = Model(g)
    owner: dict[int, object] = {}
    shareds: dict[int, object] = {}
    records: list[OpRecord] = []

    def adopt(bid, tree):
        owner[bid] = tree
        shareds.setdefault(id(tree.shared), tree)

    def rebuild(bids):
        for b in bids:
            try:
                adopt(b, spqr.build_spqr(model.block_graph(b)))
            except Exception:
                owner.pop(b, None)  # later ops on it count as failed

    live = [b for b in model.blocks if model.live(b)]
    tree, err, build_s = clock.call(spqr.build_spqr, g)
    failure = (f"{type(err).__name__}: {err}" if err
               else _compare([tree], seq["build"]) if len(live) == 1
               else "several initial blocks")
    records.append(OpRecord(name, -1, "build", "", "", build_s, failure))
    if failure:
        rebuild(live)
    else:
        adopt(live[0], tree)

    for i, (op, e) in enumerate(seq["ops"]):
        bid = model.block_of[e]
        tree = owner.pop(bid, None)
        made, renamed, dying, keep = model.apply(op, e)
        touched = [b for b in made if model.live(b)] + renamed
        if tree is None:
            records.append(OpRecord(name, i, op, "", "", 0.0, "no tree"))
            rebuild(touched)
            continue
        try:
            hit = tree.node_of_edge[e].kind
        except (KeyError, AttributeError):
            hit = "?"
        fn = spqr.delete_edge if op == "d" else spqr.contract_edge
        log, err, secs = clock.call(fn, tree, e)
        outcome = log.kind if log is not None else "error"
        trees = _result_trees(log) if log is not None else []
        for b in renamed:
            if err is not None:
                break
            t = owner.get(b)
            node = None if t is None else next(
                (x for x in t.nodes() if x.graph.has_vertex(dying)), None)
            if node is None:
                err = LookupError(f"no tree of block {b} holds vertex {dying}")
                break
            _res, err, rs = clock.call(spqr.rename_vertex_in_block,
                                       t, node, dying, keep)
            secs += rs
            trees.append(t)
        failure = (f"{type(err).__name__}: {err}" if err is not None
                   else _compare(trees, seq["expect"][i]))
        records.append(OpRecord(name, i, op, hit, outcome, secs, failure))
        if failure:
            rebuild(touched)
            continue
        if len(trees) == 1 == len(touched):
            adopt(touched[0], trees[0])
        else:
            for t in trees:
                adopt(model.block_of[min(_real_edges(t))], t)

    return SequenceResult(
        graph=name, n=seq["n"], build_s=build_s, records=records,
        parent_changes=sum(t.parent_changes for t in shareds.values()),
        split_edges=sum(t.split_edges for t in shareds.values()))
