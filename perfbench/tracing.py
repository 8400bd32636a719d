"""Spans around calls into the program's public API, recorded from
outside the program.

``Tracer.install`` swaps each traced function or method for a wrapper
and ``uninstall`` puts the originals back.  A wrapper records a span
only while the tracer is armed, which the benchmark does around its
timed calls, so its own untimed bookkeeping never shows up.  Spans are
kept in memory; a layer's self time is its spans' time minus the time
of their direct child spans.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path) for every traced entry point
TRACED = (
    ("generators.random_planar", "generators", "random_planar"),
    ("generators.thin", "generators", "thin"),
    ("oracle.is_biconnected", "oracle", "is_biconnected"),
    ("embed.build", "embed", "EmbeddedMultigraph.build"),
    ("embed.copy", "embed", "EmbeddedMultigraph.copy"),
    ("embed.induced", "embed", "EmbeddedMultigraph.induced"),
    ("embed.vertex_face_graph", "embed", "EmbeddedMultigraph.vertex_face_graph"),
    ("spqr.build", "spqr", "build_spqr"),
    ("spqr.separation_pairs", "spqr", "separation_pairs_embedded"),
    ("spqr.update", "spqr", "delete_edge"),
    ("spqr.update", "spqr", "contract_edge"),
    ("spqr.update", "spqr", "rename_vertex_in_block"),
    ("separators.tree_build", "separators", "SeparatorTree.__init__"),
    ("separators.apply", "separators", "SeparatorTree.apply_contraction"),
    ("separators.apply", "separators", "SeparatorTree.apply_insertion"),
    ("separators.apply", "separators", "SeparatorTree.apply_deletion"),
    ("fourcycle.detector_init", "fourcycle", "Detector.__init__"),
    ("fourcycle.update", "fourcycle", "Detector.insert_edge"),
    ("fourcycle.update", "fourcycle", "Detector.contract_edge"),
)


class Tracer:
    def __init__(self):
        self.armed = False
        # per span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, res)
            return res
        return traced

    def install(self, mods: dict) -> None:
        """Wrap every entry point of ``TRACED`` found in ``mods``."""
        hooks = {
            "generators.thin": self._after_thin,
            "fourcycle.detector_init": self._after_detector_init,
        }
        for name, mod, path in TRACED:
            if mod not in mods:
                continue
            owner = mods[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            after = hooks.get(name)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, after))
            elif name == "fourcycle.update":
                new = self._counting(name, raw)
            else:
                new = self._wrap(name, raw, after)
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # -- counters taken at layer boundaries -------------------------------

    def _after_thin(self, args, res) -> None:
        self.counts["thin.edges_deleted"] += args[0].n_edges - res.n_edges

    def _after_detector_init(self, args, _res) -> None:
        if self.in_span("spqr.update"):
            self.counts["spqr.r_rebuilds"] += 1
            self.counts["fourcycle.update_candidates"] += \
                args[0].candidates_total

    def _counting(self, name: str, fn):
        """A detector update method: also count the candidate paths it
        examined while serving an SPQR update."""
        inner = self._wrap(name, fn)

        def traced(det, *args, **kwargs):
            if not (self.armed and self.in_span("spqr.update")):
                return inner(det, *args, **kwargs)
            before = det.candidates_total
            try:
                return inner(det, *args, **kwargs)
            finally:
                self.counts["fourcycle.update_candidates"] += \
                    det.candidates_total - before
        return traced

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, t0, t1, _parent), c in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - c
        return out
