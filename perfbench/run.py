"""Decremental SPQR-tree benchmark.

    python3 perfbench/run.py --workload {gen,dense,sparse} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from
``src/planarconn``; inputs are the committed fixtures under
``perfbench/corpus`` (see README.md).  One run makes one pass over the
workload's fixtures for every 10 s of ``--seconds``, at least two, in
the order the seed sets, and checks every output.  Times are reported
at a fixed reference speed of the machine, sampled while the run goes
on (``speed.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  ``failed`` counts every
failed op; ``correct`` is false when an op failed that
``corpus/known_failures.json`` does not list.  Exit code 2 means the
program or the corpus is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import harness
from speed import Speed
from tracing import Tracer

WORKLOADS = ("gen", "dense", "sparse")
# The fixtures of a pass: (kind, n, pool seeds).  They are the same in
# every run, and the seed sets their order: graphs differ so much in
# their slowest updates that when the seed chose among them, the tail
# percentiles followed its choice.  Each workload replays at least 1000
# updates per pass.
PASS_FIXTURES = {
    "gen": [("dense", 100, (1, 2, 3, 4, 5, 6)), ("dense", 200, (4,))],
    "dense": [("dense", 100, (1, 2)), ("dense", 200, (4,)),
              ("dense", 400, (2,))],
    "sparse": [("sparse", 100, (1, 2, 3, 4, 5, 6)),
               ("sparse", 200, (1, 2, 3, 4)), ("sparse", 400, (1, 2))],
}
# gen also generates these dense n = 100 fixtures in every pass.  One
# generation takes about 3.7 s; a second would push a gen run past
# 45 s.
GEN_SEEDS = (1,)
# Seconds of ``--seconds`` that one pass stands for: a run makes
# round(--seconds / SECONDS_PER_PASS) passes, at least two.  A pass
# takes about 9.5 s (gen), 11 s (dense) or 11 s (sparse) on a 2-core
# x86-64 box, checks included.  A run starts no further pass that
# would likely end after OVERRUN times --seconds.
SECONDS_PER_PASS = 10.0
OVERRUN = 1.4
SETUP_PROBES = 5        # fresh processes timed for setup_s


@dataclass
class Inputs:
    workload: str
    names: list                     # fixture names, in pass order
    graphs: dict                    # name -> parsed graph
    seqs: dict                      # name -> op fixture
    texts: dict                     # name -> graph file text
    generate: frozenset = frozenset()   # names gen generates each pass


@dataclass
class Pass:
    # ("gen" | "build" | "update", graph, op index) -> seconds
    times: dict = field(default_factory=dict)
    updates: list = field(default_factory=list)     # OpRecords
    results: list = field(default_factory=list)     # SequenceResults
    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.times.values())


def choose(workload: str, seed: int) -> list[str]:
    """The fixtures of every pass, in the order ``seed`` sets."""
    names = [harness.graph_name(kind, n, s)
             for kind, n, pool in PASS_FIXTURES[workload] for s in pool]
    random.Random(seed).shuffle(names)
    return names


def setup(workload: str, seed: int):
    mods, shim = harness.load_program()
    inputs = Inputs(workload, choose(workload, seed), {}, {}, {})
    if workload == "gen":
        mods["generators"] = harness.load_generators()
        inputs.generate = frozenset(harness.graph_name("dense", 100, s)
                                    for s in GEN_SEEDS)
    for name in inputs.names:
        path = harness.CORPUS / "graphs" / f"{name}.txt"
        inputs.texts[name] = path.read_text()
        inputs.graphs[name] = mods["embed"].parse_graph_text(inputs.texts[name])
        inputs.seqs[name] = harness.read_sequence(name)
    return mods, shim, inputs


def one_pass(mods, inputs: Inputs, clock) -> Pass:
    """Replay every fixture of the pass.  A fixture in
    ``inputs.generate`` is first generated and compared byte for byte
    with the committed graph; the committed graph is replayed either
    way."""
    p = Pass()
    for name in inputs.names:
        g = inputs.graphs[name]
        if name in inputs.generate:
            seq = inputs.seqs[name]
            made, err, secs = clock.call(
                mods["generators"].random_planar, seq["n"], seq["seed"],
                seq["max_face_degree"])
            p.times["gen", name, -1] = secs
            p.attempted += 1
            if err is not None:
                p.failures.append((name, "generate", repr(err)))
            elif mods["embed"].write_graph_text(made) != inputs.texts[name]:
                p.failures.append((name, "generate", "not byte-identical"))
        tracer = getattr(clock, "tracer", None)
        c0 = tracer.counts["fourcycle.update_candidates"] if tracer else 0
        res = harness.replay(mods, g, inputs.seqs[name], clock)
        if tracer:
            res.candidates = tracer.counts["fourcycle.update_candidates"] - c0
        p.results.append(res)
        p.attempted += len(res.records)
        for r in res.records:
            p.times["build" if r.index < 0 else "update", name, r.index] = \
                r.seconds
            if r.failure:
                p.failures.append((name, r.index, r.failure))
        p.updates += [r for r in res.records if r.index >= 0]
    return p


def typical(passes: list[Pass]) -> dict:
    """Each timed call's median time over the identical passes.  It is
    steadier from run to run than the fastest time: ``spqr`` iterates
    sets hashed by object identity, so a heavy R update's work differs
    from pass to pass, and the minimum picks the luckiest pass."""
    return {key: statistics.median(p.times[key] for p in passes)
            for key in passes[0].times}


class TracedClock(harness.Clock):
    def __init__(self, tracer: Tracer, speed: Speed):
        super().__init__(speed)
        self.tracer = tracer

    def call(self, fn, *args):
        self.tracer.armed = True
        try:
            return super().call(fn, *args)
        finally:
            self.tracer.armed = False


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, -(-len(s) * q // 100) - 1)] if s else 0.0


def setup_probe_seconds(args) -> list[float]:
    """Set-up time of fresh processes, each at the reference speed:
    its wall time times the mean speed it sampled while it set up, which
    it prints last."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        secs = time.perf_counter() - t0
        out.append(secs * float(done.stdout.split()[-1]))
    return out


def new_failures(p: Pass, known: set) -> list:
    """The pass's failed ops that the known-failure list does not hold."""
    return [f for f in p.failures if f[:2] not in known]


def end_to_end(passes: list[Pass], setup_s: float, known: set) -> dict:
    per_call = typical(passes)
    times = [t for (kind, _g, _i), t in per_call.items() if kind == "update"]
    attempted = sum(p.attempted for p in passes)
    new = sum(len(new_failures(p, known)) for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "build_s": (sum(t for (kind, _g, _i), t in per_call.items()
                        if kind == "build"), "s"),
        "update_amortized_us": (1e6 * sum(times) / len(times), "us"),
        "update_p50_us": (1e6 * percentile(times, 50), "us"),
        "update_p95_us": (1e6 * percentile(times, 95), "us"),
        "sequence_s": (sum(per_call.values()), "s"),
        "regression_free_share": (1 - new / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(traced: list[Pass], plain: list[Pass], tracer: Tracer,
              shim: bool, speed: float) -> dict:
    """Span times are wall time; like the end-to-end times they are
    reported at the reference speed, scaled by the run's mean sampled
    ``speed``."""
    k = len(traced)
    tot = tracer.totals()

    def s(name, key="s"):
        return speed * tot[name][key] / k if name in tot else 0.0

    def calls(name):
        return tot[name]["calls"] / k if name in tot else 0

    counts = {c: v / k for c, v in tracer.counts.items()}
    checks = calls("oracle.is_biconnected")
    embed_self = speed * sum(v["self_s"] for n, v in tot.items()
                             if n.startswith("embed.")) / k
    recs = plain[0].updates
    per_call = typical(plain)
    by_kind = {kd: [per_call["update", r.graph, r.index] for r in recs
                    if r.hit in kinds]
               for kd, kinds in (("R", ("R",)), ("SP", ("S", "P")))}
    out = {
        "generators.random_planar.s": (s("generators.random_planar"), "s"),
        "generators.thin.self_s": (s("generators.thin", "self_s"), "s"),
        "generators.thin.accept_ratio": (
            counts.get("thin.edges_deleted", 0) / checks if checks else 0.0,
            "ratio"),
        "oracle.is_biconnected.s": (s("oracle.is_biconnected"), "s"),
        "oracle.is_biconnected.calls": (checks, "count"),
        "embed.copy.calls": (calls("embed.copy"), "count"),
        "embed.copy.s": (s("embed.copy"), "s"),
        "embed.build.calls": (calls("embed.build"), "count"),
        "embed.induced.calls": (calls("embed.induced"), "count"),
        "embed.vertex_face_graph.calls": (calls("embed.vertex_face_graph"),
                                          "count"),
        "embed.self_s": (embed_self, "s"),
        "spqr.build.self_s": (s("spqr.build", "self_s"), "s"),
        "spqr.separation_pairs.s": (s("spqr.separation_pairs"), "s"),
        "separators.tree_build.s": (s("separators.tree_build"), "s"),
        "separators.tree_build.calls": (calls("separators.tree_build"),
                                        "count"),
        "separators.apply.s": (s("separators.apply"), "s"),
        "fourcycle.detector_init.s": (s("fourcycle.detector_init"), "s"),
        "fourcycle.detector_init.calls": (calls("fourcycle.detector_init"),
                                          "count"),
        "fourcycle.update.s": (s("fourcycle.update"), "s"),
        "spqr.r_rebuilds": (counts.get("spqr.r_rebuilds", 0), "count"),
        "spqr.update.self_s": (s("spqr.update", "self_s"), "s"),
        "spqr.update_SP_mean_us": (
            1e6 * statistics.fmean(by_kind["SP"]) if by_kind["SP"] else 0.0,
            "us"),
        "spqr.update_R_mean_us": (
            1e6 * statistics.fmean(by_kind["R"]) if by_kind["R"] else 0.0,
            "us"),
        "spqr.update_p99_us": (1e6 * percentile(
            [per_call["update", r.graph, r.index] for r in recs], 99), "us"),
    }
    for kd in "RSP":
        out[f"spqr.updates_{kd}"] = (sum(r.hit == kd for r in recs), "count")
    out["spqr.outcome_intact"] = (
        sum(r.outcome == "intact" for r in recs), "count")
    out["spqr.outcome_split"] = (
        sum(r.outcome in ("path", "star", "pair") for r in recs), "count")
    for n in harness.SIZES:
        sized = [res for res in traced[0].results if res.n == n]
        scale = harness.nlog2n(n) * len(sized) if sized else 1.0
        for name, attr in (("spqr.parent_changes", "parent_changes"),
                           ("spqr.split_edges", "split_edges"),
                           ("fourcycle.candidates", "candidates")):
            out[f"{name}_per_nlog2n.n{n}"] = (
                sum(getattr(res, attr) for res in sized) / scale, "1/nlog2n")
    out["trace.overhead_share"] = (
        statistics.median(p.seconds for p in traced)
        / statistics.median(p.seconds for p in plain) - 1, "ratio")
    out["spqr_import_shim"] = (int(shim), "flag")
    return out


def run(args) -> int:
    speed = Speed()
    try:
        with speed:
            mods, shim, inputs = setup(args.workload, args.seed)
            known = harness.known_failures()
    except (harness.ProgramMissing, FileNotFoundError) as exc:
        print(f"cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(speed.mean())
        return 0
    if not args.trace:
        setup_s = statistics.median(setup_probe_seconds(args))
    gc.freeze()  # the fixtures stay alive all run; keep them out of GC scans
    n_passes = max(2, round(args.seconds / SECONDS_PER_PASS))
    if args.trace:
        # each traced pass comes with an untraced one
        n_passes = max(1, n_passes // 2)
    print(f"workload {args.workload} seed {args.seed}: {n_passes} passes "
          f"over {' '.join(inputs.names)}")
    print(f"spqr_import_shim: {str(shim).lower()}")

    tracer = Tracer()
    plain_clock = harness.Clock(speed)
    traced_clock = TracedClock(tracer, speed)
    plain: list[Pass] = []
    traced: list[Pass] = []
    with speed:
        warm_up(mods, inputs)
        t0 = time.perf_counter()
        for k in range(n_passes):
            spent = time.perf_counter() - t0
            if k >= 2 and spent * (k + 1) / k > OVERRUN * args.seconds:
                break
            plain.append(one_pass(mods, inputs, plain_clock))
            if args.trace:
                traced.append(_traced_pass(mods, inputs, tracer,
                                           traced_clock))

    counted = traced if args.trace else plain
    attempted = sum(p.attempted for p in counted)
    failed = sum(len(p.failures) for p in counted)
    new = sum(len(new_failures(p, known)) for p in counted)
    if args.trace:
        metrics = per_layer(traced, plain, tracer, shim, speed.mean())
    else:
        metrics = end_to_end(plain, setup_s, known)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"machine speed: mean {speed.mean():.3f} of the reference over "
          f"{len(speed.speeds)} samples")
    print(f"passes {len(counted)}; updates per pass (percentile samples) "
          f"{len(counted[0].updates)}; "
          f"failed_share {failed / attempted:.6f} ({failed}/{attempted}), "
          f"not known before {new}")
    seen = Counter(f for p in counted for f in p.failures)
    for (name, index, why), times in sorted(seen.items(), key=str):
        tag = "known" if (name, index) in known else "NEW"
        print(f"failed ({tag}, {times} of {len(counted)} passes): "
              f"{name} op {index}: {why}")
    print(json.dumps({
        "correct": new == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def warm_up(mods, inputs: Inputs) -> None:
    """Run the smallest fixture once, untimed, so that lazy set-up in
    the interpreter and the libraries is done before timing starts."""
    name = min(inputs.names, key=lambda nm: inputs.seqs[nm]["n"])
    harness.replay(mods, inputs.graphs[name], inputs.seqs[name],
                   harness.Clock())
    if "generators" in mods:
        mods["generators"].random_planar(12, 0)


def _traced_pass(mods, inputs, tracer: Tracer, clock) -> Pass:
    tracer.install(mods)
    try:
        return one_pass(mods, inputs, clock)
    finally:
        tracer.uninstall()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
