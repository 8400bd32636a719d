"""Tests of the benchmark itself, on tiny graphs (n = 24).

They check the harness, not the program: its verdicts must agree with
a direct comparison against ``oracle.canonical_spqr``, a wrong expected
digest must count as one failed op, and the ``gen`` byte-identity check
must notice a changed fixture.  Known defects of the program may show
up here as failed ops; they do not fail these tests.
"""

from __future__ import annotations

import random
import signal
import time

import pytest

import harness
import regen
import run
import speed

N = 24


@pytest.fixture(scope="module")
def mods():
    loaded, _shim = harness.load_program()
    loaded["generators"] = harness.load_generators()
    return loaded


def tiny(mods, kind: str, seed: int):
    """A tiny graph of ``kind`` with its op fixture, every expected
    digest taken from the oracle."""
    bound = harness.FACE_DEGREE[kind]
    g = mods["generators"].random_planar(N, seed, max_face_degree=bound)
    name = f"tiny_{kind}_{seed}"
    rng = random.Random(name)
    ops = (regen.dense_ops if kind == "dense" else regen.sparse_ops)(g, rng)
    first, per_op = regen.expectations(mods, g, ops)
    refs = {ref for exp in [first, *per_op] for _d, ref in exp}
    assert refs <= {"oracle"}
    seq = {"graph": name, "n": N, "seed": seed, "max_face_degree": bound,
           "build": first, "ops": ops, "expect": per_op}
    return g, seq


def direct_failures(mods, g, ops) -> set[int]:
    """Single-block sequence checked op by op against the oracle, with
    the same rebuild-on-failure rule as the harness."""
    spqr, oracle = mods["spqr"], mods["oracle"]
    h = g.copy()
    tree = spqr.build_spqr(h)
    bad = set()
    for i, (op, e) in enumerate(ops):
        fn = spqr.delete_edge if op == "d" else spqr.contract_edge
        try:
            log = fn(tree, e)
        except Exception:
            log = None
        if op == "d":
            h.delete_edge(e, report=False)
        else:
            h.contract_edge(e, report=False)
        want = oracle.canonical_spqr(h)
        try:
            ok = (log is not None and log.kind == "intact"
                  and log.tree.serialize() == want)
        except Exception:
            ok = False
        if ok:
            tree = log.tree
        else:
            bad.add(i)
            tree = spqr.build_spqr(h)
    return bad


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_verdicts_match_oracle(mods, seed):
    g, seq = tiny(mods, "dense", seed)
    assert seq["ops"]
    res = harness.replay(mods, g, seq, harness.Clock())
    assert [r.index for r in res.records] == list(range(-1, len(seq["ops"])))
    flagged = {r.index for r in res.records if r.failure}
    assert flagged == direct_failures(mods, g, seq["ops"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_runs_every_op_against_oracle(mods, seed):
    g, seq = tiny(mods, "sparse", seed)
    res = harness.replay(mods, g, seq, harness.Clock())
    assert [r.index for r in res.records] == list(range(-1, len(seq["ops"])))
    outcomes = {r.outcome for r in res.records if not r.failure}
    assert outcomes & {"path", "star", "pair"}, "no split was exercised"


def test_corrupted_digest_is_one_failed_op(mods):
    g, seq = tiny(mods, "dense", 1)
    clean = harness.replay(mods, g, seq, harness.Clock())
    k = next(r.index for r in clean.records if r.index >= 0 and not r.failure)
    seq["expect"][k] = [["0" * 16, "oracle"]]
    res = harness.replay(mods, g, seq, harness.Clock())
    assert res.records[k + 1].failure == "wrong tree"
    assert len(res.records) == len(clean.records)
    before = {r.index for r in clean.records if r.failure}
    after = {r.index for r in res.records if r.failure}
    assert after == before | {k}
    name = seq["graph"]
    inputs = run.Inputs("dense", [name], {name: g}, {name: seq}, {})
    p = run.one_pass(mods, inputs, harness.Clock())
    known = {(name, i) for i in before}
    assert run.new_failures(p, known) == [(name, k, "wrong tree")]


def test_gen_catches_changed_fixture(mods):
    g, seq = tiny(mods, "dense", 4)
    name = seq["graph"]
    text = mods["embed"].write_graph_text(g)
    inputs = run.Inputs("gen", [name], {name: g}, {name: seq}, {name: text},
                        frozenset([name]))
    assert run.one_pass(mods, inputs, harness.Clock()).failures == [
        (name, r.index, r.failure)
        for r in harness.replay(mods, g, seq, harness.Clock()).records
        if r.failure]
    inputs.texts[name] = text.replace("rot 0 ", "rot 0  ", 1)
    p = run.one_pass(mods, inputs, harness.Clock())
    assert (name, "generate", "not byte-identical") in p.failures



def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_scales_calls_and_stops_sampling():
    before = signal.getsignal(signal.SIGALRM)
    sp = speed.Speed()
    with sp:
        _res, err, secs = harness.Clock(sp).call(spin, 0.1)
    assert err is None
    taken = len(sp.speeds)
    assert taken >= 5
    # wall time less the sampling, at a speed within the sampled range
    assert 0.09 * min(sp.speeds) <= secs <= 0.1 * max(sp.speeds)
    spin(0.05)
    assert len(sp.speeds) == taken
    assert signal.getsignal(signal.SIGALRM) == before
