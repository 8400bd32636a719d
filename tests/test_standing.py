"""The standing-checks command imports, and its comparison with the
committed expectations names every key that moved.

``python -m tests.standing`` takes minutes, so tier-1 runs none of its
sections; importing it catches a rename in the package or the tests
that would break it, and the comparison and the choice of sections are
checked on small documents.
"""

from __future__ import annotations

import json

from . import standing


def test_compare_names_changed_missing_and_new_keys():
    expected = {"replay": {"digest": "abc", "dense": {"walks build": 0}},
                "fuzz": {"large": {"failed": 0}}}
    got = {"replay": {"digest": "abd", "dense": {"walks build": 0,
                                                 "non-quad merges": 1}}}
    assert standing.compare(expected, expected) == []
    assert standing.compare(expected, got) == [
        "fuzz/large/failed: expected 0, got nothing",
        "replay/dense/non-quad merges: expected nothing, got 1",
        "replay/digest: expected 'abc', got 'abd'",
    ]


def test_expectations_hold_the_four_sections():
    # every section but loc, which only prints, keeps values
    expected = json.loads(standing.EXPECTED.read_text())
    assert list(expected) == [name for name in standing.SECTIONS
                              if name != "loc"]
    assert all(expected.values())
    assert standing.loc() == {}


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = '''"""Module docstring
over two lines."""

import os  # a comment on a code line


def f(x):
    """One line."""
    # a comment alone
    s = """a string that is
    assigned, so code"""
    return (x +
            1)
'''
    # import, def, the two lines of s and the two of the return
    assert standing.code_lines(source) == 6


def test_replay_expects_every_detector_count():
    # each graph kind's block holds exactly the counters the replay
    # produces, so a renamed counter cannot linger in the JSON
    replay = json.loads(standing.EXPECTED.read_text())["replay"]
    kinds = {k: v for k, v in replay.items() if isinstance(v, dict)}
    assert set(kinds) == set(standing.harness.FACE_DEGREE)
    for block in kinds.values():
        assert list(block) == list(standing.DETECTOR)


def _run(monkeypatch, tmp_path, capsys, names, expected):
    """``standing.main(names)`` over two small stand-in sections; the
    exit status, the sections that ran and the printed lines."""
    ran = []

    def section(name, value):
        def run():
            ran.append(name)
            return value
        return run

    monkeypatch.setattr(standing, "SECTIONS", {
        "a": section("a", {"x": 1}), "b": section("b", {"y": 2, "z": 3})})
    path = tmp_path / "standing.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(standing, "EXPECTED", path)
    status = standing.main(names)
    return status, ran, capsys.readouterr().out.splitlines()


def test_named_sections_run_and_compare_alone(monkeypatch, tmp_path,
                                              capsys):
    # section a differs from the JSON, so only a run that leaves it out
    # exits 0, and it names only b's values
    expected = {"a": {"x": 0}, "b": {"y": 2, "z": 3}}
    status, ran, out = _run(monkeypatch, tmp_path, capsys, ["b"], expected)
    assert (status, ran) == (0, ["b"])
    assert out[-1] == "2 values compared with standing.json, 0 differ"
    status, ran, out = _run(monkeypatch, tmp_path, capsys, [], expected)
    assert (status, ran) == (1, ["a", "b"])
    assert out[-2:] == ["a/x: expected 0, got 1",
                        "3 values compared with standing.json, 1 differ"]


def test_unknown_section_runs_nothing(monkeypatch, tmp_path, capsys):
    status, ran, out = _run(monkeypatch, tmp_path, capsys, ["b", "c"],
                            {"a": {"x": 1}, "b": {"y": 2, "z": 3}})
    assert (status, ran) == (2, [])
    assert out == ["unknown section c; the sections are a, b"]


def test_every_unreached_function_has_a_reason():
    # the reach audit commits, per audited section, the package functions
    # the section never enters: each one the package defines, each with
    # a reason in standing.UNREACHED, and no reason left for a function
    # that is reached or gone
    expected = json.loads(standing.EXPECTED.read_text())
    listed = {name for section in standing.AUDITED
              for name in expected[section]["unreached"]}
    names = set(standing.package_functions().values())
    assert listed == set(standing.UNREACHED)
    assert listed <= names
    assert {"spqr._join", "spqr.SpqrTree.check",
            "separators.SeparatorTree.apply_merge"} <= names


def test_reach_records_what_runs_unprofiled_leaves_out():
    with standing.reach() as codes:
        standing.flatten({})
        with standing.unprofiled():
            standing.compare({}, {})
    assert standing.flatten.__code__ in codes
    assert standing.compare.__code__ not in codes
