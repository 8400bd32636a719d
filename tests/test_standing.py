"""The standing-checks command imports, and its comparison with the
committed expectations names every key that moved.

``python -m tests.standing`` takes minutes, so tier-1 runs none of its
sections; importing it catches a rename in the package or the tests
that would break it, and the comparison is checked on small documents.
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
    expected = json.loads(standing.EXPECTED.read_text())
    assert list(expected) == list(standing.SECTIONS)
    assert all(expected.values())


def test_replay_expects_every_detector_count():
    # each graph kind's block holds exactly the counters the replay
    # produces, so a renamed counter cannot linger in the JSON
    replay = json.loads(standing.EXPECTED.read_text())["replay"]
    kinds = {k: v for k, v in replay.items() if isinstance(v, dict)}
    assert set(kinds) == set(standing.harness.FACE_DEGREE)
    for block in kinds.values():
        assert list(block) == list(standing.DETECTOR)
