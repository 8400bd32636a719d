"""Fixtures shared by the test modules."""

from __future__ import annotations

import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from planarconn import separators

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # hypothesis caches the constants it reads from source files under
    # its home directory, by default .hypothesis/ in the working
    # directory, even with no example database; keep that cache in a
    # directory removed after the run
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture
def small_leaves(monkeypatch):
    """Separator trees whose leaves hold at most 32 length-2 paths.

    At the production budget, ``separators.LEAF_PATHS``, the small
    inputs of a test are single leaves, so they would never reach
    internal nodes, their separations, or the detector's separator pair
    tables.  32 is about what a leaf of 16 vertices held: over the
    tier-1 graphs such leaves held a median of 40 paths.
    """
    monkeypatch.setattr(separators, "LEAF_PATHS", 32)
