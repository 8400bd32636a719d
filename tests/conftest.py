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
    """Separator trees with leaves of at most 16 vertices.

    At the production leaf size every graph of up to ``separators.N0``
    vertices is a single leaf, so the small inputs of a test would
    never reach internal nodes, their separations, or the detector's
    separator pair tables.
    """
    monkeypatch.setattr(separators, "N0", 16)
