"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from planarconn import separators


@pytest.fixture
def small_leaves(monkeypatch):
    """Separator trees with leaves of at most 16 vertices.

    At the production leaf size every graph of up to ``separators.N0``
    vertices is a single leaf, so the small inputs of a test would
    never reach internal nodes, their separations, or the detector's
    separator pair tables.
    """
    monkeypatch.setattr(separators, "N0", 16)
