"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from braidcomb import presentations


@pytest.fixture
def no_relators_built(monkeypatch):
    """Make building any tower presentation fail for the rest of the test
    (until monkeypatch.undo())."""

    def refuse(*args):
        raise AssertionError("a presentation was built")

    monkeypatch.setattr(presentations, "_tower_presentation", refuse)


@pytest.fixture
def no_relators_derived(monkeypatch):
    """Make deriving any tower's conjugation relators fail for the rest of
    the test (until monkeypatch.undo()); building a presentation still works."""

    def refuse(*args):
        raise AssertionError("a tower's relators were derived")

    monkeypatch.setattr(presentations, "_tower_relators", refuse)
