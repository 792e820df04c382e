"""Fixtures that watch, or narrow, the f-factor route to the matcher."""

import pytest

from degkit import factors


@pytest.fixture
def gadgets(monkeypatch):
    """The list of Tutte gadgets that f_factor hands to max_matching."""
    built = []
    real = factors.max_matching

    def matching(g, initial=()):
        built.append(g)
        return real(g, initial=initial)

    monkeypatch.setattr(factors, "max_matching", matching)
    return built


@pytest.fixture
def greedy_seed(monkeypatch, gadgets):
    """Like `gadgets`, with the partial factor stopped after its greedy pass.

    The repair pass completes most dense instances without a gadget; with
    greedy alone they reach the gadget and the matcher, seeded with the
    greedy partial factor's bridges.
    """
    monkeypatch.setattr(factors, "_find_swap", lambda adj, mates, left, u: None)
    return gadgets
