"""Fixtures shared across test modules."""

import pytest

from exchsim import montecarlo


@pytest.fixture
def draws(monkeypatch):
    """The arguments of every draw_errors_block call the estimator makes."""
    calls = []
    draw = montecarlo.draw_errors_block
    monkeypatch.setattr(montecarlo, "draw_errors_block",
                        lambda *args: calls.append(args) or draw(*args))
    return calls
