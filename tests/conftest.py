"""Fixtures shared by the test modules."""
import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` by a wrapper
    that counts its calls, and returns the list that grows by one per
    call; the original is restored when the test ends."""

    def count(owner, name):
        calls = []
        wrapped = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(None)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return count
