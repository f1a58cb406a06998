import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` for the test with a function
    that records the arguments of each call and calls through, and returns the list that
    the argument tuples are appended to."""
    def record(owner, name):
        calls, original = [], getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return record
