import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` for the test with a function
    that records the arguments of each call and calls through, and returns the list that
    the argument tuples are appended to.  A call with keywords is recorded as its
    positional arguments followed by the dict of its keywords."""
    def record(owner, name):
        calls, original = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args + (kwargs,) if kwargs else args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return record
