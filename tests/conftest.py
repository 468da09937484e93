"""Fixtures of the split tests: the samples split across forked children
must leave no child and no pipe end behind, and a test may count the forks
the code under test makes."""

import os

import pytest


def open_fds() -> set:
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@pytest.fixture
def clean():
    """After the test: no child is left running or unreaped, and every pipe
    end the split opened is closed."""
    before = open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == before


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made, each still a real fork."""
    calls = []
    real = os.fork

    def fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls
