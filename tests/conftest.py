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


class _LayerView:
    """A layer as one caller sees it: the replaced names, then the layer's own."""

    def __init__(self, layer, replaced: dict) -> None:
        self.__dict__.update(replaced)
        self._layer = layer

    def __getattr__(self, name):
        return getattr(self._layer, name)


@pytest.fixture
def intercept(monkeypatch):
    """intercept(caller, layer, name=fn, ...): the caller's calls of the
    layer's named functions go to fn, and no other module's do.  A layer
    reaches another layer's traced functions through the module
    (`poset.leq(...)`), so the caller's module attribute is swapped for a
    view of the layer, until the test ends."""

    def swap(caller, layer, **replaced) -> None:
        monkeypatch.setattr(caller, layer.__name__.rpartition(".")[2], _LayerView(layer, replaced))

    return swap
