"""sampling.Draws against random.Random, draw for draw.

Draws reads getrandbits directly in randrange, choice and sample; the seeded
reports of the suites rest on it giving exactly the values, and leaving
exactly the generator state, that random.Random does.
"""

from __future__ import annotations

import random

import pytest

from cofinitary.sampling import Draws


def _outcome(fn):
    try:
        return ("value", fn())
    except (ValueError, IndexError, TypeError) as err:
        return (type(err).__name__, str(err))


def _calls(script: random.Random):
    """A drawn call: (name, args, kwargs), bounds and sizes around the fast
    paths' edges, bad arguments included."""
    kind = script.randrange(6)
    if kind == 0:
        return "randrange", (script.choice([1, 2, 3, 7, 8, 9, 24, 1 << 20, 0, -3]),), {}
    if kind == 1:
        a = script.randrange(-5, 10)
        return "randrange", (a, a + script.randrange(-2, 20)), {}
    if kind == 2:
        a = script.randrange(10)
        return "randrange", (a, a + 30, script.choice([1, 2, -1, 3])), {}
    if kind == 3:
        n = script.randrange(25)
        seq = script.choice([list(range(n)), tuple(range(n)), "abcdefghijklmnopqrstuvwxy"[:n]])
        return "choice", (seq,), {}
    n = script.choice([0, 1, 2, 5, 10, 12, 20, 21, 22, 30, 100])
    pop = script.choice(
        [list(range(100, 100 + n)), tuple(range(n)), range(n), range(3, 3 + 2 * n, 2)]
    )
    k = script.randrange(-1, n + 2)
    if kind == 4:
        return "sample", (pop, k), {}
    return "sample", (pop, min(k, 3)), {"counts": [2] * n} if n else {}


@pytest.mark.parametrize("block", range(4))
def test_draws_match_random_draw_for_draw(block):
    script = random.Random(f"script-{block}")
    for seed in range(block * 50, block * 50 + 50):
        ours, theirs = Draws(seed), random.Random(seed)
        for _ in range(60):
            name, args, kwargs = _calls(script)
            got = _outcome(lambda: getattr(ours, name)(*args, **kwargs))
            want = _outcome(lambda: getattr(theirs, name)(*args, **kwargs))
            assert got == want, (seed, name, args, kwargs)
        assert ours.getstate() == theirs.getstate()


def test_draws_reseed_like_random():
    ours, theirs = Draws(), random.Random()
    for x in (0, 3, 1_000_003 * 3 + 7, 2**70):
        ours.seed(x)
        theirs.seed(x)
        for n in (1, 3, 12):
            assert ours.sample(range(12), n) == theirs.sample(range(12), n)
            assert ours.randrange(n) == theirs.randrange(n)
        assert ours.random() == theirs.random()
