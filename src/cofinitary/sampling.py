"""Seeded random generators for conditions and their extensions.

Sampling always goes through the extension machinery, so every sampled
extension is an extension by construction; tests that want raw (possibly
invalid) material build it by hand.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .evaluation import Assignment, PartialMap
from .extension import point_step
from .poset import DISCIPLINES, Condition, PosetMode, add_words, pair_word, side_words
from .words import Word, single

_ONE = 1  # randrange's default step, compared by identity as random.Random does


class Draws(random.Random):
    """random.Random whose randrange, choice and sample read getrandbits
    directly, in the order and amounts the base methods do, so a seed gives
    the same values; each draw saves the base methods' _randbelow call.
    sample takes the pool path for populations of at most 21, where the
    base method takes it for every sample size.  Any other call goes to
    the base method."""

    def randrange(self, start, stop=None, step=_ONE):
        if step is _ONE and start.__class__ is int:
            if stop is None:
                base, n = 0, start
            elif stop.__class__ is int:
                base, n = start, stop - start
            else:
                n = 0
            if n > 0:
                k = n.bit_length()
                r = self.getrandbits(k)
                while r >= n:
                    r = self.getrandbits(k)
                return base + r
        return super().randrange(start, stop, step)

    def choice(self, seq):
        n = len(seq)
        if not n:
            return super().choice(seq)
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return seq[r]

    def sample(self, population, k, *, counts=None):
        cls = population.__class__
        if counts is not None or not (cls is list or cls is tuple or cls is range):
            return super().sample(population, k, counts=counts)
        n = len(population)
        if n > 21 or not 0 <= k <= n:
            return super().sample(population, k)
        getrandbits = self.getrandbits
        pool = list(population)
        result = [None] * k
        for i in range(k):
            left = n - i
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[left - 1]  # move a non-selected item into the vacancy
        return result


def _draw_entries(
    rng: random.Random, mode: PosetMode, gens: Sequence[int], length: int, count: int
) -> set[Word]:
    """count random side entries of the mode's shape over gens: hat words of
    length <= length, pairs a b^-1 or single letters; none when gens admit
    no entry."""
    shape = DISCIPLINES[mode].shape
    if shape == "hat":
        pool = side_words(mode, tuple(sorted(set(gens))), length)
        draw = (lambda: rng.choice(pool)) if pool else None
    elif shape == "pair":
        draw = (lambda: pair_word(*rng.sample(gens, 2))) if len(gens) >= 2 else None
    else:
        draw = (lambda: single(rng.choice(gens)))
    return {draw() for _ in range(count)} if draw else set()


def sample_condition(
    rng: random.Random,
    mode: PosetMode,
    gens: Sequence[int],
    max_pairs: int = 4,
    max_words: int = 3,
    value_range: int = 24,
    word_len: int = 3,
) -> Condition:
    """A random valid condition, built pair by pair through the extension
    machinery so freezing always holds along the way."""
    gens = list(gens)
    if DISCIPLINES[mode].shape == "letter":  # distinct letters
        picked = rng.sample(gens, rng.randrange(min(max_words, len(gens)) + 1))
        words = {single(g) for g in picked}
    else:
        words = _draw_entries(rng, mode, gens, word_len, rng.randrange(max_words + 1))
    cond = add_words(Condition(mode=mode), frozenset(words))
    for _ in range(rng.randrange(max_pairs + 1) * max(1, len(gens) // 2)):
        g = rng.choice(gens)
        n = rng.randrange(value_range)
        if n not in cond.s.get(g).fwd:
            cond = point_step(cond, g, n, floor=lambda: rng.randrange(value_range))
    return cond


def sample_extension(
    rng: random.Random, p: Condition, avoid: Iterable[int] = (), steps: Optional[int] = None
) -> Condition:
    """A random extension of p: new pairs on p's own or fresh generators and
    extra frozen words, never touching `avoid`."""
    avoid = frozenset(avoid)
    taken = p.occurring() | avoid
    fresh_base = max(taken | {7}) + 1
    usable = sorted(p.occurring() - avoid)
    candidates = usable + [fresh_base, fresh_base + 1]
    cond = p
    if steps is None:
        steps = rng.randrange(4)
    if DISCIPLINES[p.mode].shape != "letter" and rng.random() < 0.5:
        extra = _draw_entries(rng, p.mode, sorted(set(candidates))[:4], 2, 1)
        if extra:
            cond = add_words(cond, cond.words | extra)
    for _ in range(steps):
        g = rng.choice(candidates)
        n = rng.randrange(24)
        if n not in cond.s.get(g).fwd:
            cond = point_step(cond, g, n, floor=lambda: rng.randrange(24))
    return cond


def sample_fresh_assignment(rng: random.Random, p: Condition) -> Assignment:
    """A small assignment on generators not occurring anywhere in p."""
    d = DISCIPLINES[p.mode]
    base = max(p.occurring() | {11}) + 1
    table = {}
    for k in range(rng.randrange(1, 3)):
        pairs = set()
        for _ in range(rng.randrange(3)):
            n, m = rng.randrange(16), rng.randrange(16)
            if d.values is not None:
                m = rng.choice(d.values)
            if all(n != a for a, _ in pairs) and (
                not d.injective or all(m != b for _, b in pairs)
            ):
                pairs.add((n, m))
        if pairs:
            table[base + k] = PartialMap(frozenset(pairs))
    return Assignment(table)


def sample_extra_words(rng: random.Random, p: Condition) -> frozenset[Word]:
    """A few more frozen entries valid for p's mode."""
    gens = sorted(p.occurring() | {0, 1})
    draws = rng.randrange(1, 3) if DISCIPLINES[p.mode].shape == "hat" else 1
    return frozenset(_draw_entries(rng, p.mode, gens, 2, draws))
