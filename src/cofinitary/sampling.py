"""Seeded random generators for conditions and their extensions.

Sampling always goes through the extension machinery, so every sampled
extension is an extension by construction; tests that want raw (possibly
invalid) material build it by hand.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .evaluation import Assignment, EMPTY_GROUND, GroundRep, PartialMap
from .extension import point_step
from .poset import DISCIPLINES, Condition, PosetMode, add_words, pair_word, side_words
from .words import Word, single


def _draw_entries(
    rng: random.Random, mode: PosetMode, gens: Sequence[int], ground: GroundRep, length: int,
    count: int,
) -> set[Word]:
    """count random side entries of the mode's shape over gens: hat words of
    length <= length with a finite letter, pairs a b^-1 or single letters;
    none when gens admit no entry."""
    shape = DISCIPLINES[mode].shape
    if shape == "hat":
        alphabet = tuple(sorted(set(gens) | ground.generators()))
        pool = side_words(mode, alphabet, ground.generators(), length)
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
    ground: GroundRep = EMPTY_GROUND,
) -> Condition:
    """A random valid condition, built pair by pair through the extension
    machinery so freezing always holds along the way."""
    gens = list(gens)
    if DISCIPLINES[mode].shape == "letter":  # distinct letters
        picked = rng.sample(gens, rng.randrange(min(max_words, len(gens)) + 1))
        words = {single(g) for g in picked}
    else:
        words = _draw_entries(rng, mode, gens, ground, word_len, rng.randrange(max_words + 1))
    cond = add_words(Condition(mode=mode), frozenset(words), ground)
    for _ in range(rng.randrange(max_pairs + 1) * max(1, len(gens) // 2)):
        g = rng.choice(gens)
        n = rng.randrange(value_range)
        if n not in cond.s.get(g).fwd:
            cond = point_step(cond, g, n, ground, floor=lambda: rng.randrange(value_range))
    return cond


def sample_extension(
    rng: random.Random,
    p: Condition,
    ground: GroundRep = EMPTY_GROUND,
    avoid: Iterable[int] = (),
    steps: Optional[int] = None,
) -> Condition:
    """A random extension of p: new pairs on p's own or fresh generators and
    extra frozen words, never touching `avoid`."""
    avoid = frozenset(avoid) | ground.generators()
    taken = p.occurring(ground) | avoid
    fresh_base = max(taken | {7}) + 1
    usable = sorted(p.occurring(ground) - avoid)
    candidates = usable + [fresh_base, fresh_base + 1]
    cond = p
    if steps is None:
        steps = rng.randrange(4)
    if DISCIPLINES[p.mode].shape != "letter" and rng.random() < 0.5:
        extra = _draw_entries(rng, p.mode, sorted(set(candidates))[:4], ground, 2, 1)
        if extra:
            cond = add_words(cond, cond.words | extra, ground)
    for _ in range(steps):
        g = rng.choice(candidates)
        n = rng.randrange(24)
        if n not in cond.s.get(g).fwd:
            cond = point_step(cond, g, n, ground, floor=lambda: rng.randrange(24))
    return cond


def sample_fresh_assignment(
    rng: random.Random, p: Condition, ground: GroundRep = EMPTY_GROUND
) -> Assignment:
    """A small assignment on generators not occurring anywhere in p."""
    d = DISCIPLINES[p.mode]
    base = max(p.occurring(ground) | ground.generators() | {11}) + 1
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


def sample_extra_words(
    rng: random.Random, p: Condition, ground: GroundRep = EMPTY_GROUND
) -> frozenset[Word]:
    """A few more frozen entries valid for p's mode."""
    gens = sorted(p.occurring(ground) | {0, 1})
    draws = rng.randrange(1, 3) if DISCIPLINES[p.mode].shape == "hat" else 1
    return frozenset(_draw_entries(rng, p.mode, gens, ground, 2, draws))
