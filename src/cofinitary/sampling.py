"""Seeded random generators for conditions and their extensions.

Sampling always goes through the extension machinery, so every sampled
extension is an extension by construction; tests that want raw (possibly
invalid) material build it by hand.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .evaluation import Assignment, EMPTY_GROUND, GroundRep, PartialMap
from .extension import domain_extend, mad_set_point
from .poset import Condition, PosetMode, add_words
from .words import Letter, Word, hat_words, single


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
    words: set[Word] = set()
    if mode is PosetMode.COFINITARY:
        pool = hat_words(sorted(set(gens) | ground.generators()), word_len)
        pool = [w for w in pool if {l.gen for l in w.letters} - ground.generators()]
        for _ in range(rng.randrange(max_words + 1)):
            words.add(rng.choice(pool))
    elif mode in (PosetMode.ADP, PosetMode.EDF):
        for _ in range(rng.randrange(max_words + 1)):
            a, b = rng.sample(gens, 2)
            words.add(Word((Letter(a, 1), Letter(b, -1))))
    else:
        for g in rng.sample(gens, rng.randrange(min(max_words, len(gens)) + 1)):
            words.add(single(g))
    cond = add_words(Condition(mode=mode), frozenset(words), ground)
    for _ in range(rng.randrange(max_pairs + 1) * max(1, len(gens) // 2)):
        g = rng.choice(gens)
        n = rng.randrange(value_range)
        if n in cond.s.get(g).domain():
            continue
        if mode is PosetMode.MAD:
            cond = mad_set_point(cond, g, n, ground)
        else:
            ext = domain_extend(cond, g, n, ground)
            cond = ext.commit(ext.choose(floor=rng.randrange(value_range)))
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
    if p.mode is not PosetMode.MAD and rng.random() < 0.5:
        pool_gens = sorted(set(candidates))[:4]
        if p.mode is PosetMode.COFINITARY:
            pool = [
                w
                for w in hat_words(sorted(set(pool_gens) | ground.generators()), 2)
                if {l.gen for l in w.letters} - ground.generators()
            ]
            extra = {rng.choice(pool)} if pool else set()
        else:
            extra = set()
            if len(pool_gens) >= 2:
                a, b = rng.sample(pool_gens, 2)
                extra = {Word((Letter(a, 1), Letter(b, -1)))}
        if extra:
            cond = add_words(cond, cond.words | extra, ground)
    for _ in range(steps):
        g = rng.choice(candidates)
        n = rng.randrange(24)
        if n in cond.s.get(g).domain():
            continue
        if p.mode is PosetMode.MAD:
            cond = mad_set_point(cond, g, n, ground)
        else:
            ext = domain_extend(cond, g, n, ground)
            cond = ext.commit(ext.choose(floor=rng.randrange(24)))
    return cond


def sample_fresh_assignment(
    rng: random.Random, p: Condition, ground: GroundRep = EMPTY_GROUND
) -> Assignment:
    """A small assignment on generators not occurring anywhere in p."""
    base = max(p.occurring(ground) | ground.generators() | {11}) + 1
    table = {}
    for k in range(rng.randrange(1, 3)):
        pairs = set()
        for _ in range(rng.randrange(3)):
            n, m = rng.randrange(16), rng.randrange(16)
            if p.mode is PosetMode.MAD:
                m = rng.randrange(2)
            if all(n != a for a, _ in pairs) and (
                p.mode in (PosetMode.EDF, PosetMode.MAD) or all(m != b for _, b in pairs)
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
    out: set[Word] = set()
    if p.mode is PosetMode.COFINITARY:
        pool = [
            w
            for w in hat_words(sorted(set(gens) | ground.generators()), 2)
            if {l.gen for l in w.letters} - ground.generators()
        ]
        for _ in range(rng.randrange(1, 3)):
            out.add(rng.choice(pool))
    elif p.mode in (PosetMode.ADP, PosetMode.EDF):
        if len(gens) >= 2:
            a, b = rng.sample(gens, 2)
            out.add(Word((Letter(a, 1), Letter(b, -1))))
    else:
        out.add(single(rng.choice(gens)))
    return frozenset(out)
