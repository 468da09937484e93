"""The side-set index and the code paths that read it.

poset.side_index lists, per generator, the side words that hold it, and per
letter the trie of the class representatives' rotations that follow it.
leq walks only the tries of letters whose generator gains pairs, and skips
the superset test against the side set add_words grew p's from;
extension._holding reads the index instead of scanning the side set, also
for the conditions _mirror makes.
"""

from __future__ import annotations

import random

import pytest

from test_class_walk import (
    FINITE,
    GROUNDS,
    _paths,
    _random_injection,
    _rotations_after,
    _side_pool,
    reference_leq,
)

from cofinitary import poset
from cofinitary.evaluation import Assignment, GroundRep, PartialMap
from cofinitary.extension import _holding, _mirror
from cofinitary.poset import Condition, add_words, side_index
from cofinitary.words import Letter, Word, hat_words, occurrences, parse_word


def _finite(ground: GroundRep) -> list[int]:
    return [g for g in FINITE if g not in ground.table]


def _chain(rng: random.Random, ground: GroundRep, steps: int) -> list[Condition]:
    """A chain of valid conditions: each step freezes one more pool word by
    add_words or adds one pair that keeps the maps injective.  A pair may
    give a frozen word a new fixed point, so the chain is no extension chain
    and leq gives both answers along it."""
    pool = _side_pool(ground)
    finite = _finite(ground)
    table = {g: PartialMap(_random_injection(rng, rng.randrange(4), 8)) for g in finite}
    c = add_words(Condition(Assignment(table)), rng.sample(pool, 4), ground)
    chain = [c]
    while len(chain) <= steps:
        if rng.random() < 0.4:
            c = add_words(c, c.words | {rng.choice(pool)}, ground)
        else:
            g = rng.choice(finite)
            pm = c.s.get(g)
            n, m = rng.randrange(10), rng.randrange(10)
            if n in pm.fwd or m in pm.rev:
                continue
            c = Condition(c.s.with_pair(g, n, m), c.words)
        chain.append(c)
    return chain


def _in_one_go(c: Condition) -> Condition:
    """c with an equal side set built from scratch: no lineage, a new object."""
    return Condition(c.s, frozenset(list(c.words)), c.mode)


def _clash(rng: random.Random, c: Condition, ground: GroundRep) -> Condition:
    """c with one more pair that makes a map of it not injective."""
    g = rng.choice([g for g in _finite(ground) if c.s.get(g).pairs])
    n, m = rng.choice(sorted(c.s.get(g).pairs))
    return Condition(c.s.with_pair(g, n + 20, m), c.words)


def _changed(p: Condition, q: Condition) -> int:
    return sum(p.s.get(g).pairs != q.s.get(g).pairs for g in p.s.table)


def test_leq_matches_reference_on_grown_and_one_go_side_sets():
    lineage = one_gen = multi_gen = non_injective = false_answers = 0
    for name, ground in GROUNDS.items():
        rng = random.Random(f"side-index-{name}")
        for _ in range(25):
            chain = _chain(rng, ground, 12)
            for j in range(1, len(chain)):
                for i in range(j):
                    p, q = chain[j], chain[i]
                    want = reference_leq(p, q, ground)
                    assert poset.leq(p, q, ground) == want, (name, p.to_json(), q.to_json())
                    assert poset.leq(_in_one_go(p), _in_one_go(q), ground) == want
                    changed = _changed(p, q)
                    lineage += changed > 0 and p._grown_from is q.words
                    one_gen += changed == 1
                    multi_gen += changed > 1
                    false_answers += not want
                if any(chain[j].s.get(g).pairs for g in _finite(ground)):
                    q = chain[rng.randrange(j)]
                    bad = _clash(rng, chain[j], ground)
                    for args in ((bad, q), (_in_one_go(bad), _in_one_go(q))):
                        with pytest.raises(ValueError, match="partial injections"):
                            poset.leq(*args, ground)
                    non_injective += 1
    assert lineage >= 300, lineage
    assert one_gen >= 1500 and multi_gen >= 2500, (one_gen, multi_gen)
    assert non_injective >= 800, non_injective
    assert false_answers >= 800, false_answers


def test_side_set_that_does_not_grow_fails():
    a, b, c = parse_word("g0 g1"), parse_word("g1"), parse_word("g0^2")
    q = add_words(Condition(Assignment({0: PartialMap(frozenset({(0, 1)}))})), [a, b])
    assert not poset.leq(Condition(q.s, q.words - {a}), q)
    # grown by add_words, but from a side set that lacks a word of q's
    other = add_words(Condition(q.s, frozenset({b})), [b, c])
    assert other._grown_from is not q.words
    assert not poset.leq(other, q)
    # grown from an equal side set that is another object: the superset test
    same = add_words(_in_one_go(q), [a, b, c])
    assert same._grown_from is not q.words and poset.leq(same, q)
    assert poset.leq(add_words(q, [a, b, c]), q)


def _ordered(words) -> list[Word]:
    return sorted(words, key=Word.sort_key)


def _holding_by_scan(p: Condition, gen: int, ground: GroundRep) -> tuple[list[Word], list[Word]]:
    """The split before the index, verbatim: one scan of the side set."""
    pos, neg = Letter(gen, 1), Letter(gen, -1)
    amb = ground.generators()
    finite, mixed = [], []
    for w in p.words:
        if pos in w.letters or neg in w.letters:
            if amb and any(l.gen in amb for l in w.letters):
                mixed.append(w)
            else:
                finite.append(w)
    return finite, mixed


def test_holding_reads_the_index_for_conditions_and_mirrors():
    mirrors_with_mixed = 0
    for name, ground in GROUNDS.items():
        rng = random.Random(f"holding-{name}")
        for c in _chain(rng, ground, 30)[::3]:
            for gen in _finite(ground):
                finite, mixed = _holding(c, gen, ground)
                want_finite, want_mixed = _holding_by_scan(c, gen, ground)
                assert _ordered(finite) == _ordered(want_finite)
                assert _ordered(mixed) == _ordered(want_mixed)
                mirror = _mirror(c, gen, ground)
                passed = _holding(mirror, gen, ground)
                fresh = _holding_by_scan(mirror, gen, ground)
                assert _ordered(passed[0]) == _ordered(fresh[0])
                assert _ordered(passed[1]) == _ordered(fresh[1])
                mirrors_with_mixed += bool(passed[1])
    assert mirrors_with_mixed >= 10, mirrors_with_mixed


def test_index_depends_only_on_the_side_set():
    words = hat_words(range(3), 3)
    one, other = frozenset(words), frozenset(reversed(words))
    assert one == other and one is not other
    side_index.cache_clear()
    first = side_index(one)
    side_index.cache_clear()
    second = side_index(other)
    assert first is not second and first == second
    assert side_index(one) is second  # equal side sets share one index
    for g in range(3):
        holding = [w for w in one if g in occurrences(w)]
        assert _ordered(first.holding[g]) == _ordered(holding)
    keys = {w.class_key for w in one}
    letters = {x for key in keys for x in key}
    assert set(first.tries) == letters
    for letter in letters:
        want = set().union(*(_rotations_after(key, letter) for key in keys))
        assert set(_paths(first.tries[letter])) == want
