"""The side-set index and the code paths that read it.

poset.side_index is the whole index: per letter, the trie of the class
representatives' rotations that follow it.  leq walks only the tries of
letters whose generator gains pairs.  A class representative holds the
generators of its words, so a side word holds g exactly when Letter(g, 1)
or Letter(g, -1) keys a trie; the certificate of extension reads that
fact, also for the conditions _mirror makes.  The mixed words, which also
hold an ambient letter, and the pair partners of an edf generator come from
a scan of the side set, checked here against the scans they replaced.
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
from cofinitary.cli import main
from cofinitary.evaluation import EMPTY_GROUND, Assignment, GroundRep, PartialMap
from cofinitary.extension import _forbidden_edf, _forbidden_word_modes, _mirror, _mixed
from cofinitary.poset import Condition, PosetMode, add_words, pair_word, side_index
from cofinitary.words import Letter, Word, hat_words, parse_word


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
    """c with an equal side set built from scratch: a new object."""
    return Condition(c.s, frozenset(list(c.words)), c.mode)


def _clash(rng: random.Random, c: Condition, ground: GroundRep) -> Condition:
    """c with one more pair that makes a map of it not injective."""
    g = rng.choice([g for g in _finite(ground) if c.s.get(g).pairs])
    n, m = rng.choice(sorted(c.s.get(g).pairs))
    return Condition(c.s.with_pair(g, n + 20, m), c.words)


def _changed(p: Condition, q: Condition) -> int:
    return sum(p.s.get(g).pairs != q.s.get(g).pairs for g in p.s.table)


def test_leq_matches_reference_on_grown_and_one_go_side_sets():
    one_gen = multi_gen = non_injective = false_answers = 0
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
    assert one_gen >= 1500 and multi_gen >= 2500, (one_gen, multi_gen)
    assert non_injective >= 800, non_injective
    assert false_answers >= 800, false_answers


def test_side_set_that_does_not_grow_fails():
    a, b, c = parse_word("g0 g1"), parse_word("g1"), parse_word("g0^2")
    q = add_words(Condition(Assignment({0: PartialMap(frozenset({(0, 1)}))})), [a, b])
    assert not poset.leq(Condition(q.s, q.words - {a}), q)
    # grown by add_words, but from a side set that lacks a word of q's
    other = add_words(Condition(q.s, frozenset({b})), [b, c])
    assert not poset.leq(other, q)
    # grown from an equal side set that is another object: the superset test
    same = add_words(_in_one_go(q), [a, b, c])
    assert poset.leq(same, q)
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


def _concrete_by_scan(p: Condition, gen: int, n: int, ground: GroundRep):
    """What _forbidden_word_modes returned before the trie test when no
    mixed word holds gen, on the split of _holding_by_scan; None when one
    does."""
    finite, mixed = _holding_by_scan(p, gen, ground)
    if not finite and not mixed:
        return set(p.s.get(gen).rev)
    if mixed:
        return None
    return {n} | {v for pm in p.s.table.values() for v in (*pm.fwd, *pm.rev)}


def test_trie_test_and_mixed_scan_match_the_holding_scan():
    held = unheld = minus_only = mixed_words = 0
    for name, ground in GROUNDS.items():
        rng = random.Random(f"holding-{name}")
        for c in _chain(rng, ground, 30)[::3]:
            for gen in _finite(ground):
                for x in (c, _mirror(c, gen, ground)):
                    finite, mixed = _holding_by_scan(x, gen, ground)
                    tries = side_index(x.words)
                    keyed = Letter(gen, 1) in tries or Letter(gen, -1) in tries
                    assert keyed == bool(finite or mixed), (name, gen, x.to_json())
                    assert _mixed(x, gen, ground) == _ordered(mixed)
                    n = rng.randrange(12)
                    want = _concrete_by_scan(x, gen, n, ground)
                    if want is not None:
                        assert _forbidden_word_modes(x, gen, n, ground) == want
                    held += keyed
                    unheld += not keyed
                    minus_only += keyed and Letter(gen, 1) not in tries
                    mixed_words += bool(mixed)
    assert held >= 120 and unheld >= 30, (held, unheld)
    assert minus_only >= 50 and mixed_words >= 60, (minus_only, mixed_words)


def _edf_condition(rng: random.Random) -> Condition:
    """An edf condition: functions into a few values, so pairs agree, and
    some of the pair words over four generators."""
    gens = range(4)
    table = {
        g: PartialMap(frozenset((n, rng.randrange(3)) for n in rng.sample(range(10), 6)))
        for g in gens
    }
    pairs = [pair_word(a, b) for a in gens for b in gens if a < b]
    return Condition(Assignment(table), frozenset(rng.sample(pairs, 3)), PosetMode.EDF)


def _forbidden_edf_by_holding(p: Condition, gen: int, n: int) -> set[int]:
    """_forbidden_edf before the scan, on the words _holding_by_scan finds."""
    forb = set()
    for w in _holding_by_scan(p, gen, EMPTY_GROUND)[0]:
        a, b = (letter.gen for letter in w.letters)
        forb.add(p.s.get(b if a == gen else a).fwd.get(n))
    return forb - {None}


def test_edf_forbidden_set_matches_the_holding_form():
    rng = random.Random("edf-holding")
    nonempty = 0
    for _ in range(200):
        p = _edf_condition(rng)
        for gen in range(4):
            for n in range(10):
                want = _forbidden_edf_by_holding(p, gen, n)
                assert _forbidden_edf(p, gen, n) == want
                nonempty += bool(want)
    assert nonempty >= 4000, nonempty


@pytest.mark.parametrize("mode, calls", [("edf", False), ("mad", False), ("adp", True)])
def test_only_the_walk_disciplines_build_an_index(mode, calls, tmp_path, capsys):
    # the build-long variant command; main clears the cache, so its counts
    # are this command's calls
    argv = ["build-group", "--mode", mode, "--generators", "4", "--points", "200",
            "--seed", "3", "--out", str(tmp_path / "o.json")]
    assert main(argv) == 0
    info = side_index.cache_info()
    assert (info.hits + info.misses > 0) == calls, info


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
    keys = {w.class_key for w in one}
    letters = {x for key in keys for x in key}
    assert set(first) == letters
    for letter in letters:
        want = set().union(*(_rotations_after(key, letter) for key in keys))
        assert set(_paths(first[letter])) == want
