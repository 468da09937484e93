"""The side-set index and the code paths that read it.

poset.side_index builds one index per kernel and side set.  For the walk
disciplines it holds, per letter, the trie of the class representatives'
rotations that follow it.  leq walks only the tries of letters whose
generator gains pairs.  A class representative holds the generators of its
words, so a side word holds g exactly when Letter(g, 1) or Letter(g, -1)
keys a trie; a point phase's certificate reads that fact, for range steps
too.  For edf it holds each generator's pair partners, from a scan of the
side set.  Both are checked here against the scans they replaced.
"""

from __future__ import annotations

import random

import pytest

from copy_path import mirror
from test_class_walk import FINITE, _paths, _random_injection, _rotations_after, reference_leq

from cofinitary import poset
from cofinitary.cli import main
from cofinitary.evaluation import Assignment, PartialMap
from cofinitary.extension import PointPhase
from cofinitary.poset import Condition, PosetMode, add_words, pair_word, side_index
from cofinitary.words import Letter, hat_words, parse_word


def _chain(rng: random.Random, steps: int, gens=FINITE) -> list[Condition]:
    """A chain of valid conditions: each step freezes one more hat word of
    length <= 3 over FINITE by add_words or adds one pair on gens that keeps
    the maps injective.  A pair may give a frozen word a new fixed point, so
    the chain is no extension chain and leq gives both answers along it."""
    pool = hat_words(FINITE, 3)
    table = {g: PartialMap(_random_injection(rng, rng.randrange(4), 8)) for g in gens}
    c = add_words(Condition(Assignment(table)), rng.sample(pool, 4))
    chain = [c]
    while len(chain) <= steps:
        if rng.random() < 0.4:
            c = add_words(c, c.words | {rng.choice(pool)})
        else:
            g = rng.choice(gens)
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


def _clash(rng: random.Random, c: Condition) -> Condition:
    """c with one more pair that makes a map of it not injective."""
    g = rng.choice([g for g in FINITE if c.s.get(g).pairs])
    n, m = rng.choice(sorted(c.s.get(g).pairs))
    return Condition(c.s.with_pair(g, n + 20, m), c.words)


def _changed(p: Condition, q: Condition) -> int:
    return sum(p.s.get(g).pairs != q.s.get(g).pairs for g in p.s.table)


def test_leq_matches_reference_on_grown_and_one_go_side_sets():
    one_gen = multi_gen = non_injective = false_answers = 0
    rng = random.Random("side-index-empty")
    for _ in range(120):
        chain = _chain(rng, 12)
        for j in range(1, len(chain)):
            for i in range(j):
                p, q = chain[j], chain[i]
                want = reference_leq(p, q)
                assert poset.leq(p, q) == want, (p.to_json(), q.to_json())
                assert poset.leq(_in_one_go(p), _in_one_go(q)) == want
                changed = _changed(p, q)
                one_gen += changed == 1
                multi_gen += changed > 1
                false_answers += not want
            if any(chain[j].s.get(g).pairs for g in FINITE):
                q = chain[rng.randrange(j)]
                bad = _clash(rng, chain[j])
                for args in ((bad, q), (_in_one_go(bad), _in_one_go(q))):
                    with pytest.raises(ValueError, match="partial injections"):
                        poset.leq(*args)
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


def _holding_by_scan(p: Condition, gen: int) -> list:
    """The side words that hold gen, as before the index: one scan of the
    side set."""
    pos, neg = Letter(gen, 1), Letter(gen, -1)
    return [w for w in p.words if pos in w.letters or neg in w.letters]


def _concrete_by_scan(p: Condition, gen: int, n: int) -> set[int]:
    """The forbidden set of the walk certificate before the trie test,
    on the words _holding_by_scan finds."""
    if not _holding_by_scan(p, gen):
        return set(p.s.get(gen).rev)
    return {n} | {v for pm in p.s.table.values() for v in (*pm.fwd, *pm.rev)}


def test_trie_test_and_mixed_scan_match_the_holding_scan():
    # The trie test and the certificate built on it, against the scan of
    # the side set, on chains; a range step's certificate against the scan
    # of the mirror of the condition.  The maps also cover g3, which no
    # side word holds.
    held = unheld = minus_only = 0
    rng = random.Random("holding-empty")
    gens = FINITE + (3,)
    for _ in range(3):
        for c in _chain(rng, 30, gens)[::3]:
            for gen in gens:
                for x, direction in ((c, "domain"), (mirror(c, gen), "range")):
                    tries = side_index("walk", x.words).tries
                    keyed = Letter(gen, 1) in tries or Letter(gen, -1) in tries
                    assert keyed == bool(_holding_by_scan(x, gen)), (gen, x.to_json())
                    n = rng.randrange(12)
                    want = _concrete_by_scan(x, gen, n)
                    assert PointPhase(c).certificate(gen, n, direction).forbidden == want
                    held += keyed
                    unheld += not keyed
                    minus_only += keyed and Letter(gen, 1) not in tries
    assert held >= 120 and unheld >= 30, (held, unheld)
    assert minus_only >= 50, minus_only


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
    """The edf forbidden set before the scan, on the words _holding_by_scan
    finds."""
    forb = set()
    for w in _holding_by_scan(p, gen):
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
                assert PointPhase(p).certificate(gen, n, "domain").forbidden == want
                nonempty += bool(want)
    assert nonempty >= 4000, nonempty


@pytest.mark.parametrize("mode, calls", [("edf", False), ("mad", False), ("adp", True)])
def test_only_the_walk_disciplines_build_an_index(mode, calls, tmp_path, capsys, monkeypatch):
    # the build-long variant command; main clears the cache, so every index
    # it reads is built during the command.  Every discipline builds one,
    # but only the walk disciplines build rotation tries: the edf and mad
    # indexes hold pair partners only.
    built = []
    init = poset.SideIndex.__init__

    def recording(self, kernel, words):
        init(self, kernel, words)
        built.append(self)

    monkeypatch.setattr(poset.SideIndex, "__init__", recording)
    argv = ["build-group", "--mode", mode, "--generators", "4", "--points", "200",
            "--seed", "3", "--out", str(tmp_path / "o.json")]
    assert main(argv) == 0
    assert built
    assert any(index.tries for index in built) == calls
    assert any(index.partners for index in built) != calls


def test_index_depends_only_on_the_side_set():
    words = hat_words(range(3), 3)
    one, other = frozenset(words), frozenset(reversed(words))
    assert one == other and one is not other
    side_index.cache_clear()
    first = side_index("walk", one)
    side_index.cache_clear()
    second = side_index("walk", other)
    assert first is not second and first.tries == second.tries
    assert side_index("walk", one) is second  # equal side sets share one index
    keys = {w.class_key for w in one}
    letters = {x for key in keys for x in key}
    assert set(first.tries) == letters
    for letter in letters:
        want = set().union(*(_rotations_after(key, letter) for key in keys))
        assert set(_paths(first.tries[letter])) == want
