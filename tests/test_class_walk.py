"""The order check walks rotation tries built from one word per class.

poset.leq checks each new pair (a, b) on g by two forward walks under p:
from b through the trie of the rotations that follow a (g, +1), and from a
through the trie of those that follow a (g, -1), each rotation taken from
the one representative of its words.cyclic_class.  It orders partial
injections only and raises on any other map.  The reference below is the
order check as it was before the class reduction, copied verbatim: it walks
every frozen word, with the new pairs taken from the whole triples sets.
Only its ambient ground is gone: conditions are over finite maps only.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

import pytest

from copy_path import triples

from cofinitary import poset
from cofinitary.evaluation import Assignment, PartialMap, apply_letter, eval_word, fix_points
from cofinitary.extension import domain_extend, extend_with
from cofinitary.poset import DISCIPLINES, END, Condition, PosetMode, _agreement, _ones, validate
from cofinitary.sampling import sample_condition
from cofinitary.words import INVERSE, Letter, Word, cyclic_class, hat_words, invert, parse_word


# -- the reference: the order check before the class reduction, verbatim -----


def new_fix_candidates(
    w: Word, s_new: Assignment, new_triples: Iterable[tuple[int, int, int]]
) -> list[int]:
    """Start points whose evaluation path along w can use a new pair.

    For each letter position and each new pair on that letter's generator the
    value just before the step is pinned; walking backward through the earlier
    letters yields at most one candidate start per (position, pair).
    """
    by_gen: dict[int, list[tuple[int, int]]] = {}
    for g, n, m in new_triples:
        by_gen.setdefault(g, []).append((n, m))
    candidates: set[int] = set()
    letters = w.letters
    for i in range(len(letters)):  # i-th letter from the right is applied i-th
        letter = letters[len(letters) - 1 - i]
        for n, m in by_gen.get(letter.gen, ()):
            value: Optional[int] = n if letter.sign == 1 else m
            for j in range(i - 1, -1, -1):
                value = apply_letter(INVERSE[letters[len(letters) - 1 - j]], value, s_new)
                if value is None:
                    break
            if value is not None:
                candidates.add(value)
    return sorted(candidates)


def _word_freezing_ok(
    w: Word, s_new: Assignment, s_old: Assignment, new_triples
) -> Optional[int]:
    """None if w gains no fixed point going from s_old to s_new; otherwise a
    witness point."""
    for n in new_fix_candidates(w, s_new, new_triples):
        if eval_word(w, s_new, n) == n and eval_word(w, s_old, n) != n:
            return n
    return None


def leq(p: Condition, q: Condition) -> bool:
    """p extends q: larger assignment and side set, no frozen word gains a
    fixed point (MAD: no frozen pair gains a common 1-point)."""
    if p.mode is not q.mode:
        raise ValueError(f"mode mismatch: {p.mode} vs {q.mode}")
    if not p.s.contains(q.s) or not (p.words >= q.words):
        return False
    kernel = DISCIPLINES[p.mode].kernel
    if kernel == "ones":
        letters = sorted(w.letters[0].gen for w in q.words)
        for i, a in enumerate(letters):
            for b in letters[i + 1 :]:
                ones_p = _ones(p.s.get(a).pairs) & _ones(p.s.get(b).pairs)
                ones_q = _ones(q.s.get(a).pairs) & _ones(q.s.get(b).pairs)
                if not (ones_p <= ones_q):
                    return False
        return True
    if kernel == "agreement":
        for w in q.words:
            a, b = w.letters[0].gen, w.letters[1].gen
            if not (_agreement(p.s, a, b) <= _agreement(q.s, a, b)):
                return False
        return True
    new_triples = triples(p.s) - triples(q.s)
    if not new_triples:
        return True
    for w in q.words:
        if _word_freezing_ok(w, p.s, q.s, new_triples) is not None:
            return False
    return True


reference_leq = leq


# -- helpers -----------------------------------------------------------------

FINITE = (0, 1, 2)


def pmap(*pairs):
    return PartialMap(frozenset(pairs))


def _random_injection(rng: random.Random, size: int, values: int) -> frozenset:
    dom = rng.sample(range(values), size)
    img = rng.sample(range(values), size)
    return frozenset(zip(dom, img))


def _random_pair(rng, q: Condition, values: int, injective: bool):
    """An assignment over q's with one to three extra pairs: partial
    injections, or with one pair that breaks injectivity or functionality."""
    s = q.s
    for _ in range(rng.randrange(1, 4)):
        g = rng.choice(FINITE)
        pm = s.get(g)
        n, m = rng.randrange(values), rng.randrange(values)
        if injective and (n in pm.fwd or m in pm.rev):
            continue
        s = Assignment({**s.table, g: PartialMap(pm.pairs | {(n, m)})})
    if not injective:
        g = rng.choice(FINITE)
        pm = s.get(g)
        if pm.pairs:
            n, m = rng.choice(sorted(pm.pairs))
            clash = (rng.randrange(values), m) if rng.random() < 0.5 else (n, rng.randrange(values))
            s = Assignment({**s.table, g: PartialMap(pm.pairs | {clash})})
    return s


# -- the differential test -----------------------------------------------------


def _draws(count: int):
    """count (p, q) pairs: q freezes a random half of the hat words of length
    <= 3 over 3 generators; p adds pairs to q's maps (every third p breaks
    injectivity or functionality), sometimes grows the side set and
    sometimes drops a pair or a map of q."""
    rng = random.Random("class-walk-empty")
    pool = hat_words(FINITE, 3)
    for trial in range(count):
        q_words = frozenset(rng.sample(pool, len(pool) // 2))
        table = {g: PartialMap(_random_injection(rng, rng.randrange(5), 7)) for g in FINITE}
        q = Condition(Assignment(table), q_words)
        s = _random_pair(rng, q, 7, injective=trial % 3 != 0)
        words = q.words
        if rng.random() < 0.2:
            words = words | frozenset(rng.sample(pool, 3))
        g = rng.choice(FINITE)
        if rng.random() < 0.1 and s.get(g).pairs:  # drop one pair, or the whole map
            keep = sorted(s.get(g).pairs)[1:] if rng.random() < 0.5 else []
            s = Assignment({**s.table, g: PartialMap(frozenset(keep))})
        yield Condition(s, words), q


def _injective(c: Condition) -> bool:
    return all(pm.is_functional() and pm.is_injective() for pm in c.s.table.values())


def test_matches_reference_on_dense_side_sets():
    false_answers = non_injective = 0
    for p, q in _draws(3600):
        if not _injective(p):
            with pytest.raises(ValueError, match="partial injections"):
                poset.leq(p, q)
            non_injective += 1
            continue
        want = reference_leq(p, q)
        assert poset.leq(p, q) == want, (p.to_json(), q.to_json())
        false_answers += not want
    assert false_answers >= 1000, false_answers
    assert non_injective >= 300, non_injective


# -- the lemma behind the reduction ------------------------------------------


def _rotations(w: Word) -> list[Word]:
    # rotations of a hat word stay reduced: its end letters use distinct
    # generators, or it is a power
    t = w.letters
    return [Word(t[i:] + t[:i]) for i in range(len(t))]


def test_rotation_and_inversion_lemma():
    """|Fix(uv)| = |Fix(vu)| and Fix(w^-1) = Fix(w) under partial injections."""
    rng = random.Random(5)
    words = hat_words(FINITE, 4)
    for _ in range(8):
        q = sample_condition(rng, PosetMode.COFINITARY, FINITE, max_pairs=6,
                             max_words=0, value_range=6)
        for w in words:
            size = len(fix_points(w, q.s).points)
            for r in _rotations(w):
                fix = fix_points(r, q.s).points
                assert len(fix) == size, (w, r, q.to_json())
                assert fix_points(invert(r), q.s).points == fix
                assert cyclic_class(r) == cyclic_class(w)


# -- what gets walked --------------------------------------------------------


def test_word_off_its_class_key_is_still_checked():
    w = parse_word("g1 g0")
    assert cyclic_class(w) != w.letters  # its key is g0^-1 g1^-1, not frozen
    q = Condition(Assignment({0: pmap((0, 1))}), frozenset({parse_word("g2"), w}))
    p = Condition(q.s.with_pair(1, 1, 0), q.words)  # g1 g0 now fixes 0
    assert reference_leq(p, q) is False
    assert poset.leq(p, q) is False


def _rotations_after(key: tuple[Letter, ...], letter: Letter) -> set[tuple[Letter, ...]]:
    """The rotations of a class key in application order, each read from
    just after an occurrence of the letter, without that occurrence."""
    applied = key[::-1]
    return {applied[i + 1 :] + applied[:i] for i, x in enumerate(applied) if x == letter}


def _paths(node: dict, prefix: tuple[Letter, ...] = ()):
    """The root-to-end paths of a rotation trie."""
    for letter, child in node.items():
        if letter is END:
            yield prefix
        else:
            yield from _paths(child, prefix + (letter,))


def _freeze_everything() -> tuple[Condition, Condition]:
    """A condition freezing all 2,432 hat words of length <= 4 over 4
    generators, and a certified one-pair extension of it."""
    q = Condition()
    for g in range(4):
        for n in range(3):
            q = extend_with(q, g, n, n + 1 + g % 2)
    q = poset.add_words(q, hat_words(range(4), 4))
    p = extend_with(q, 0, 5, domain_extend(q, 0, 5).choose())
    return p, q


def test_one_walk_per_class():
    """p adds one pair on g0, so leq walks the tries of (g0, +1) and
    (g0, -1): their paths are exactly the rotations of the 271 class
    representatives that hold g0, read from after each occurrence, and no
    class without g0 appears."""
    p, q = _freeze_everything()
    assert len(q.words) == 2432
    keys = {w.class_key for w in q.words}
    assert len(keys) == 390
    holding = {k for k in keys if any(x.gen == 0 for x in k)}
    assert len(holding) == 271
    tries = poset.side_index(q.words)
    reached = set()
    for letter in (Letter(0, 1), Letter(0, -1)):
        paths = set(_paths(tries[letter]))
        assert paths == set().union(*(_rotations_after(k, letter) for k in holding))
        reached |= {cyclic_class(Word(((letter,) + path)[::-1])) for path in paths}
    assert reached == holding
    assert poset.leq(p, q) and reference_leq(p, q)


def test_non_injective_maps_raise():
    """The walk disciplines order partial injections only: leq raises on a
    map that is not one, where validate reports it too."""
    p, q = _freeze_everything()
    n, m = sorted(p.s.get(1).pairs)[0]
    for bad_pair in ((n + 50, m), (n, m + 50)):  # g1 no longer injective, or functional
        bad = Condition(p.s.with_pair(1, *bad_pair), p.words)
        assert validate(bad)
        with pytest.raises(ValueError, match="partial injections"):
            poset.leq(bad, q)
    clash = Assignment({0: pmap((0, 1), (2, 1))})
    with pytest.raises(ValueError, match="partial injections"):
        poset.leq(Condition(clash, mode=PosetMode.ADP), Condition(mode=PosetMode.ADP))
    assert poset.leq(Condition(clash, mode=PosetMode.EDF), Condition(mode=PosetMode.EDF))
