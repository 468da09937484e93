"""The per-class kernels of a cofinitary build against the bodies they
replaced (tests/word_reference.py).

A cofinitary build runs each of these once per class: fix_points freezes a
class representative, class_representatives enumerates them,
class_hat_count counts a class's hat words for the report, and the side
index reads every rotation of a representative into its tries.  Each must
give what its old body gave: the same fix sets, counts and words, and the
same tries as nested dicts.  Drawn inputs cover the common cases; the ones
draws miss are spelled out: one-letter words, powers g^k, a walk that
fails at its last letter, a fixed point at 0, and a word budget of 1,000.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import word_reference as ref
from cofinitary.evaluation import Assignment, PartialMap, fix_points
from cofinitary.poset import SideIndex
from cofinitary.words import (
    Letter,
    Word,
    class_hat_count,
    class_representatives,
    hat_words,
    parse_word,
    power,
    reduce_letters,
)

letters_st = st.lists(
    st.builds(Letter, st.integers(0, 3), st.sampled_from([1, -1])), min_size=1, max_size=12
)
# pair sets on a few values, so that walks close up; neither functional
# nor injective as a rule, and generator 3 is mostly absent
maps_st = st.fixed_dictionaries({
    g: st.frozensets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=size)
    for g, size in ((0, 8), (1, 8), (2, 8), (3, 1))
})


def _assignment(maps) -> Assignment:
    return Assignment({g: PartialMap(pairs) for g, pairs in maps.items()})


def _cycle(size: int, start: int = 0) -> PartialMap:
    """The cycle start -> start + 1 -> ... -> start + size - 1 -> start."""
    return PartialMap(frozenset((start + i, start + (i + 1) % size) for i in range(size)))


# -- fix_points -----------------------------------------------------------------


@given(letters_st, maps_st)
@settings(max_examples=300)
def test_fix_points_matches_its_reference_on_drawn_words(letters, maps):
    w = reduce_letters(letters)
    assume(w)
    s = _assignment(maps)
    assert fix_points(w, s).points == ref.fix_points(w, s)


def test_fix_points_matches_its_reference_on_dense_injections():
    rng = random.Random(5)
    words = hat_words((0, 1, 2), 4)
    fixed = 0
    for _ in range(20):
        table = {}
        for g in (0, 1, 2):
            dom = rng.sample(range(7), rng.randrange(8))
            table[g] = PartialMap(frozenset(zip(dom, rng.sample(range(7), len(dom)))))
        s = Assignment(table)
        for w in words:
            points = fix_points(w, s).points
            assert points == ref.fix_points(w, s), w
            fixed += bool(points)
    assert fixed > 100


@pytest.mark.parametrize("text, expected", [
    ("g0", {0, 4}),  # one letter: its own fixed points, 0 among them
    ("g0^-1", {0, 4}),
    ("g1", set()),
    ("g1^3", {1, 2, 3}),  # a power around a 3-cycle
    ("g1^2", set()),
    ("g1^-6", {1, 2, 3}),
    ("g2 g1", {0}),  # 0 -> 1 -> 0: a fixed point at 0
    ("g3 g2 g1", set()),  # the walk of 0 fails at its last letter
    ("g0 g2 g1", {0}),
])
def test_fix_points_on_the_cases_draws_miss(text, expected):
    s = Assignment({
        0: PartialMap(frozenset({(0, 0), (4, 4), (5, 6)})),
        1: PartialMap(frozenset({(0, 1)}) | _cycle(3, 1).pairs),
        2: PartialMap(frozenset({(1, 0)})),
        3: PartialMap(frozenset({(2, 2)})),
    })
    w = parse_word(text)
    assert fix_points(w, s).points == ref.fix_points(w, s) == expected


@pytest.mark.parametrize("k, cycle, expected", [
    (1000, 8, set(range(8))),
    (1000, 7, set()),
    (-1000, 10, set(range(10))),
    (999, 1000, set()),
])
def test_fix_points_on_a_word_of_length_1000(k, cycle, expected):
    s = Assignment({0: _cycle(cycle)})
    w = power(0, k)
    assert fix_points(w, s).points == ref.fix_points(w, s) == expected


# -- class_hat_count ------------------------------------------------------------


@given(letters_st, st.integers(1, 4))
@settings(max_examples=300)
def test_class_hat_count_matches_its_reference_on_drawn_powers(letters, k):
    # a drawn word repeated k times, where that stays reduced: the periods
    # draws alone almost never make
    w = reduce_letters(letters)
    assume(w and w.letters[0] != w.letters[-1].inverse())
    w = Word(w.letters * k)
    assert class_hat_count(w) == ref.class_hat_count(w)


@pytest.mark.parametrize("text, expected", [
    ("g0", 2),
    ("g0^5", 2),
    ("g0 g1", 4),
    ("g0 g1 g0 g1", 4),  # period 2 of length 4: counted over the period
    ("g0 g1^-1 g0 g1^-1 g0 g1^-1", 4),
    ("g0^2 g1", 4),
    ("g0 g1 g2 g0 g1 g2", 6),
    ("g0 g1 g0 g2", 8),
])
def test_class_hat_count_on_the_cases_draws_miss(text, expected):
    w = parse_word(text)
    assert class_hat_count(w) == ref.class_hat_count(w) == expected


def test_class_hat_count_at_the_length_1000_budget():
    for w in class_representatives([0], 1000) + [Word((Letter(0, 1), Letter(1, 1)) * 500)]:
        assert class_hat_count(w) == ref.class_hat_count(w)


# -- class_representatives ------------------------------------------------------


@pytest.mark.parametrize("gens, max_len", [
    ((0,), 6), ((0, 1), 6), ((0, 1, 2), 5), ((0, 1, 2, 3), 5), ((7, 2, 5), 4), ((0, 1, 2, 3), 6),
])
def test_class_representatives_match_their_reference(gens, max_len):
    reps, expected = class_representatives(gens, max_len), ref.class_representatives(gens, max_len)
    assert [w.letters for w in reps] == [w.letters for w in expected]
    assert all(w.class_key is w.letters for w in reps)


def test_class_representatives_at_the_length_1000_budget():
    reps = class_representatives([0], 1000)
    assert [w.letters for w in reps] == [w.letters for w in ref.class_representatives([0], 1000)]
    assert len(reps) == 1000


# -- the side index's tries -----------------------------------------------------


def _same_nested(a: dict, b: dict) -> bool:
    """a == b for nested dicts, END leaves included, compared without
    recursion: a 1,000-letter word's trie is 1,000 dicts deep."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.keys() != y.keys():
            return False
        for key, child in x.items():
            other = y[key]
            if type(child) is dict and type(other) is dict:
                stack.append((child, other))
            elif type(child) is dict or type(other) is dict or child != other:
                return False
    return True


@given(st.lists(st.sampled_from(hat_words((0, 1, 2), 4)), max_size=30))
@settings(max_examples=200)
def test_side_tries_match_their_reference_on_drawn_side_sets(words):
    tries = SideIndex("walk", words).tries
    assert _same_nested(tries, ref.side_tries(words)) and tries == ref.side_tries(words)


@pytest.mark.parametrize("texts", [
    ["g0"], ["g0^-1", "g1"], ["g0^4"], ["g0 g1 g0 g1"], ["g0^2 g1^-1", "g1^-1 g0^2"],
])
def test_side_tries_on_the_cases_draws_miss(texts):
    words = [parse_word(t) for t in texts]
    assert _same_nested(SideIndex("walk", words).tries, ref.side_tries(words))


def test_side_tries_at_the_length_1000_budget():
    words = [power(0, 1000), Word((Letter(0, 1), Letter(1, -1)) * 500)]
    tries = SideIndex("walk", words).tries
    assert _same_nested(tries, ref.side_tries(words))
    assert not _same_nested(tries, ref.side_tries(words[:1]))
    assert set(tries) == {Letter(0, -1), Letter(1, 1)}  # the letters of the class keys
