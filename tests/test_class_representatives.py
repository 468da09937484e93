"""words.class_representatives against the selection it replaces.

A cofinitary build used to build every hat word, key each by
words.cyclic_class and keep the least under Word.sort_key per key.
class_representatives enumerates those least words directly; it must give
the same words in the same order (the build shuffles each length group
from that order), with class keys that are the words' own letters, and
its classes must cover every hat word once.
"""

from __future__ import annotations

import pytest

from cofinitary.words import (
    Word,
    class_hat_count,
    class_representatives,
    cyclic_class,
    hat_words,
)
from word_reference import class_hat_letters


def least_per_class(gens, max_len) -> list[Word]:
    """The old selection: the least hat word of each class, in sort_key order."""
    least: dict = {}
    for w in sorted(hat_words(gens, max_len), key=Word.sort_key):
        least.setdefault(cyclic_class(w), w)
    return list(least.values())


CASES = [((0,), max_len) for max_len in range(1, 6)] + [
    ((0, 1), 5),
    ((0, 1, 2), 5),
    ((0, 1, 2, 3), 5),
    ((2, 5, 7), 3),
    ((7, 2, 5), 4),  # unsorted ids
    ((0, 1, 2, 3), 6),
]


@pytest.mark.parametrize("gens, max_len", CASES)
def test_same_words_in_the_same_order(gens, max_len):
    reps = class_representatives(gens, max_len)
    expected = least_per_class(gens, max_len)
    assert [w.letters for w in reps] == [w.letters for w in expected]
    assert all(w.class_key == w.letters == cyclic_class(w) for w in reps)
    assert sum(len(class_hat_letters(w)) for w in reps) == len(hat_words(gens, max_len))


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_class_hat_count_matches_the_listed_rotations(count):
    # the report's "hat_words" count, against the class's hat words listed
    # one by one, on every representative up to length 6
    gens = tuple(range(count))
    reps = class_representatives(gens, 6)
    assert [class_hat_count(w) for w in reps] == [len(class_hat_letters(w)) for w in reps]
    assert sum(map(class_hat_count, reps)) == len(hat_words(gens, 6))


def test_class_keys_are_preset():
    # side_index reads class_key; the enumerator sets it, so no rotation
    # is computed for a representative
    for w in class_representatives((0, 1, 2), 3):
        assert w.__dict__["_class_key"] is w.letters
