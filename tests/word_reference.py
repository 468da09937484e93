"""Word helpers that only the tests use, so they live with the tests:
concatenation of reduced words, which the word-law tests build products
with, and the hat words of a class listed one by one, which the report's
count (words.class_hat_count) and the class expansion are checked against."""

from __future__ import annotations

from cofinitary.words import INVERSE, Letter, Word, format_word, is_hat, reduce_letters


def concat(*words: Word) -> Word:
    out: list[Letter] = []
    for w in words:
        out.extend(w.letters)
    return reduce_letters(out)


def class_hat_letters(w: Word) -> list[tuple[Letter, ...]]:
    """The letters of the hat words with w's cyclic_class key, in
    Word.sort_key order: the distinct hat words among the rotations of the
    hat word w and of w^-1.  A hat word is cyclically reduced, so each
    rotation is a reduced word."""
    if not w or not is_hat(w):
        raise ValueError(f"{format_word(w)} is not a hat word")
    inverse = tuple(INVERSE[x] for x in reversed(w.letters))
    rotations = {t[i:] + t[:i] for t in (w.letters, inverse) for i in range(len(t))}
    return sorted(t for t in rotations if is_hat(Word(t)))
