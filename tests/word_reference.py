"""Concatenation of reduced words, the helper the word-law tests build
products with: no command concatenates words, so it lives with the tests."""

from __future__ import annotations

from cofinitary.words import Letter, Word, reduce_letters


def concat(*words: Word) -> Word:
    out: list[Letter] = []
    for w in words:
        out.extend(w.letters)
    return reduce_letters(out)
