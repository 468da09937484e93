"""Word helpers that only the tests use, so they live with the tests:
concatenation of reduced words, which the word-law tests build products
with, and the hat words of a class listed one by one, which the report's
count (words.class_hat_count) and the class expansion are checked against.
The per-class kernels of a cofinitary build are kept here as they were
before their rewrites (fix_points, class_hat_count, class_representatives
and the side index's tries), as the references tests/test_kernel_references.py
compares the rewrites with."""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from cofinitary.evaluation import Assignment, _lookup, letter_step
from cofinitary.poset import END
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


# -- the per-class kernels as they were, the references of their rewrites ----


def _lookups(w: Word, s: Assignment) -> list[Callable[[int], Optional[int]]]:
    """One lookup per letter of w, in application order (rightmost first)."""
    return [letter_step(letter, s) for letter in reversed(w.letters)]


def _walk(steps: list[Callable[[int], Optional[int]]], n: int) -> Optional[int]:
    """n after every step; None once a lookup fails."""
    for step in steps:
        n = step(n)
        if n is None:
            return None
    return n


def fix_points(w: Word, s: Assignment) -> frozenset[int]:
    """evaluation.fix_points' points, one _walk call per start candidate."""
    if not w:
        raise ValueError("fix of the empty word is everything; not represented")
    steps = _lookups(w, s)
    return frozenset(n for n in _lookup(w.letters[-1], s) if _walk(steps, n) == n)


def class_hat_count(w: Word) -> int:
    """words.class_hat_count with the least period found by rotating the
    letters, and the generator changes summed from a generator."""
    letters = w.letters
    size = len(letters)
    period = next(
        p for p in range(1, size + 1) if size % p == 0 and letters[p:] + letters[:p] == letters
    )
    changes = sum(letters[i - 1].gen != letters[i].gen for i in range(period))
    return 2 * max(changes, 1)


def class_representatives(gens: Sequence[int], max_len: int) -> list[Word]:
    """words.class_representatives with each node's branches pushed by a
    generator, the inverse's rotations concatenated from two slices, and a
    word's letters built by a generator."""
    alphabet = sorted(Letter(g, s) for g in set(gens) for s in (1, -1))
    inv = [alphabet.index(INVERSE[x]) for x in alphabet]
    k = len(alphabet)
    out: list[Word] = []
    for n in range(1, max_len + 1):
        a = [0] * (n + 1)
        stack = [(1, 1, 0)]
        while stack:
            t, p, j = stack.pop()
            a[t - 1] = j
            if t > n:
                if n % p or n > 1 and a[1] == inv[a[n]]:
                    continue
                necklace = tuple(a[1:])
                back = tuple(inv[j] for j in reversed(necklace))
                if all(necklace <= back[i:] + back[:i] for i in range(n)):
                    w = Word(tuple(alphabet[j] for j in necklace))
                    object.__setattr__(w, "_class_key", w.letters)
                    out.append(w)
                continue
            banned = inv[a[t - 1]] if t > 1 else -1
            least = a[t - p]
            stack.extend(
                (t + 1, p if j == least else t, j) for j in reversed(range(least, k)) if j != banned
            )
    return out


def side_tries(words: Iterable[Word]) -> dict:
    """poset.SideIndex's walk tries, each rotation read as the
    concatenation of two slices of the class key in application order."""
    tries: dict = {}
    for key in {w.class_key for w in words}:
        applied = key[::-1]
        for i, letter in enumerate(applied):
            node = tries.setdefault(letter, {})
            for x in applied[i + 1 :] + applied[:i]:
                node = node.setdefault(x, {})
            node[END] = END
    return tries
