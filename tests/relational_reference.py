"""Word evaluation by naive relational composition: the oracle that
``eval_word`` and ``fix_points`` are checked against (and, through
``fix_points``, ``fix_table``).  It reads only the pair sets of the
assignment, none of ``cofinitary.evaluation``'s lookups."""

from __future__ import annotations

from cofinitary.evaluation import Assignment
from cofinitary.words import Letter, Word


def relation_compose(
    outer: frozenset[tuple[int, int]], inner: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    by_mid: dict[int, list[int]] = {}
    for k, m in outer:
        by_mid.setdefault(k, []).append(m)
    out = set()
    for n, k in inner:
        for m in by_mid.get(k, ()):
            out.add((n, m))
    return frozenset(out)


def relational_eval(w: Word, s: Assignment) -> frozenset[tuple[int, int]]:
    """Materialize e_w as a pair set by naive relational composition."""
    if not w:
        raise ValueError("the empty word is the identity relation on omega")

    def relation(letter: Letter) -> frozenset[tuple[int, int]]:
        pairs = s.get(letter.gen).pairs
        return pairs if letter.sign == 1 else frozenset((m, n) for n, m in pairs)

    applied = w.letters[::-1]
    rel = relation(applied[0])
    for letter in applied[1:]:
        rel = relation_compose(relation(letter), rel)
    return rel
