"""Conditions (s, F) of the group-adding poset and its variants.

A condition pairs a finite generator-indexed assignment with a finite side
set of words whose fixed-point sets are frozen: an extension may not give a
frozen word any new fixed point.  Four modes share the representation:

  COFINITARY  injective maps, side words from the hat class
  ADP         injective maps, side words of the shape a b^-1
  EDF         functional (not necessarily injective) maps, words a b^-1
  MAD         {0,1}-valued functional maps, side set of single letters

Everything is a value type; extension never mutates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .evaluation import (
    Assignment,
    GroundRep,
    EMPTY_GROUND,
    apply_letter,
    eval_word,
    unapply_letter,
)
from .words import Word, format_word, is_hat, occurrences, parse_word


class PosetMode(enum.Enum):
    COFINITARY = "cofinitary"
    ADP = "adp"
    EDF = "edf"
    MAD = "mad"


def _is_pair_word(w: Word) -> bool:
    return (
        len(w.letters) == 2
        and w.letters[0].sign == 1
        and w.letters[1].sign == -1
        and w.letters[0].gen != w.letters[1].gen
    )


def _is_single_letter(w: Word) -> bool:
    return len(w.letters) == 1 and w.letters[0].sign == 1


@dataclass(frozen=True)
class Condition:
    s: Assignment = field(default_factory=Assignment)
    words: frozenset[Word] = frozenset()
    mode: PosetMode = PosetMode.COFINITARY

    def sorted_words(self) -> list[Word]:
        return sorted(self.words, key=Word.sort_key)

    def occurring(self, ground: GroundRep = EMPTY_GROUND) -> frozenset[int]:
        """Generators occurring in the assignment or the side words,
        ambient generators excluded."""
        occ = set(self.s.generators())
        for w in self.words:
            occ |= occurrences(w)
        return frozenset(occ) - ground.generators()

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "s": self.s.to_json(),
            "F": [format_word(w) for w in self.sorted_words()],
        }

    @staticmethod
    def from_json(obj: dict) -> "Condition":
        return Condition(
            Assignment.from_json(obj.get("s", {})),
            frozenset(parse_word(t) for t in obj.get("F", [])),
            PosetMode(obj.get("mode", "cofinitary")),
        )


EMPTY_COFINITARY = Condition()


def validate(c: Condition, ground: GroundRep = EMPTY_GROUND) -> list[str]:
    """All invariant violations for the condition's mode; empty means ok."""
    problems: list[str] = []
    for g, pm in sorted(c.s.table.items()):
        if not pm.is_functional():
            problems.append(f"map for g{g} is not functional")
        if c.mode in (PosetMode.COFINITARY, PosetMode.ADP) and not pm.is_injective():
            problems.append(f"map for g{g} is not injective")
        if c.mode is PosetMode.MAD:
            bad = {m for _, m in pm.pairs} - {0, 1}
            if bad:
                problems.append(f"map for g{g} takes values outside {{0,1}}: {sorted(bad)}")
        if g in ground.table:
            problems.append(f"g{g} is an ambient generator but carries finite pairs")
    for w in c.sorted_words():
        if not w:
            problems.append("side set contains the empty word")
            continue
        if c.mode is PosetMode.COFINITARY and not is_hat(w):
            problems.append(f"word {format_word(w)} is not in the hat class")
        elif c.mode in (PosetMode.ADP, PosetMode.EDF) and not _is_pair_word(w):
            problems.append(f"word {format_word(w)} is not of the shape a b^-1")
        elif c.mode is PosetMode.MAD:
            if not _is_single_letter(w):
                problems.append(f"MAD side entries are single letters, got {format_word(w)}")
            elif w.letters[0].gen in ground.table:
                problems.append(f"MAD side letter g{w.letters[0].gen} is ambient")
    return problems


def _known_valid(c: Condition, ground: GroundRep) -> bool:
    return getattr(c, "_valid_for", None) == ground.generators()


def validated(prev: Condition, out: Condition, ground: GroundRep = EMPTY_GROUND) -> Condition:
    """out, once validate finds nothing wrong with it; raises ValueError with
    validate's message otherwise.

    validate judges each map and each side word on its own, so when prev is
    known valid for this ground only what out adds is checked: the maps that
    are not prev's own objects and the words prev lacks.  The problems, and
    their order, are then exactly those of validate(out).  Conditions are
    marked known valid only here, and only after a clean check.
    """
    if _known_valid(prev, ground) and out.mode is prev.mode:
        maps = {g: pm for g, pm in out.s.table.items() if prev.s.table.get(g) is not pm}
        added = frozenset() if out.words is prev.words else out.words - prev.words
        bad = validate(Condition(Assignment(maps), added, out.mode), ground)
    else:
        bad = validate(out, ground)
    if bad:
        raise ValueError("; ".join(bad))
    object.__setattr__(out, "_valid_for", ground.generators())
    return out


def _ones(pm_pairs: Iterable[tuple[int, int]]) -> frozenset[int]:
    return frozenset(n for n, m in pm_pairs if m == 1)


def _agreement(s: Assignment, a: int, b: int) -> frozenset[int]:
    fa, fb = s.get(a).fwd, s.get(b).fwd
    return frozenset(n for n, v in fa.items() if fb.get(n) == v)


def new_fix_candidates(
    w: Word, s_new: Assignment, new_triples: Iterable[tuple[int, int, int]], ground: GroundRep
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
                value = unapply_letter(letters[len(letters) - 1 - j], value, s_new, ground)
                if value is None:
                    break
            if value is not None:
                candidates.add(value)
    return sorted(candidates)


def _word_freezing_ok(
    w: Word, s_new: Assignment, s_old: Assignment, new_triples, ground: GroundRep
) -> Optional[int]:
    """None if w gains no fixed point going from s_old to s_new; otherwise a
    witness point."""
    for n in new_fix_candidates(w, s_new, new_triples, ground):
        if eval_word(w, s_new, ground, n) == n and eval_word(w, s_old, ground, n) != n:
            return n
    return None


def leq(p: Condition, q: Condition, ground: GroundRep = EMPTY_GROUND) -> bool:
    """p extends q: larger assignment and side set, no frozen word gains a
    fixed point (MAD: no frozen pair gains a common 1-point)."""
    if p.mode is not q.mode:
        raise ValueError(f"mode mismatch: {p.mode} vs {q.mode}")
    if not p.s.contains(q.s) or not (p.words >= q.words):
        return False
    if p.mode is PosetMode.MAD:
        letters = sorted(w.letters[0].gen for w in q.words)
        for i, a in enumerate(letters):
            for b in letters[i + 1 :]:
                ones_p = _ones(p.s.get(a).pairs) & _ones(p.s.get(b).pairs)
                ones_q = _ones(q.s.get(a).pairs) & _ones(q.s.get(b).pairs)
                if not (ones_p <= ones_q):
                    return False
        return True
    if p.mode is PosetMode.EDF:
        for w in q.words:
            a, b = w.letters[0].gen, w.letters[1].gen
            if not (_agreement(p.s, a, b) <= _agreement(q.s, a, b)):
                return False
        return True
    new_triples = p.s.triples() - q.s.triples()
    if not new_triples:
        return True
    for w in q.words:
        if _word_freezing_ok(w, p.s, q.s, new_triples, ground) is not None:
            return False
    return True


def restrict(p: Condition, keep: Iterable[int]) -> Condition:
    """p restricted to the kept generators; the side set stays whole, so the
    result lives in the larger poset."""
    return Condition(p.s.restrict(keep), p.words, p.mode)


def strong_restrict(
    p: Condition, keep: Iterable[int], ground: GroundRep = EMPTY_GROUND
) -> Condition:
    """Restriction that also drops side words mentioning dropped generators
    (ambient generators never count as dropped)."""
    keep = frozenset(keep) | ground.generators()
    words = frozenset(w for w in p.words if occurrences(w) <= keep)
    return Condition(p.s.restrict(keep), words, p.mode)


def merge_disjoint(
    p: Condition, t: Assignment, ground: GroundRep = EMPTY_GROUND
) -> Condition:
    """Adjoin pairs for generators not occurring anywhere in p."""
    overlap = frozenset(t.generators()) & p.occurring(ground)
    if overlap:
        raise ValueError(f"occurrence overlap on generators {sorted(overlap)}")
    if frozenset(t.generators()) & ground.generators():
        raise ValueError("merge assignment touches ambient generators")
    out = Condition(p.s.union(t), p.words, p.mode)
    assert leq(out, p, ground)
    return out


def add_words(
    p: Condition, words: Iterable[Word], ground: GroundRep = EMPTY_GROUND
) -> Condition:
    """Replace the side set by a superset; freezing more words only constrains
    the future, so the result extends p.  Only the new words are validated
    when p is known valid (see validated)."""
    new = frozenset(words)
    if not (new >= p.words):
        raise ValueError("new side set must contain the old one")
    return validated(p, Condition(p.s, new, p.mode), ground)


@dataclass(frozen=True)
class Incompatible:
    reason: str


def delta_compatible_merge(
    p: Condition, q: Condition, ground: GroundRep = EMPTY_GROUND
):
    """The union condition when it is valid and extends both inputs, else
    Incompatible.  This is the finite merge behind root-only-overlap
    compatibility arguments."""
    if p.mode is not q.mode:
        raise ValueError("mode mismatch")
    union = Condition(p.s.union(q.s), p.words | q.words, p.mode)
    problems = validate(union, ground)
    if problems:
        return Incompatible("; ".join(problems))
    if not leq(union, p, ground):
        return Incompatible("union does not extend the first condition")
    if not leq(union, q, ground):
        return Incompatible("union does not extend the second condition")
    return union
