"""Conditions (s, F) of the group-adding poset and its variants.

A condition pairs a finite generator-indexed assignment with a finite side
set of entries whose frozen values are kept: an extension may not give a
frozen entry anything new.  Four modes share the representation: a
cofinitary group (cofinitary), almost disjoint permutations (adp), an
eventually different family (edf) and Hechler's MAD family (mad).  What each
mode decides is its row of the discipline table DISCIPLINES.

Everything is a value type; extension never mutates.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .evaluation import (
    Assignment,
    GroundRep,
    EMPTY_GROUND,
    FixResult,
    apply_letter,
    eval_word,
    fix_points,
    unapply_letter,
)
from .words import Letter, Word, format_word, hat_words, is_hat, occurrences, parse_word, single


class PosetMode(enum.Enum):
    COFINITARY = "cofinitary"
    ADP = "adp"
    EDF = "edf"
    MAD = "mad"


@dataclass(frozen=True)
class Discipline:
    """What one poset mode decides; everything else is shared.

    injective  maps must be injections; only then are range steps defined
    values     the value set of the maps: None for all naturals, where a new
               value is chosen from a certified cofinite set, or a finite set
               whose points mad_set_point decides one by one
    shape      side entries: "hat" words, "pair" words a b^-1 or single
               "letter"s
    kernel     the order check on frozen entries: "walk" the words for new
               fixed points, compare the "agreement" sets of the pairs, or
               the common "ones" of the letters
    """

    injective: bool
    values: Optional[tuple[int, ...]]
    shape: str
    kernel: str

    @property
    def word_budget(self) -> Optional[int]:
        """The fixed length of the side entries; None when the caller bounds
        the length of the hat words."""
        return {"pair": 2, "letter": 1}.get(self.shape)


DISCIPLINES = {
    PosetMode.COFINITARY: Discipline(injective=True, values=None, shape="hat", kernel="walk"),
    PosetMode.ADP: Discipline(injective=True, values=None, shape="pair", kernel="walk"),
    PosetMode.EDF: Discipline(injective=False, values=None, shape="pair", kernel="agreement"),
    PosetMode.MAD: Discipline(injective=False, values=(0, 1), shape="letter", kernel="ones"),
}


def pair_word(a: int, b: int) -> Word:
    """The pair entry a b^-1."""
    return Word((Letter(a, 1), Letter(b, -1)))


def _entry_problem(shape: str, w: Word, ground: GroundRep) -> Optional[str]:
    """Why the nonempty word w is no side entry of the shape; None if it is."""
    if shape == "hat":
        return None if is_hat(w) else f"word {format_word(w)} is not in the hat class"
    if shape == "pair":
        a, b = w.letters[0], w.letters[-1]
        if len(w) == 2 and a.gen != b.gen and (a.sign, b.sign) == (1, -1):
            return None
        return f"word {format_word(w)} is not of the shape a b^-1"
    if len(w) != 1 or w.letters[0].sign != 1:
        return f"MAD side entries are single letters, got {format_word(w)}"
    if w.letters[0].gen in ground.table:
        return f"MAD side letter g{w.letters[0].gen} is ambient"
    return None


@functools.lru_cache(maxsize=64)
def side_words(
    mode: PosetMode, alphabet: tuple[int, ...], ambient: frozenset[int], length: int
) -> tuple[Word, ...]:
    """The mode's canonical side entries over the alphabet, of length at most
    `length`, each with a letter outside `ambient` (purely ambient words never
    move under extension): hat words in reduced-word order, pairs a b^-1 with
    a < b, single letters in ascending order.  Cached; copy before shuffling.
    """
    shape = DISCIPLINES[mode].shape
    if shape == "hat":
        return tuple(w for w in hat_words(alphabet, length) if occurrences(w) - ambient)
    finite = [g for g in alphabet if g not in ambient]
    if shape == "pair":
        if length < 2:
            return ()
        return tuple(pair_word(a, b) for i, a in enumerate(finite) for b in finite[i + 1 :])
    return tuple(single(g) for g in finite)


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


def validate(c: Condition, ground: GroundRep = EMPTY_GROUND) -> list[str]:
    """All invariant violations for the condition's mode; empty means ok."""
    d = DISCIPLINES[c.mode]
    problems: list[str] = []
    for g, pm in sorted(c.s.table.items()):
        if not pm.is_functional():
            problems.append(f"map for g{g} is not functional")
        if d.injective and not pm.is_injective():
            problems.append(f"map for g{g} is not injective")
        if d.values is not None:
            bad = {m for _, m in pm.pairs} - set(d.values)
            if bad:
                allowed = ",".join(map(str, d.values))
                problems.append(f"map for g{g} takes values outside {{{allowed}}}: {sorted(bad)}")
        if g in ground.table:
            problems.append(f"g{g} is an ambient generator but carries finite pairs")
    for w in c.sorted_words():
        problem = _entry_problem(d.shape, w, ground) if w else "side set contains the empty word"
        if problem:
            problems.append(problem)
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


def frozen_value(
    mode: PosetMode,
    s: Assignment,
    w: Word,
    earlier: Iterable[Word],
    ground: GroundRep,
    fix: Optional[Callable[[Word, Assignment, GroundRep], FixResult]] = None,
) -> frozenset[int]:
    """What freezing the entry w keeps under s: the fixed points of a hat
    word (from `fix`, a memo of fix_points, when given), the agreement set
    of a pair, or a letter's common 1-points with the letters frozen before
    it (`earlier`; the other shapes ignore it)."""
    shape = DISCIPLINES[mode].shape
    if shape == "hat":
        res = (fix or fix_points)(w, s, ground)
        if not res.exact:
            raise ValueError(f"fix set of {format_word(w)} is horizon-limited; cannot freeze")
        return res.points
    if shape == "pair":
        return _agreement(s, w.letters[0].gen, w.letters[1].gen)
    ones = _ones(s.get(w.letters[0].gen).pairs)
    return frozenset().union(*(ones & _ones(s.get(x.letters[0].gen).pairs) for x in earlier))


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
    """Why two conditions have no common extension."""

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
