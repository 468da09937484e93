"""Conditions (s, F) of the group-adding poset and its variants.

A condition pairs a finite generator-indexed assignment with a finite side
set of entries whose frozen values are kept: an extension may not give a
frozen entry anything new.  Four modes share the representation: a
cofinitary group (cofinitary), almost disjoint permutations (adp), an
eventually different family (edf) and Hechler's MAD family (mad).  What each
mode decides is its row of the discipline table DISCIPLINES.  The order
rule on frozen entries is written once, in the side-set index (SideIndex,
built by side_index): leq asks it once per pair an extension adds, and a
point phase once per step.

Everything is a value type; no code changes a condition once it is made.
Only a point phase (extension.PointPhase) extends maps in place, on lookups
of its own, and it makes a new condition when it closes.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from . import evaluation, words
from .evaluation import (
    Assignment,
    PartialMap,
    apply_letter,  # noqa: F401  (perfbench's tracer counts letter steps through this name)
    letter_step,
)
from .words import Letter, Word, format_word, occurrences, parse_word, single

Step = Callable[[int], Optional[int]]


class PosetMode(enum.Enum):
    COFINITARY = "cofinitary"
    ADP = "adp"
    EDF = "edf"
    MAD = "mad"

    # Members compare by identity, so the identity hash serves; Enum's own
    # hashes the name in Python code on every DISCIPLINES lookup.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Discipline:
    """What one poset mode decides; everything else is shared.

    injective  maps must be injections; only then are range steps defined
    values     the value set of the maps: None for all naturals, where a new
               value is chosen from a certified cofinite set, or a finite set
               whose points extension.mad_value decides one by one
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


def _entry_problem(shape: str, w: Word) -> Optional[str]:
    """Why the nonempty word w is no side entry of the shape; None if it is."""
    if shape == "hat":
        return None if words.is_hat(w) else f"word {format_word(w)} is not in the hat class"
    if shape == "pair":
        a, b = w.letters[0], w.letters[-1]
        if len(w) == 2 and a.gen != b.gen and (a.sign, b.sign) == (1, -1):
            return None
        return f"word {format_word(w)} is not of the shape a b^-1"
    if len(w) != 1 or w.letters[0].sign != 1:
        return f"MAD side entries are single letters, got {format_word(w)}"
    return None


@functools.lru_cache(maxsize=64)
def side_words(mode: PosetMode, alphabet: tuple[int, ...], length: int) -> tuple[Word, ...]:
    """The mode's canonical side entries over the alphabet, of length at most
    `length`: hat words in reduced-word order, pairs a b^-1 with a < b,
    single letters in ascending order.  Cached; copy before shuffling.
    """
    shape = DISCIPLINES[mode].shape
    if shape == "hat":
        return tuple(words.hat_words(alphabet, length))
    if shape == "pair":
        if length < 2:
            return ()
        return tuple(pair_word(a, b) for i, a in enumerate(alphabet) for b in alphabet[i + 1 :])
    return tuple(single(g) for g in alphabet)


@dataclass(frozen=True)
class Condition:
    """A condition of the poset: finite partial maps and a finite side set.
    The mode belongs to the condition: every condition made from it keeps
    it, and comparing or merging conditions of two modes raises ValueError."""

    s: Assignment = field(default_factory=Assignment)
    words: frozenset[Word] = frozenset()
    mode: PosetMode = PosetMode.COFINITARY

    # Derived facts, set with object.__setattr__ where they are proved.  The
    # class-level defaults make reading an unset one a plain lookup.
    _valid = False  # validated() found nothing wrong with it
    _reduction = None  # (keep, strong_reduction(self, keep))
    _occurring = None  # occurring()

    def with_s(self, s: Assignment) -> "Condition":
        """The condition over s with this one's side set and mode."""
        return Condition(s, self.words, self.mode)

    def sorted_words(self) -> list[Word]:
        return sorted(self.words, key=Word.sort_key)

    def occurring(self) -> frozenset[int]:
        """Generators occurring in the assignment or the side words; built on
        first use and cached."""
        occ = self._occurring
        if occ is None:
            occ = frozenset(self.s.table).union(*map(occurrences, self.words))
            object.__setattr__(self, "_occurring", occ)
        return occ

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "s": self.s.to_json(),
            "F": list(map(format_word, self.sorted_words())),
        }

    @staticmethod
    def from_json(obj: dict) -> "Condition":
        return Condition(
            Assignment.from_json(obj.get("s", {})),
            frozenset(parse_word(t) for t in obj.get("F", [])),
            PosetMode(obj.get("mode", "cofinitary")),
        )


def validate(c: Condition) -> list[str]:
    """All invariant violations for the condition's mode; empty means ok."""
    return _problems(DISCIPLINES[c.mode], c.s.table.items(), c.sorted_words())


def _problems(
    d: Discipline, maps: Iterable[tuple[int, PartialMap]], words: Iterable[Word]
) -> list[str]:
    """validate's findings on the maps, in generator order, and the side
    words, in Word.sort_key order: each is judged on its own."""
    problems: list[str] = []
    for g, pm in maps:
        # a map that passes, as nearly all do, is judged by one fact built with it
        ok = pm.injection if d.injective else pm.is_functional()
        if not ok or d.values is not None:
            problems += _map_problems(
                d, g, ok or pm.is_functional(), ok or pm.is_injective(),
                pm.rev.keys() if d.values is not None else (),  # rev's keys are its values
            )
    for w in words:
        problem = _entry_problem(d.shape, w) if w else "side set contains the empty word"
        if problem:
            problems.append(problem)
    return problems


def _map_problems(
    d: Discipline, g: int, functional: bool, injective: bool, values: Iterable[int]
) -> list[str]:
    """validate's findings on g's map, from its facts and its values."""
    problems: list[str] = []
    if not functional:
        problems.append(f"map for g{g} is not functional")
    if d.injective and not injective:
        problems.append(f"map for g{g} is not injective")
    if d.values is not None:
        bad = set(values) - set(d.values)
        if bad:
            allowed = ",".join(map(str, d.values))
            problems.append(f"map for g{g} takes values outside {{{allowed}}}: {sorted(bad)}")
    return problems


def pair_problems(
    d: Discipline,
    g: int,
    fwd: Mapping[int, int],
    rev: Optional[Mapping[int, int]],
    n: int,
    m: int,
) -> list[str]:
    """validate's findings on g's map with the pair (n, m) added, for a map
    with lookups fwd and rev (rev may be None where d is not injective) on
    which validate finds nothing.  Such a map is functional, and injective
    where d asks it to be, so it stays so exactly when n has no other value
    and m no other preimage; its values stay allowed exactly when m is."""
    functional = fwd.get(n, m) == m
    injective = not d.injective or rev.get(m, n) == n
    if functional and injective and (d.values is None or m in d.values):
        return []
    return _map_problems(d, g, functional, injective, (m,))


def validated(
    prev: Condition, out: Condition, added: Optional[frozenset[Word]] = None
) -> Condition:
    """out, once validate finds nothing wrong with it; raises ValueError with
    validate's message otherwise.

    validate judges each map and each side word on its own, so when prev is
    known valid and in out's mode, only what out adds is checked: the maps
    that are not prev's own objects and the words prev lacks (`added`, when
    the caller already has out.words - prev.words).
    The problems, and their order, are then exactly those of validate(out).
    Conditions are marked known valid only here, and only after a clean
    check.
    """
    if prev._valid and out.mode is prev.mode:
        old = prev.s.table
        maps = [(g, pm) for g, pm in out.s.table.items() if old.get(g) is not pm]
        if added is None:
            added = frozenset() if out.words is prev.words else out.words - prev.words
        words = sorted(added, key=Word.sort_key)
        bad = _problems(DISCIPLINES[out.mode], maps, words)
    else:
        bad = validate(out)
    if bad:
        raise ValueError("; ".join(bad))
    object.__setattr__(out, "_valid", True)
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
) -> frozenset[int]:
    """What freezing the entry w keeps under s, as the build records it:
    the fixed points of a hat word (evaluation.fix_points), the agreement
    set of a pair, or a letter's common 1-points with the letters frozen
    before it (`earlier`; the other shapes ignore it).  The verifier
    computes its own values (builder._frozen_values), so a fault here is
    not repeated there."""
    shape = DISCIPLINES[mode].shape
    if shape == "hat":
        return evaluation.fix_points(w, s).points
    if shape == "pair":
        return _agreement(s, w.letters[0].gen, w.letters[1].gen)
    ones = _ones(s.get(w.letters[0].gen).pairs)
    return frozenset().union(*(ones & _ones(s.get(x.letters[0].gen).pairs) for x in earlier))


def new_fix_candidates(
    w: Word, added: Mapping[int, frozenset[tuple[int, int]]], back: Mapping[Letter, Step]
) -> set[int]:
    """Start points whose evaluation path along w can use a new pair.

    `added` maps a generator to its new pairs and `back` a letter to the
    lookup that undoes it under the new assignment.  For each letter
    position and each new pair on that letter's generator the value just
    before the step is pinned; walking backward through the earlier letters
    yields at most one candidate start per (position, pair).  leq does not
    call it; it is kept because perfbench/tracing.py wraps it by name."""
    candidates: set[int] = set()
    applied = w.letters[::-1]  # the i-th letter from the right is applied i-th
    for i, letter in enumerate(applied):
        pairs = added.get(letter.gen)
        if not pairs:
            continue
        undo = [back[x] for x in reversed(applied[:i])]
        pin = 0 if letter.sign == 1 else 1
        for pair in pairs:
            value = pair[pin]
            for step in undo:
                value = step(value)
                if value is None:
                    break
            else:
                candidates.add(value)
    return candidates


class _Steps(dict):
    """Letter -> the lookup applying it under s, resolved on first use and
    kept for one order check or one point phase.  A Letter is a named
    tuple, so a plain (gen, sign) tuple keys it too."""

    def __init__(self, s: Assignment) -> None:
        self.s = s  # dict.__new__ has made the empty dict

    def __missing__(self, letter: Letter) -> Step:
        step = letter_step(Letter(*letter), self.s)
        self[letter] = step
        return step


END = None  # the trie key that closes a rotation


def _closes(trie: dict, steps: Mapping[Letter, Step], start: int, target: int) -> bool:
    """Whether some rotation in the trie walks start to target under steps.
    A lookup that fails prunes the subtree below it."""
    stack = [(trie, start)]
    while stack:
        node, value = stack.pop()
        for letter, child in node.items():
            if letter is END:
                if value == target:
                    return True
                continue
            nxt = steps[letter](value)
            if nxt is not None:
                stack.append((child, nxt))
    return False


# -- the side-set index: the order rule, written once ------------------------


class SideIndex:
    """A side set indexed for its discipline's order rule, which breaks
    decides: leq asks it once per pair p adds, a point phase once per step.
    Only the kernel's field is filled; callers only read it.

    tries     walk: letter -> the trie of the rotations of each class
              representative (w.class_key) in application order, each read
              from just after an occurrence of the letter and closed by END.
              A side word holds g exactly when (g, 1) or (g, -1) keys a trie.
    partners  generator -> the generators it is frozen against: the other
              one of each pair word a b^-1 holding it (agreement), or every
              other frozen letter (ones; its keys are the frozen letters).
              A generator frozen twice is its own partner.
    """

    def __init__(self, kernel: str, words: Iterable[Word]) -> None:
        self.kernel = kernel
        self.tries: dict[Letter, dict] = {}
        self.partners: dict[int, tuple[int, ...]] = {}
        if kernel == "walk":
            for key in {w.class_key for w in words}:
                applied = key[::-1]
                size = len(applied)
                doubled = applied * 2  # the rotation after i is one slice of it
                for i, letter in enumerate(applied):
                    node = self.tries.setdefault(letter, {})
                    for x in doubled[i + 1 : i + size]:
                        node = node.setdefault(x, {})
                    node[END] = END
        elif kernel == "agreement":
            out: dict[int, list[int]] = {}
            for w in words:
                a, b = w.letters[0].gen, w.letters[1].gen
                out.setdefault(a, []).append(b)
                out.setdefault(b, []).append(a)
            self.partners = {g: tuple(hs) for g, hs in out.items()}
        else:
            gens = [w.letters[0].gen for w in words]
            self.partners = {g: tuple(gens[:i] + gens[i + 1 :]) for i, g in enumerate(gens)}

    def breaks(
        self, steps: Mapping[Letter, Step], g: int, n: int, m: int,
        old: Optional[Mapping[Letter, Step]] = None,
    ) -> bool:
        """Whether the pair (n, m) just put on g gives a frozen entry
        something new.  steps[letter] applies a letter with the pair in and
        old[letter] without it; old is None where g had no value at n.

        walk: on partial injections g had no pair at n and none onto m, so
        a frozen word gains a fixed point exactly when its cycle uses the
        pair: read from just after it, the cycle walks m to n along a
        rotation that follows (g, +1), or n to m along one that follows
        (g, -1).  A class gains one when its representative does
        (words.cyclic_class).
        agreement, ones: away from n the maps read as they did, so a new
        agreement (common 1-point) sits at n.  A pair (n, 1) is new, so a
        common 1-point that uses it is new."""
        kernel = self.kernel
        if kernel == "walk":
            # a Letter is a named tuple, so the plain (g, sign) keys its trie too
            ahead, back = self.tries.get((g, 1)), self.tries.get((g, -1))
            return bool(
                ahead and _closes(ahead, steps, m, n) or back and _closes(back, steps, n, m)
            )
        partners = self.partners.get(g, ())
        if kernel == "ones":
            return m == 1 and any(steps[h, 1](n) == 1 for h in partners)
        for h in partners:
            if _agrees(steps, g, h, n) and not (old is not None and _agrees(old, g, h, n)):
                return True
        return False


def _agrees(steps: Mapping[Letter, Step], a: int, b: int, n: int) -> bool:
    """Whether the maps of a and b, applied by steps, agree at n."""
    v = steps[a, 1](n)
    return v is not None and steps[b, 1](n) == v


@functools.lru_cache(maxsize=8)
def side_index(kernel: str, words: frozenset[Word]) -> SideIndex:
    """The side set's index for the kernel.  It depends only on the side
    set, not on the order entries were added, so it is built once per
    distinct side set: every condition that keeps the set, such as the ones
    point phases close into, shares it."""
    return SideIndex(kernel, words)


def _added_pairs(p: Assignment, q: Assignment) -> Optional[dict[int, frozenset[tuple[int, int]]]]:
    """The pairs p adds to q, per generator with new pairs, or None when p
    lacks a pair of q.  Only the maps that are not q's own objects are
    compared (a closed point phase keeps the maps it did not step): q's
    pairs are all in p's when |p| - |p - q| = |q|."""
    old_maps = q.table
    if not old_maps.keys() <= p.table.keys():
        return None
    added = {}
    for g, pm in p.table.items():
        old = old_maps.get(g)
        if old is pm:
            continue
        if old is None:  # a new map: all its pairs are new, and there are some
            added[g] = pm.pairs
            continue
        extra = pm.pairs - old.pairs
        if len(pm.pairs) - len(extra) != len(old.pairs):
            return None
        if extra:
            added[g] = extra
    return added


def leq(p: Condition, q: Condition) -> bool:
    """p extends q: larger assignment and side set, and no frozen entry
    gains anything new, which the side-set index decides once per pair p
    adds (SideIndex.breaks).  Raises ValueError when p and q differ in
    mode; the disciplines of injections (cofinitary, adp) also raise it on
    a map of p that is no partial injection."""
    if p.mode is not q.mode:
        raise ValueError(f"mode mismatch: {p.mode} vs {q.mode}")
    d = DISCIPLINES[p.mode]
    if d.injective:
        for pm in p.s.table.values():
            if not pm.injection:
                raise ValueError(f"the {p.mode.value} order is defined on partial injections only")
    added = _added_pairs(p.s, q.s)
    if added is None or not (p.words is q.words or p.words >= q.words):
        return False
    if not added:
        return True
    index, steps, old = side_index(d.kernel, q.words), _Steps(p.s), _Steps(q.s)
    for g, pairs in added.items():
        for n, m in pairs:
            if index.breaks(steps, g, n, m, old):
                return False
    return True


def restrict(p: Condition, keep: Iterable[int]) -> Condition:
    """p restricted to the kept generators; the side set stays whole, so the
    result lives in the larger poset."""
    return p.with_s(p.s.restrict(keep))


def strong_restrict(p: Condition, keep: Iterable[int]) -> Condition:
    """Restriction that also drops side words mentioning dropped generators."""
    keep = frozenset(keep)
    words = frozenset(w for w in p.words if occurrences(w) <= keep)
    return Condition(p.s.restrict(keep), words, p.mode)


def merge_disjoint(p: Condition, t: Assignment) -> Condition:
    """Adjoin pairs for generators not occurring anywhere in p.  The result
    is validated (see validated), so a map of t that the mode does not
    allow raises ValueError with validate's message in every mode."""
    overlap = frozenset(t.generators()) & p.occurring()
    if overlap:
        raise ValueError(f"occurrence overlap on generators {sorted(overlap)}")
    out = validated(p, p.with_s(p.s.union(t)))
    if not leq(out, p):
        raise ValueError("the merged condition does not extend the base condition")
    return out


def add_words(p: Condition, words: Iterable[Word]) -> Condition:
    """Replace the side set by a superset; freezing more words only constrains
    the future, so the result extends p.  Only the new words are validated
    when p is known valid (see validated)."""
    new = frozenset(words)
    added = new - p.words
    if len(new) - len(added) != len(p.words):
        raise ValueError("new side set must contain the old one")
    return validated(p, Condition(p.s, new, p.mode), added)


@dataclass(frozen=True)
class Incompatible:
    """Why two conditions have no common extension."""

    reason: str
