"""Greedy finite-stage builder: meet domain, range, word-freezing and hitting
goals up to budgets, producing concrete partial-permutation families whose
frozen words keep their fixed-point sets.

A cofinitary build freezes one hat word per class under rotation and
inversion (words.cyclic_class), the least under Word.sort_key: the fixed
points of every word of a class are in bijection with its representative's,
so freezing it freezes the class.  The representatives come straight from
words.class_representatives, which enumerates one word per class; no other
hat word is built.  Its order is Word.sort_key's, the order the word
groups are shuffled from.

Between freezes, point goals step one extension.PointPhase, the point step
every caller shares: it opens on the last kept condition and extends
copied lookups in place, so a step costs O(1) besides its checks.  A hit
goal is one step of the same phase (PointPhase.hit): it keeps the first
pair of its window that agrees with the goal's permutation.  A Condition
is made only where one is kept: at each freeze, where add_words,
frozen_value and the chain-law leq run on it, for the report, and for a
BuildError's partial report.  It closes the phase and takes over its
lookups.  Freeze goals past the points run on such a condition.

A build is strictly sequential and deterministic for a given seed; the seed
only permutes the word-freezing order inside each length group, so different
seeds build different families under the same invariants.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import poset
from .evaluation import Assignment, GroundPermutation, fix_sets, fix_table
from .extension import PointPhase
from .poset import DISCIPLINES, Condition, PosetMode, frozen_value, side_words
from .words import (
    INVERSE,
    Letter,
    Word,
    class_hat_count,
    class_representatives,
    conjugate_core,
    format_word,
    reduced_letters,
)


class BuildError(Exception):
    def __init__(self, message: str, partial: Optional["BuildReport"] = None) -> None:
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class DenseGoal:
    # A freeze goal is frozen as a group of one (see build's freeze).
    kind: str  # "domain" | "range" | "freeze" | "hit"
    gen: Optional[int] = None
    point: Optional[int] = None
    word: Optional[Word] = None
    sigma: Optional[GroundPermutation] = None
    floor: Optional[int] = None

    def describe(self) -> str:
        if self.kind in ("domain", "range"):
            return _point_text(self.kind, self.gen, self.point)
        if self.kind == "freeze":
            return _freeze_text(self.word)
        return f"hit:g{self.gen}>={self.floor}"


def _point_text(kind: str, gen: int, point: int) -> str:
    return f"{kind}:g{gen}@{point}"


def _freeze_text(w: Word) -> str:
    return f"freeze:{format_word(w)}"


def hit_goal(gen: int, sigma: GroundPermutation, floor: int) -> DenseGoal:
    return DenseGoal("hit", gen=gen, sigma=sigma, floor=floor)


@dataclass
class BuildReport:
    final: Condition
    goal_log: list[tuple[str, int, Optional[int]]]  # (goal, stage, witness)
    frozen_fix: dict[Word, tuple[int, frozenset[int]]]
    mode: PosetMode
    generators: tuple[int, ...]
    point_budget: int
    word_budget: int
    seed: int

    def to_json(self) -> dict:
        """The JSON form.  The frozen words are sorted and formatted once; in
        a build they are the final side set, so F reuses their texts when
        every one of them is in it.  A frozen hat word's entry also gives
        the number of hat words of its class ("hat_words"), all of which it
        freezes."""
        frozen = sorted(self.frozen_fix.items(), key=lambda kv: kv[0].sort_key())
        names = [format_word(w) for w, _ in frozen]
        words = self.final.words
        same = len(words) == len(frozen) and all(w in words for w, _ in frozen)
        entries = [{"stage": stage, "fix": sorted(fix)} for _, (stage, fix) in frozen]
        if DISCIPLINES[self.mode].shape == "hat":
            for entry, (w, _) in zip(entries, frozen):
                entry["hat_words"] = class_hat_count(w)
        return {
            "schema": "1",
            "mode": self.mode.value,
            "generators": list(self.generators),
            "point_budget": self.point_budget,
            "word_budget": self.word_budget,
            "seed": self.seed,
            "final": self.final.to_json(names if same else None),
            "frozen_fix": dict(zip(names, entries)),
            "goal_log": [
                {"goal": g, "stage": st, "witness": wit} for g, st, wit in self.goal_log
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["word", "stage", "fix_size"])
        for w, (stage, fix) in sorted(self.frozen_fix.items(), key=lambda kv: kv[0].sort_key()):
            writer.writerow([format_word(w), stage, len(fix)])
        return buf.getvalue()


def build(
    mode: PosetMode,
    generators: Sequence[int],
    *,
    point_budget: int = 32,
    word_budget: int = 3,
    seed: int = 0,
    value_ceiling: Optional[int] = None,
    extra_goals: Iterable[DenseGoal] = (),
) -> BuildReport:
    """Run the greedy goal schedule from the empty condition.

    Words of length L are frozen before point goals beyond 4*L are issued,
    so freezing happens while it still bites.  Point and hit goals extend a
    point phase in place, one checked pair per step (extension.PointPhase);
    a condition is made only where one is kept: at each freeze, for the
    report and for a BuildError's partial report.  The words of one length
    group are frozen in one step, with one check that it extends the
    condition before it.
    """
    gens = tuple(sorted(generators))
    if not gens:
        raise ValueError("need at least one generator")
    if point_budget < 1 or word_budget < 1:
        raise ValueError("budgets must be at least 1")
    extra_goals = tuple(extra_goals)
    discipline = DISCIPLINES[mode]
    if any(g.kind == "hit" for g in extra_goals) and discipline.shape != "hat":
        raise ValueError("hit goals require the cofinitary discipline")
    if value_ceiling is None:
        value_ceiling = max(1_000, 200 * point_budget)
    rng = random.Random(seed)
    if discipline.shape == "hat":
        # the least hat word of each class stands for it (see the module
        # docstring); the side-set index and leq already read F by class
        entries = class_representatives(gens, word_budget)
    else:
        entries = sorted(side_words(mode, gens, word_budget), key=Word.sort_key)
    by_len: dict[int, list[Word]] = {}  # words to freeze, grouped by length
    for w in entries:
        by_len.setdefault(len(w.letters), []).append(w)
    for group in by_len.values():
        rng.shuffle(group)

    cond = Condition(mode=mode)  # the last kept condition
    phase: Optional[PointPhase] = None  # the point phase extending it, if open
    stage = 0
    goal_log: list[tuple[str, int, Optional[int]]] = []
    frozen_fix: dict[Word, tuple[int, frozenset[int]]] = {}

    def kept() -> Condition:
        """The current condition, with the point phase closed."""
        nonlocal cond, phase
        if phase is not None:
            cond, phase = phase.close(), None
        return cond

    def freeze(group: Sequence[Word]) -> None:
        # No point step comes between the words, so s stays prev's: the side
        # set grows and is validated once.  The order check cannot fail (s is
        # prev's and the side set a superset of prev's); it is kept as the
        # step's contract.
        nonlocal cond, stage
        prev = kept()
        cond = poset.add_words(prev, prev.words | frozenset(group))
        for i, w in enumerate(group):
            stage += 1
            earlier = itertools.chain(prev.words, itertools.islice(group, i))
            frozen_fix[w] = (stage, frozen_value(mode, cond.s, w, earlier))
            goal_log.append((_freeze_text(w), stage, None))
        if not poset.leq(cond, prev):
            raise BuildError(f"chain law broken at stage {stage}", _report())

    def hit(goal: DenseGoal) -> None:
        nonlocal phase, stage
        stage += 1
        if phase is None:
            phase = PointPhase(cond)
        found = phase.hit(goal.gen, goal.sigma, goal.floor, 256)
        if found is None:
            raise BuildError(f"goal {goal.describe()} found no hit", _report())
        goal_log.append((goal.describe(), stage, found))

    def point_goal(kind: str, gen: int, point: int) -> None:
        nonlocal phase, stage
        stage += 1
        text = _point_text(kind, gen, point)
        if phase is None:
            phase = PointPhase(cond)
        try:
            if kind == "domain":
                witness = phase.domain(gen, point, None, value_ceiling)
            else:
                witness = phase.range(gen, point, value_ceiling)
        except Exception as err:
            raise BuildError(f"goal {text} failed: {err}", _report()) from err
        goal_log.append((text, stage, witness))

    def _report() -> BuildReport:
        return BuildReport(
            kept(), goal_log, frozen_fix, mode, gens, point_budget, word_budget, seed
        )

    next_point = 0

    def issue_points(limit: int) -> None:
        nonlocal next_point
        while next_point < limit:
            for g in gens:
                point_goal("domain", g, next_point)
                if discipline.injective:
                    point_goal("range", g, next_point)
            next_point += 1

    for length in sorted(by_len):
        issue_points(min(point_budget, 4 * length))
        freeze(by_len[length])
    issue_points(point_budget)
    for goal in extra_goals:
        if goal.kind == "freeze":
            freeze((goal.word,))
        elif goal.kind == "hit":
            hit(goal)
        else:
            point_goal(goal.kind, goal.gen, goal.point)
    return _report()


def _frozen_law(report: BuildReport, fix=None) -> list[str]:
    """Each frozen entry's value under the final condition, taken against
    the entries frozen before it, equals the value recorded when it was
    frozen; violations come in freezing order."""
    violations: list[str] = []
    s = report.final.s
    earlier: list[Word] = []
    for w, (stage, recorded) in sorted(report.frozen_fix.items(), key=lambda kv: kv[1][0]):
        now = frozen_value(report.mode, s, w, earlier, fix)
        earlier.append(w)
        if now != recorded:
            violations.append(
                f"{format_word(w)}: frozen at stage {stage} with {sorted(recorded)}, "
                f"final {sorted(now)}"
            )
    return violations


def verify_cofinitary(report: BuildReport) -> list[str]:
    """The verifier of every build: the frozen law, plus for cofinitary
    builds the conjugation-cardinality law |Fix(w)| = |Fix(core)| over all
    reduced words of length 1..L, L the word budget (words.conjugate_core);
    empty list means ok.

    A cofinitary build records one word per class, which stands for the
    class only while the maps are partial injections, as the conjugation
    law also needs; so those reports are first checked with poset.validate,
    whose findings lead the list.  The frozen law reads the recorded words'
    fix sets from one walk of their own trie (evaluation.fix_sets), a
    kernel the build does not use (it freezes through fix_points), so the
    check stays independent of the fix sets the build recorded.

    On partial injections the conjugation law holds exactly when each
    reduced word w' of length at most L - 2 keeps its fix set inside the
    range of every letter a that conjugates it (a^-1 w' a reduced), so
    that check runs first, on the fix sets of those words alone (see
    _conjugates_keep_fix and the README design notes).  When validate finds
    a problem, or a containment fails, the law runs over every reduced word
    of length 1..L, from one evaluation.fix_table.  Violations then come in
    freezing order, then in reduced_words order."""
    if DISCIPLINES[report.mode].shape != "hat":
        return _frozen_law(report)
    s = report.final.s
    gens = sorted(set(report.generators))
    frozen = fix_sets([w.letters for w in report.frozen_fix], s)
    problems = poset.validate(report.final)
    violations = problems + _frozen_law(report, lambda w: frozen[w.letters])
    if problems or not _conjugates_keep_fix(gens, report.word_budget, s):
        violations += _conjugation_law(gens, report.word_budget, s)
    return violations


def _conjugates_keep_fix(gens: Sequence[int], max_len: int, s: Assignment) -> bool:
    """Whether Fix(w') lies in the range of a (the keys of a^-1's lookup)
    for every reduced word w' over gens of length at most max_len - 2 and
    every letter a with a^-1 w' a reduced.  On partial injections,
    eval_word applies a first, so Fix(a^-1 w' a) = a^-1(Fix(w') & ran a),
    and this holds exactly when the conjugation law holds up to max_len."""
    ranges = {}  # letter -> the keys of its inverse's lookup
    for g in gens:
        ranges[Letter(g, 1)] = s.get(g).rev.keys()
        ranges[Letter(g, -1)] = s.get(g).fwd.keys()
    for letters, points in fix_table(gens, max_len - 2, s).items():
        if points:
            first, cancel = letters[0], INVERSE[letters[-1]]
            for a, image in ranges.items():
                if a != first and a != cancel and not image >= points:
                    return False
    return True


def _conjugation_law(gens: Sequence[int], max_len: int, s: Assignment) -> list[str]:
    """|Fix(w)| = |Fix(core)| for every reduced word w over gens of length
    1..max_len, from one fix table; violations in reduced_words order."""
    table = fix_table(gens, max_len, s)
    violations: list[str] = []
    for letters in reduced_letters(gens, max_len, min_len=1):
        points = table[letters]
        core = conjugate_core(letters)[1]
        core_points = table[core]
        if len(points) != len(core_points):
            violations.append(
                f"{format_word(Word(letters))}: |fix| = {len(points)} but its core "
                f"{format_word(Word(core))} has {len(core_points)}"
            )
    return violations


def verify_variant(report: BuildReport) -> list[str]:
    """The frozen law of an ADP, EDF or MAD build: pairwise agreement sets,
    or 1-set intersections with the letters frozen earlier, stay as frozen.

    verify_cofinitary checks every mode; this thin entry is kept on purpose,
    because perfbench/tracing.py wraps it by name and reports its calls."""
    return _frozen_law(report)
