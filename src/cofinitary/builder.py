"""Greedy finite-stage builder: meet domain, range, word-freezing and hitting
goals up to budgets, producing concrete partial-permutation families whose
frozen words keep their fixed-point sets.

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
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import evaluation, extension, poset
from .evaluation import Assignment, GroundPermutation, fix_table
from .extension import hit_extend, point_step
from .poset import DISCIPLINES, Condition, PosetMode, frozen_value, side_words
from .words import Letter, Word, conjugate_core, format_word, reduced_letters


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
        if self.kind == "domain":
            return f"domain:g{self.gen}@{self.point}"
        if self.kind == "range":
            return f"range:g{self.gen}@{self.point}"
        if self.kind == "freeze":
            return _freeze_text(self.word)
        return f"hit:g{self.gen}>={self.floor}"


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
        every one of them is in it."""
        frozen = sorted(self.frozen_fix.items(), key=lambda kv: kv[0].sort_key())
        names = [format_word(w) for w, _ in frozen]
        words = self.final.words
        same = len(words) == len(frozen) and all(w in words for w, _ in frozen)
        return {
            "schema": "1",
            "mode": self.mode.value,
            "generators": list(self.generators),
            "point_budget": self.point_budget,
            "word_budget": self.word_budget,
            "seed": self.seed,
            "final": self.final.to_json(names if same else None),
            "frozen_fix": {
                name: {"stage": stage, "fix": sorted(fix)}
                for name, (_, (stage, fix)) in zip(names, frozen)
            },
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
    so freezing happens while it still bites.  Every step is checked once
    to extend the previous condition; the words of one length group are
    frozen in one step, with one check.
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
    by_len: dict[int, list[Word]] = {}  # words to freeze, grouped by length
    for w in side_words(mode, gens, word_budget):
        by_len.setdefault(len(w.letters), []).append(w)
    for group in by_len.values():
        group.sort(key=Word.sort_key)
        rng.shuffle(group)

    cond = Condition(mode=mode)
    stage = 0
    goal_log: list[tuple[str, int, Optional[int]]] = []
    frozen_fix: dict[Word, tuple[int, frozenset[int]]] = {}

    def freeze(group: Sequence[Word]) -> None:
        # No point step comes between the words, so s stays prev's: the side
        # set grows and is validated once.  The order check cannot fail (s is
        # prev's and the side set a superset of prev's); it is kept as the
        # step's contract.
        nonlocal cond, stage
        prev = cond
        cond = poset.add_words(prev, prev.words | frozenset(group))
        fix = None
        if discipline.shape == "hat":
            fix = _fix_reader(fix_table(gens, max(map(len, group)), cond.s), cond.s)
        for i, w in enumerate(group):
            stage += 1
            earlier = itertools.chain(prev.words, itertools.islice(group, i))
            frozen_fix[w] = (stage, frozen_value(mode, cond.s, w, earlier, fix))
            goal_log.append((_freeze_text(w), stage, None))
        if not poset.leq(cond, prev):
            raise BuildError(f"chain law broken at stage {stage}", _report())

    def run_goal(goal: DenseGoal) -> None:
        nonlocal cond, stage
        stage += 1
        prev = cond
        witness: Optional[int] = None
        # Point and hit steps come back order-checked by their step function
        # (the chooser's leq, mad_set_point, hit_extend) or leave cond as it was.
        if goal.kind == "hit":
            found = extension.hit_search(prev, goal.gen, goal.sigma, goal.floor, 256)
            if not isinstance(found, int):
                raise BuildError(f"goal {goal.describe()} found no hit", _report())
            witness = found
            cond = hit_extend(prev, goal.gen, goal.sigma, found)
        else:
            pm = prev.s.get(goal.gen)
            try:
                if goal.kind == "domain":
                    if goal.point not in pm.fwd:
                        cond = point_step(prev, goal.gen, goal.point, ceiling=value_ceiling)
                    witness = cond.s.get(goal.gen).fwd[goal.point]
                else:
                    if goal.point not in pm.rev:
                        ext = extension.range_extend(prev, goal.gen, goal.point)
                        cond = ext.commit(ext.choose(ceiling=value_ceiling))
                    witness = cond.s.get(goal.gen).rev[goal.point]
            except Exception as err:
                raise BuildError(f"goal {goal.describe()} failed: {err}", _report()) from err
        goal_log.append((goal.describe(), stage, witness))

    def _report() -> BuildReport:
        return BuildReport(
            cond, goal_log, frozen_fix, mode, gens, point_budget, word_budget, seed
        )

    next_point = 0

    def issue_points(limit: int) -> None:
        nonlocal next_point
        while next_point < limit:
            for g in gens:
                run_goal(DenseGoal("domain", gen=g, point=next_point))
                if discipline.injective:
                    run_goal(DenseGoal("range", gen=g, point=next_point))
            next_point += 1

    for length in sorted(by_len):
        issue_points(min(point_budget, 4 * length))
        freeze(by_len[length])
    issue_points(point_budget)
    for goal in extra_goals:
        if goal.kind == "freeze":
            freeze((goal.word,))
        else:
            run_goal(goal)
    return _report()


def _fix_reader(
    table: Mapping[tuple[Letter, ...], frozenset[int]], s: Assignment
) -> Callable[[Word], frozenset[int]]:
    """fix(w) = fix_points(w, s).points, read from `table`, an
    evaluation.fix_table of s, when it holds the word (every word over the
    table's generators up to its depth), else from fix_points.  Each caller
    asks a word once.  The closure holds the table and no reference to
    itself, so the table goes when the reader does."""

    def fix(w: Word) -> frozenset[int]:
        pts = table.get(w.letters)
        return evaluation.fix_points(w, s).points if pts is None else pts

    return fix


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
    short words (words.conjugate_core); empty list means ok.

    Both laws read the fix sets from one evaluation.fix_table of the final
    assignment, built here and not shared with the build, so the check
    stays independent of the fix sets the build recorded; the table holds
    every short word and its core, and a frozen word it lacks goes through
    fix_points, once (_fix_reader).  Violations come in freezing order, then
    in reduced_words order."""
    if DISCIPLINES[report.mode].shape != "hat":
        return _frozen_law(report)
    s = report.final.s
    gens = sorted(set(report.generators))
    table = fix_table(gens, report.word_budget, s)
    violations = _frozen_law(report, _fix_reader(table, s))
    for letters in reduced_letters(gens, report.word_budget, min_len=1):
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


def build_variant_family(
    mode: PosetMode,
    generators: Sequence[int],
    point_budget: int,
    seed: int = 0,
    value_ceiling: Optional[int] = None,
) -> BuildReport:
    """ADP: almost disjoint injections; EDF: eventually different functions;
    MAD: almost disjoint {0,1}-coded sets.  All pairwise agreement or
    intersection sets are frozen once the corresponding side entries are in."""
    word_budget = DISCIPLINES[mode].word_budget
    if word_budget is None:
        raise ValueError("variant builder covers ADP, EDF and MAD")
    return build(
        mode, generators, point_budget=point_budget, word_budget=word_budget, seed=seed,
        value_ceiling=value_ceiling,
    )
