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

Between freezes, point goals extend a transient point phase (_PointPhase):
the maps of the last kept condition copied into mutable fwd/rev dicts, the
value set V with its gap and top, and the side-set index, pair partners or
frozen letters of that condition's side set, which no point step changes.
Each domain, range or MAD goal runs the checks a point step of extension
runs, through the same functions of plain lookups: its discipline's
certificate rule (extension.walk_certificate, agreement_certificate,
mad_value), the ceiling (least_within), validate's rules on the new pair
(poset.pair_problems) and leq's one-pair order kernel (poset.walk_breaks,
agreement_breaks, ones_breaks).  It then sets one key in each lookup and
grows V, so a step costs O(1) besides its checks, where building a new
condition per pair copied a map and V.  A Condition is made only where one
is kept: at each freeze, where add_words, frozen_value and the chain-law
leq run on it, for the report, and for a BuildError's partial report.  It
closes the phase and takes over its lookups; the next phase copies them
when it opens, so no later step changes a kept condition.  Hit and freeze
goals past the points run on such a condition.

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

from . import evaluation, extension, poset
from .evaluation import Assignment, GroundPermutation, PartialMap, fix_table
from .extension import ContractViolation, hit_extend
from .poset import DISCIPLINES, Condition, PosetMode, Step, frozen_value, side_words
from .words import (
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


class _PointPhase:
    """The builder's transient point phase (see the module docstring).  A
    step keeps its pair only once every check passes; a failed check
    leaves the lookups as they were and raises what extension's point step
    raises."""

    def __init__(self, base: Condition, gens: Iterable[int]) -> None:
        """A phase over base whose steps touch the generators gens."""
        self.base = base
        self.discipline = d = DISCIPLINES[base.mode]
        # fwd and rev per generator (rev only where maps are injective),
        # copied from base's maps, which the phase never changes
        self.fwd: dict[int, dict[int, int]] = {}
        self.rev: dict[int, dict[int, int]] = {}
        self.steps: dict[Letter, Step] = {}  # the walk kernel's lookup per letter
        for g in sorted(set(gens) | base.occurring()):
            pm = base.s.get(g)
            fwd = self.fwd[g] = dict(pm.fwd)
            self.steps[Letter(g, 1)] = fwd.get
            if d.injective:
                rev = self.rev[g] = dict(pm.rev)
                self.steps[Letter(g, -1)] = rev.get
        if d.kernel == "walk":
            self.tries = poset.side_index(base.words)
            values, self.gap, self.top = base.s.summary()
            self.values = set(values)
        elif d.kernel == "agreement":
            self.partners = poset.partners(base.words)
        else:
            self.letters = [w.letters[0].gen for w in base.words]

    def close(self) -> Condition:
        """The condition the lookups stand for, validated against the kept
        condition.  The phase ends here and hands its dicts over to the
        condition's maps, so no step changes them after: a later phase
        copies them when it opens."""
        fwd, rev = self.fwd, self.rev
        self.fwd = self.rev = None  # the phase is over
        table = {
            g: PartialMap.of_lookups(f, rev.get(g)) for g, f in sorted(fwd.items()) if f
        }
        base = self.base
        return poset.validated(base, Condition(Assignment._of_clean(table), base.words, base.mode))

    def summary(self) -> tuple[set[int], int, int]:
        return self.values, self.gap, self.top

    def certificate(self, gen: int, point: int, direction: str) -> extension.ExtensionCertificate:
        """The certificate for a new pair of gen at the fixed coordinate
        point ("domain": n, "range": m), as domain_extend or range_extend
        makes it for the kept condition's side set over these maps."""
        if self.discipline.kernel == "agreement":
            return extension.agreement_certificate(
                [self.fwd[h] for h in self.partners.get(gen, ())], point
            )
        image = (self.rev if direction == "domain" else self.fwd)[gen].keys
        return extension.walk_certificate(self.tries, gen, image, point, self.summary)

    def domain(self, gen: int, n: int, ceiling: Optional[int]) -> int:
        """Add n to gen's domain; returns its value."""
        if self.discipline.values is not None:
            value = extension.mad_value(gen, n, self.letters, self.fwd.__getitem__)
        else:
            value = extension.least_within(self.certificate(gen, n, "domain"), gen, n, 0, ceiling)
        self._add(gen, n, value, n)
        return value

    def range(self, gen: int, m: int, ceiling: Optional[int]) -> int:
        """Add m to gen's range; returns its preimage."""
        if not self.discipline.injective:
            raise ValueError(f"range extension undefined for {self.base.mode.value} conditions")
        n = extension.least_within(self.certificate(gen, m, "range"), gen, m, 0, ceiling)
        self._add(gen, n, m, m)
        return n

    def _add(self, gen: int, n: int, m: int, point: int) -> None:
        """Keep the pair (n, m) on gen once it passes validate's rules and
        the order kernel; otherwise raise, with the lookups unchanged."""
        d = self.discipline
        fwd, rev = self.fwd[gen], self.rev.get(gen)
        problems = poset.pair_problems(d, gen, fwd, rev, n, m)
        if problems:
            raise ValueError("; ".join(problems))
        fwd[n] = m
        if rev is not None:
            rev[m] = n
        kept = False
        try:
            if self._breaks(gen, n, m):
                raise (
                    ContractViolation(extension.MAD_NOT_BELOW) if d.values is not None
                    else extension.not_below(gen, point, m)
                )
            kept = True
        finally:
            if not kept:
                del fwd[n]
                if rev is not None:
                    del rev[m]
        if d.kernel == "walk":
            values = self.values
            values.add(n)
            values.add(m)
            while self.gap in values:
                self.gap += 1
            self.top = max(self.top, n, m)

    def _breaks(self, gen: int, n: int, m: int) -> bool:
        """The discipline's order kernel on the pair (n, m) just put on gen."""
        kernel = self.discipline.kernel
        if kernel == "walk":
            return poset.walk_breaks(self.tries, self.steps, gen, n, m)
        fwd = self.fwd[gen]
        if kernel == "agreement":
            # gen held nothing at n before the step
            return any(
                poset.agreement_breaks(fwd, self.fwd[h], {}, self.fwd[h], n)
                for h in self.partners.get(gen, ())
            )
        if gen not in self.letters:
            return False
        others = list(self.letters)
        others.remove(gen)
        return poset.ones_breaks(n, m, [self.fwd[h].items() for h in others])


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
    so freezing happens while it still bites.  Point goals extend a
    transient point phase in place, one checked pair per step (_PointPhase);
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

    # the generators point goals touch: the build's and any extra goal's
    goal_gens = set(gens).union(g.gen for g in extra_goals if g.kind in ("domain", "range"))
    cond = Condition(mode=mode)  # the last kept condition
    phase: Optional[_PointPhase] = None  # the point phase extending it, if open
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
        nonlocal cond, stage
        stage += 1
        prev = kept()
        found = extension.hit_search(prev, goal.gen, goal.sigma, goal.floor, 256)
        if not isinstance(found, int):
            raise BuildError(f"goal {goal.describe()} found no hit", _report())
        cond = hit_extend(prev, goal.gen, goal.sigma, found)  # order-checked there
        goal_log.append((goal.describe(), stage, found))

    def point_goal(kind: str, gen: int, point: int) -> None:
        nonlocal phase, stage
        stage += 1
        text = _point_text(kind, gen, point)
        if phase is None:
            phase = _PointPhase(cond, goal_gens)
        try:
            if kind == "domain":
                witness = phase.fwd[gen].get(point)
                if witness is None:
                    witness = phase.domain(gen, point, value_ceiling)
            else:
                rev = phase.rev.get(gen)
                witness = None if rev is None else rev.get(point)
                if witness is None:
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
    short words (words.conjugate_core); empty list means ok.

    A cofinitary build records one word per class, which stands for the
    class only while the maps are partial injections, as the conjugation
    law also needs; so those reports are first checked with poset.validate,
    whose findings lead the list.  Both laws read the fix sets from one
    evaluation.fix_table of the final assignment, a kernel the build does
    not use (it freezes through fix_points), so the check stays independent
    of the fix sets the build recorded.  The table holds every short word
    and its core; a frozen word it lacks (an extra goal's, longer than the
    budget) goes through fix_points.  Violations then come in freezing
    order, then in reduced_words order."""
    if DISCIPLINES[report.mode].shape != "hat":
        return _frozen_law(report)
    s = report.final.s
    gens = sorted(set(report.generators))
    table = fix_table(gens, report.word_budget, s)

    def fix(w: Word) -> frozenset[int]:
        pts = table.get(w.letters)
        return evaluation.fix_points(w, s).points if pts is None else pts

    violations = poset.validate(report.final) + _frozen_law(report, fix)
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
