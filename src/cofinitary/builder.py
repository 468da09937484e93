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
import json
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .evaluation import EMPTY_GROUND, GroundPermutation, GroundRep, fix_points
from .extension import (
    domain_extend,
    hit_extend,
    hit_search,
    mad_set_point,
    range_extend,
)
from .poset import Condition, PosetMode, _agreement, _ones, add_words, leq
from .words import (
    Letter,
    Word,
    conjugate_decompose,
    format_word,
    hat_words,
    occurrences,
    reduced_words,
    single,
)


class BuildError(Exception):
    def __init__(self, message: str, partial: Optional["BuildReport"] = None) -> None:
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class DenseGoal:
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
            return f"freeze:{format_word(self.word)}"
        return f"hit:g{self.gen}>={self.floor}"


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
        return {
            "schema": "1",
            "mode": self.mode.value,
            "generators": list(self.generators),
            "point_budget": self.point_budget,
            "word_budget": self.word_budget,
            "seed": self.seed,
            "final": self.final.to_json(),
            "frozen_fix": {
                format_word(w): {"stage": stage, "fix": sorted(fix)}
                for w, (stage, fix) in sorted(
                    self.frozen_fix.items(), key=lambda kv: kv[0].sort_key()
                )
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


def _freeze_words_for_mode(
    mode: PosetMode, gens: Sequence[int], ground: GroundRep, word_budget: int
) -> dict[int, list[Word]]:
    """Words to freeze, grouped by length; canonical order inside each group."""
    by_len: dict[int, list[Word]] = {}
    if mode is PosetMode.COFINITARY:
        alphabet = sorted(set(gens) | ground.generators())
        for w in hat_words(alphabet, word_budget):
            if not (occurrences(w) & set(gens)):
                continue  # purely ambient words never move under extension
            by_len.setdefault(len(w.letters), []).append(w)
    elif mode in (PosetMode.ADP, PosetMode.EDF):
        pairs = []
        for i, a in enumerate(sorted(gens)):
            for b in sorted(gens)[i + 1 :]:
                pairs.append(Word((Letter(a, 1), Letter(b, -1))))
        by_len[2] = pairs
    else:
        by_len[1] = [single(g) for g in sorted(gens)]
    return by_len


def _frozen_snapshot(cond: Condition, w: Word, ground: GroundRep) -> frozenset[int]:
    res = fix_points(w, cond.s, ground)
    if not res.exact:
        raise BuildError(f"fix set of {format_word(w)} is horizon-limited; cannot freeze")
    return res.points


def _frozen_value(mode: PosetMode, cond: Condition, w: Word, ground: GroundRep) -> frozenset[int]:
    if mode is PosetMode.COFINITARY:
        return _frozen_snapshot(cond, w, ground)
    if mode in (PosetMode.ADP, PosetMode.EDF):
        return _agreement(cond.s, w.letters[0].gen, w.letters[1].gen)
    # MAD: single letter entries freeze nothing alone; record pairwise 1-sets
    g = w.letters[0].gen
    others = sorted(x.letters[0].gen for x in cond.words if x != w)
    agg: set[int] = set()
    for b in others:
        agg |= _ones(cond.s.get(g).pairs) & _ones(cond.s.get(b).pairs)
    return frozenset(agg)


def build(
    mode: PosetMode,
    generators: Sequence[int],
    ground: GroundRep = EMPTY_GROUND,
    point_budget: int = 32,
    word_budget: int = 3,
    seed: int = 0,
    value_ceiling: Optional[int] = None,
    extra_goals: Iterable[DenseGoal] = (),
) -> BuildReport:
    """Run the greedy goal schedule from the empty condition.

    Words of length L are frozen before point goals beyond 4*L are issued,
    so freezing happens while it still bites.  Every step is checked once
    to extend the previous condition.
    """
    gens = tuple(sorted(generators))
    if not gens:
        raise ValueError("need at least one generator")
    if point_budget < 1 or word_budget < 1:
        raise ValueError("budgets must be at least 1")
    extra_goals = tuple(extra_goals)
    if any(g.kind == "hit" for g in extra_goals) and mode is not PosetMode.COFINITARY:
        raise ValueError("hit goals require the cofinitary discipline")
    if value_ceiling is None:
        value_ceiling = max(1_000, 200 * point_budget)
    rng = random.Random(seed)
    by_len = _freeze_words_for_mode(mode, gens, ground, word_budget)
    for group in by_len.values():
        group.sort(key=Word.sort_key)
        rng.shuffle(group)

    cond = Condition(mode=mode)
    stage = 0
    goal_log: list[tuple[str, int, Optional[int]]] = []
    frozen_fix: dict[Word, tuple[int, frozenset[int]]] = {}

    def run_goal(goal: DenseGoal) -> None:
        nonlocal cond, stage
        stage += 1
        prev = cond
        witness: Optional[int] = None
        # Point and hit steps come back order-checked by their step function
        # (the chooser's leq, mad_set_point, hit_extend) or leave cond as it
        # was; only a freeze is checked here.
        if goal.kind == "freeze":
            cond = add_words(prev, prev.words | {goal.word}, ground)
            frozen_fix[goal.word] = (stage, _frozen_value(mode, cond, goal.word, ground))
            if not leq(cond, prev, ground):
                raise BuildError(f"chain law broken at stage {stage}", _report())
        elif goal.kind == "domain":
            if goal.point in cond.s.get(goal.gen).domain():
                witness = cond.s.get(goal.gen).fwd[goal.point]
            elif mode is PosetMode.MAD:
                cond = mad_set_point(prev, goal.gen, goal.point, ground)
                witness = cond.s.get(goal.gen).fwd[goal.point]
            else:
                ext = domain_extend(prev, goal.gen, goal.point, ground)
                try:
                    witness = ext.choose(ceiling=value_ceiling)
                except Exception as err:
                    raise BuildError(
                        f"goal {goal.describe()} failed: {err}", _report()
                    ) from err
                cond = ext.commit(witness)
        elif goal.kind == "range":
            if goal.point in cond.s.get(goal.gen).image():
                witness = cond.s.get(goal.gen).rev[goal.point]
            else:
                ext = range_extend(prev, goal.gen, goal.point, ground)
                try:
                    witness = ext.choose(ceiling=value_ceiling)
                except Exception as err:
                    raise BuildError(
                        f"goal {goal.describe()} failed: {err}", _report()
                    ) from err
                cond = ext.commit(witness)
        else:  # hit
            found = hit_search(prev, goal.gen, goal.sigma, goal.floor, 256, ground)
            if not isinstance(found, int):
                raise BuildError(f"goal {goal.describe()} found no hit", _report())
            witness = found
            cond = hit_extend(prev, goal.gen, goal.sigma, found, ground)
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
                if mode in (PosetMode.COFINITARY, PosetMode.ADP):
                    run_goal(DenseGoal("range", gen=g, point=next_point))
            next_point += 1

    for length in sorted(by_len):
        issue_points(min(point_budget, 4 * length))
        for w in by_len[length]:
            run_goal(DenseGoal("freeze", word=w))
    issue_points(point_budget)
    for goal in extra_goals:
        run_goal(goal)
    return _report()


def verify_cofinitary(report: BuildReport, ground: GroundRep = EMPTY_GROUND) -> list[str]:
    """Frozen-fix law plus the conjugation-cardinality law over all short
    words; empty list means ok."""
    violations: list[str] = []
    cond = report.final
    for w, (stage, recorded) in sorted(report.frozen_fix.items(), key=lambda kv: kv[0].sort_key()):
        now = _frozen_value(report.mode, cond, w, ground)
        if now != recorded:
            violations.append(
                f"{format_word(w)}: frozen at stage {stage} with {sorted(recorded)}, "
                f"final {sorted(now)}"
            )
    if report.mode is PosetMode.COFINITARY:
        alphabet = sorted(set(report.generators) | ground.generators())
        for w in reduced_words(alphabet, report.word_budget, min_len=1):
            if not (occurrences(w) & set(report.generators)):
                continue
            res = fix_points(w, cond.s, ground)
            if not res.exact:
                violations.append(f"{format_word(w)}: fix set not exactly computable")
                continue
            _, core = conjugate_decompose(w)
            core_res = fix_points(core, cond.s, ground)
            if len(res.points) != len(core_res.points):
                violations.append(
                    f"{format_word(w)}: |fix| = {len(res.points)} but its core "
                    f"{format_word(core)} has {len(core_res.points)}"
                )
    return violations


def verify_variant(report: BuildReport) -> list[str]:
    """Pairwise agreement / intersection freezing for ADP, EDF and MAD builds."""
    violations: list[str] = []
    cond = report.final
    if report.mode is PosetMode.MAD:
        # each letter's record aggregates its 1-set intersections with the
        # letters frozen before it; recompute over the same partners
        stages = {w.letters[0].gen: stage for w, (stage, _) in report.frozen_fix.items()}
        for w, (stage, recorded) in sorted(
            report.frozen_fix.items(), key=lambda kv: kv[0].sort_key()
        ):
            g = w.letters[0].gen
            partners = sorted(b for b, st in stages.items() if st < stage)
            now: set[int] = set()
            for b in partners:
                now |= _ones(cond.s.get(g).pairs) & _ones(cond.s.get(b).pairs)
            if frozenset(now) != recorded:
                violations.append(
                    f"letter g{g}: ones intersections frozen at stage {stage} as "
                    f"{sorted(recorded)}, final {sorted(now)}"
                )
        return violations
    for w, (stage, recorded) in sorted(report.frozen_fix.items(), key=lambda kv: kv[0].sort_key()):
        a, b = w.letters[0].gen, w.letters[1].gen
        now = _agreement(cond.s, a, b)
        if now != recorded:
            violations.append(
                f"pair (g{a}, g{b}): agreement frozen at stage {stage} as "
                f"{sorted(recorded)}, final {sorted(now)}"
            )
    return violations


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
    if mode not in (PosetMode.ADP, PosetMode.EDF, PosetMode.MAD):
        raise ValueError("variant builder covers ADP, EDF and MAD")
    return build(
        mode,
        generators,
        EMPTY_GROUND,
        point_budget=point_budget,
        word_budget=2 if mode is not PosetMode.MAD else 1,
        seed=seed,
        value_ceiling=value_ceiling,
    )


def report_to_json_bytes(report: BuildReport) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True, indent=1).encode() + b"\n"
