"""Each length group of a build is frozen in one step.

builder.build grows the side set once per length group, with one
validation and one order check, where it used to freeze the words one at a
time.  reference_build below is the word-at-a-time builder, kept verbatim
but for its name and its add_words call; both must give the same report,
goal log included, on every mode, word budget and kind of extra goal.

A group's frozen values are read from one evaluation.fix_table of the
group's s; the last tests check each group's reader against fix_points at
that s, and that the table is freed when its group is done.
"""

from __future__ import annotations

import gc
import random
import weakref
from typing import Iterable, Optional, Sequence

import pytest

from cofinitary import builder, evaluation, poset
from cofinitary.builder import BuildError, BuildReport, DenseGoal, build, hit_goal
from cofinitary.cli import encode_report
from cofinitary.evaluation import fix_points, fix_table, zshift
from cofinitary.extension import hit_extend, hit_search, point_step, range_extend
from cofinitary.poset import (
    DISCIPLINES,
    Condition,
    PosetMode,
    add_words,
    frozen_value,
    leq,
    side_words,
)
from cofinitary.words import Letter, Word, format_word, reduced_words, single


def reference_build(
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
    to extend the previous condition.  Its ambient ground is gone, as the
    builder's is.
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

    def run_goal(goal: DenseGoal) -> None:
        nonlocal cond, stage
        stage += 1
        prev = cond
        witness: Optional[int] = None
        # Point and hit steps come back order-checked by their step function
        # (the chooser's leq, mad_set_point, hit_extend) or leave cond as it
        # was; only a freeze is checked here.  A freeze keeps s and grows
        # the side set by construction, so this check cannot fail.
        if goal.kind == "freeze":
            cond = add_words(prev, prev.words | {goal.word})
            fix = frozen_value(mode, cond.s, goal.word, prev.words)
            frozen_fix[goal.word] = (stage, fix)
            if not leq(cond, prev):
                raise BuildError(f"chain law broken at stage {stage}", _report())
        elif goal.kind == "hit":
            found = hit_search(prev, goal.gen, goal.sigma, goal.floor, 256)
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
                        ext = range_extend(prev, goal.gen, goal.point)
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
        for w in by_len[length]:
            run_goal(DenseGoal("freeze", word=w))
    issue_points(point_budget)
    for goal in extra_goals:
        run_goal(goal)
    return _report()


def _same(kwargs: dict) -> BuildReport:
    new, old = build(**kwargs), reference_build(**kwargs)
    assert new.goal_log == old.goal_log
    assert new.to_json() == old.to_json()
    assert encode_report(new.to_json()) == encode_report(old.to_json())
    return new


MODES = [
    (PosetMode.COFINITARY, [0, 1, 2], 12, 3),
    (PosetMode.ADP, [0, 1, 2, 3], 20, 2),
    (PosetMode.EDF, [0, 1, 2, 3], 20, 2),
    (PosetMode.MAD, [0, 1, 2, 3], 20, 1),
]


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("mode, gens, points, word_budget", MODES)
def test_modes(mode, gens, points, word_budget, seed):
    _same(dict(mode=mode, generators=gens, point_budget=points,
               word_budget=word_budget, seed=seed))


@pytest.mark.parametrize("word_budget", [1, 2, 3, 4])
def test_word_budgets(word_budget):
    for seed in (1, 2):
        _same(dict(mode=PosetMode.COFINITARY, generators=[0, 1], point_budget=10,
                   word_budget=word_budget, seed=seed))


def _freeze(w: Word) -> DenseGoal:
    return DenseGoal("freeze", word=w)


def test_extra_goals_cofinitary():
    new_word = Word((Letter(0, 1), Letter(1, 1), Letter(1, 1)))  # hat, longer than the budget
    goals = [_freeze(new_word), _freeze(single(1)), hit_goal(0, zshift(), 10), _freeze(single(0))]
    report = _same(dict(mode=PosetMode.COFINITARY, generators=[0, 1], point_budget=6,
                        word_budget=2, seed=3, extra_goals=goals))
    logged = [g for g, _, _ in report.goal_log[-4:]]
    assert logged == [g.describe() for g in goals]


def test_extra_goals_mad():
    # A MAD letter's frozen value reads the letters frozen before it, so a
    # re-frozen letter and a new one test what a group of one passes on.
    goals = [_freeze(single(2)), _freeze(single(5))]
    _same(dict(mode=PosetMode.MAD, generators=[0, 1, 2, 3], point_budget=20,
               word_budget=1, seed=4, extra_goals=goals))


def test_one_growth_and_one_check_per_group(intercept):
    calls = {"grow": [], "leq": 0}
    grow, check = poset.add_words, poset.leq

    def counting_grow(p, words):
        calls["grow"].append(words - p.words)
        return grow(p, words)

    def counting_leq(p, q):
        calls["leq"] += 1
        return check(p, q)

    intercept(builder, poset, add_words=counting_grow, leq=counting_leq)
    report = build(PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7)
    groups = {len(w) for w in report.frozen_fix}
    assert groups == {1, 2, 3}
    assert [len({len(w) for w in added}) for added in calls["grow"]] == [1, 1, 1]
    assert sum(map(len, calls["grow"])) == len(report.frozen_fix)
    assert calls["leq"] == len(groups)


@pytest.mark.parametrize("mode, gens, points, word_budget", MODES)
def test_freeze_stages_match_frozen_fix(mode, gens, points, word_budget):
    report = build(mode, gens, point_budget=points, word_budget=word_budget, seed=9)
    logged = {g[len("freeze:"):]: st for g, st, _ in report.goal_log if g.startswith("freeze:")}
    assert logged == {format_word(w): st for w, (st, _) in report.frozen_fix.items()}


def test_non_hat_word_in_a_group_is_rejected(monkeypatch):
    a, b = Letter(0, 1), Letter(1, 1)
    bad = [Word((a, b, a)), Word((b, a, b))]  # first and last letters share a generator

    def with_bad_words(mode, alphabet, length):
        return side_words(mode, alphabet, length) + tuple(bad)

    frozen = []
    value = builder.frozen_value

    def recording_value(mode, s, w, earlier, fix=None):
        frozen.append(w)
        return value(mode, s, w, earlier, fix)

    monkeypatch.setattr(builder, "side_words", with_bad_words)
    monkeypatch.setattr(builder, "frozen_value", recording_value)
    with pytest.raises(ValueError) as err:
        build(PosetMode.COFINITARY, [0, 1], point_budget=12, word_budget=3, seed=1)
    names = sorted(bad, key=Word.sort_key)
    message = str(err.value)
    assert message == "; ".join(f"word {format_word(w)} is not in the hat class" for w in names)
    assert frozen and all(len(w) < 3 for w in frozen)  # nothing of the group was frozen


# -- frozen values from one fix table per group ------------------------------

BUILDS = {  # point goals go on after the last group, so the final s is not a group's
    "empty": ([0, 1, 2], 16, 3, ()),  # no extra goals
    "zshift": ([0, 1], 10, 2, (hit_goal(0, zshift(), 10), hit_goal(1, zshift(), 4))),
}


@pytest.mark.parametrize(
    "gens, points, word_budget, goals", list(BUILDS.values()), ids=list(BUILDS)
)
def test_group_values_come_from_a_table_at_the_group_s(
    gens, points, word_budget, goals, monkeypatch, intercept
):
    # Each group has its own reader, each word is frozen through its group's
    # reader at its group's s, and the reader equals fix_points at that s on
    # every word of the group's length.  No word reaches fix_points, which
    # a table one length short would send its longest words to.
    # A table of the final s agrees on the frozen words, which keep their
    # fix sets, so the reader-per-group and group-s checks catch it.
    # The zshift build also meets hit goals toward zshift after its groups.
    groups, calls, asked = [], [], []
    grow, value, points_of = poset.add_words, builder.frozen_value, evaluation.fix_points

    def recording_grow(p, words):
        groups.append(grow(p, words))
        return groups[-1]

    def recording_value(mode, s, w, earlier, fix=None):
        calls.append((w, s, fix))
        return value(mode, s, w, earlier, fix)

    def recording_points(w, s):
        asked.append(w)
        return points_of(w, s)

    intercept(builder, poset, add_words=recording_grow)
    monkeypatch.setattr(builder, "frozen_value", recording_value)
    intercept(builder, evaluation, fix_points=recording_points)
    report = build(PosetMode.COFINITARY, gens, point_budget=points,
                   word_budget=word_budget, seed=5, extra_goals=goals)
    hits = [witness for goal, _, witness in report.goal_log if goal.startswith("hit:")]
    assert len(hits) == len(goals) and None not in hits  # every hit goal was met
    assert not asked
    assert report.final.s != groups[-1].s
    assert len(calls) == len(report.frozen_fix)
    checked = set()
    for w, s, fix in calls:
        group = next(c for c in groups if w in c.words)
        assert fix is not None and s is group.s
        assert report.frozen_fix[w][1] == fix_points(w, s).points
        if (id(fix), id(group)) not in checked:
            checked.add((id(fix), id(group)))
            for u in reduced_words(gens, len(w), min_len=len(w)):
                assert fix(u) == fix_points(u, s).points, format_word(u)
    assert len({id(fix) for _, _, fix in calls}) == len(groups)  # a reader per group


def test_each_group_table_is_dropped_with_its_group(monkeypatch):
    # the reader's closure holds its table in no cycle, so reference
    # counting frees it when the freeze returns, with the collector off
    class Table(dict):
        pass

    refs = []

    def tracked(gens, max_len, s):
        table = Table(fix_table(gens, max_len, s))
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(builder, "fix_table", tracked)
    gc.disable()
    try:
        build(PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=2)
        assert len(refs) == 3 and all(r() is None for r in refs)
    finally:
        gc.enable()
