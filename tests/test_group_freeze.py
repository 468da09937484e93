"""Each length group of a build is frozen in one step.

builder.build grows the side set once per length group, with one
validation and one order check, where it used to freeze the words one at a
time.  reference_build below is the word-at-a-time builder, kept verbatim
but for its name, its add_words call and its freezing the least hat word of
each class (words.cyclic_class) for the class; both must give the same
report, goal log included, on every mode, word budget and kind of extra
goal.  Its point and hit steps go through the copy path
(tests/copy_path.py), one new condition per pair: it is also the builder
that the point phase replaced, and tests/test_point_phase.py compares
drawn builds and ceiling aborts with it.

Each word's frozen value is evaluation.fix_points at its group's s; the
last test checks that, that the build makes no fix table, and that the
verifier makes one.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

import pytest

from copy_path import hit_extend, hit_search, point_step, range_extend
from report_reference import plain

from cofinitary import builder, poset
from cofinitary.builder import BuildError, BuildReport, DenseGoal, build, hit_goal
from cofinitary.writer import encode_report
from cofinitary.evaluation import fix_points, zshift
from cofinitary.poset import (
    DISCIPLINES,
    Condition,
    PosetMode,
    add_words,
    frozen_value,
    leq,
    side_words,
)
from cofinitary.words import Letter, Word, cyclic_class, format_word, single


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
        if discipline.shape == "hat":
            seen: set[tuple[Letter, ...]] = set()
            group[:] = [
                w for w in group
                if not (cyclic_class(w) in seen or seen.add(cyclic_class(w)))
            ]
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
    assert plain(new.to_json()) == plain(old.to_json())
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
    # First and last letters share a generator, and neither word is
    # cyclically reduced, so its class holds no hat word.  Handed to the
    # build as class representatives, they join the length-3 group, and
    # the group's growth step must reject them.
    a, b = Letter(0, 1), Letter(1, 1)
    bad = [Word((a, b, a.inverse())), Word((b, a, b.inverse()))]
    representatives = builder.class_representatives

    def with_bad_words(gens, max_len):
        return representatives(gens, max_len) + bad

    frozen = []
    value = builder.frozen_value

    def recording_value(mode, s, w, earlier, fix=None):
        frozen.append(w)
        return value(mode, s, w, earlier, fix)

    monkeypatch.setattr(builder, "class_representatives", with_bad_words)
    monkeypatch.setattr(builder, "frozen_value", recording_value)
    with pytest.raises(ValueError) as err:
        build(PosetMode.COFINITARY, [0, 1], point_budget=12, word_budget=3, seed=1)
    names = sorted(bad, key=Word.sort_key)
    message = str(err.value)
    assert message == "; ".join(f"word {format_word(w)} is not in the hat class" for w in names)
    assert frozen and all(len(w) < 3 for w in frozen)  # nothing of the group was frozen


# -- frozen values from fix_points at each group's s ------------------------

BUILDS = {  # point goals go on after the last group, so the final s is not a group's
    "empty": ([0, 1, 2], 16, 3, ()),  # no extra goals
    "zshift": ([0, 1], 10, 2, (hit_goal(0, zshift(), 10), hit_goal(1, zshift(), 4))),
}


@pytest.mark.parametrize(
    "gens, points, word_budget, goals", list(BUILDS.values()), ids=list(BUILDS)
)
def test_each_word_is_frozen_through_fix_points_at_its_group_s(
    gens, points, word_budget, goals, monkeypatch, intercept
):
    # The build walks no fix trie (the verifier walks the frozen words' trie
    # and the table of the words two letters shorter than the budget), each
    # word is frozen at the s of the step that added its group, and its
    # value is fix_points at that s.  The final s is not a group's, and a frozen
    # word keeps its fix set, so the group-s check is what tells them apart.
    # The zshift build also meets hit goals toward zshift after its groups.
    groups, calls, walks = [], [], []
    grow, value = poset.add_words, builder.frozen_value
    walk, table = builder.fix_sets, builder.fix_table

    def no_walk(*args):
        raise AssertionError("the build walked a fix trie")

    def counted_walk(words, s):
        walks.append(("trie", sorted(words)))
        return walk(walks[-1][1], s)

    def counted_table(gens, max_len, s):
        walks.append(("table", max_len))
        return table(gens, max_len, s)

    def recording_grow(p, words):
        groups.append(grow(p, words))
        return groups[-1]

    def recording_value(mode, s, w, earlier, fix=None):
        calls.append((w, s, fix))
        return value(mode, s, w, earlier, fix)

    monkeypatch.setattr(builder, "fix_sets", no_walk)
    monkeypatch.setattr(builder, "fix_table", no_walk)
    intercept(builder, poset, add_words=recording_grow)
    monkeypatch.setattr(builder, "frozen_value", recording_value)
    report = build(PosetMode.COFINITARY, gens, point_budget=points,
                   word_budget=word_budget, seed=5, extra_goals=goals)
    hits = [witness for goal, _, witness in report.goal_log if goal.startswith("hit:")]
    assert len(hits) == len(goals) and None not in hits  # every hit goal was met
    assert report.final.s != groups[-1].s
    assert len(calls) == len(report.frozen_fix)
    for w, s, fix in calls:
        group = next(c for c in groups if w in c.words)
        assert fix is None and s is group.s
        assert report.frozen_fix[w][1] == fix_points(w, group.s).points, format_word(w)
    monkeypatch.setattr(builder, "fix_sets", counted_walk)
    monkeypatch.setattr(builder, "fix_table", counted_table)
    assert builder.verify_cofinitary(report) == []
    assert walks == [
        ("trie", sorted(w.letters for w in report.frozen_fix)), ("table", word_budget - 2)
    ]
