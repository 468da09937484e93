"""BuildReport.to_json hands the writer the build's own records: the goal
log's tuples and one row per frozen word as writer.Rows, each map's pairs as
sorted tuples, and F in the Word.sort_key order the build froze its words
in.  On drawn builds in every mode, with extra freeze and hit goals, and on
the partial report of a build that fails, the report writes the bytes of
the dict-building to_json it replaced (report_reference.reference_to_json),
and F lists the final side set in Word.sort_key order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from cofinitary.builder import BuildError, DenseGoal, build, hit_goal
from cofinitary.evaluation import zshift
from cofinitary.poset import DISCIPLINES, PosetMode, side_words
from cofinitary.words import Word, format_word
from cofinitary.writer import encode_report
from report_reference import plain, reference_to_json


@st.composite
def _builds(draw):
    """The keyword arguments of a small build: any mode, word budgets up to
    6, up to three extra goals (freezes of side words over one more
    generator or one letter longer, and in a cofinitary build hit goals),
    and sometimes a value ceiling low enough to stop the build."""
    mode = draw(st.sampled_from(list(PosetMode)))
    budget = DISCIPLINES[mode].word_budget or draw(st.integers(1, 6))
    gens = list(range(draw(st.integers(1, 3 if budget <= 4 else 2))))
    extra = side_words(mode, tuple(range(len(gens) + 1)), min(budget + 1, 4))
    goals = st.builds(lambda w: DenseGoal("freeze", word=w), st.sampled_from(extra))
    if DISCIPLINES[mode].shape == "hat":
        hits = st.builds(hit_goal, st.sampled_from(gens), st.just(zshift()), st.integers(0, 20))
        goals = st.one_of(goals, hits)
    return dict(
        mode=mode, generators=gens, point_budget=draw(st.integers(1, 8)), word_budget=budget,
        seed=draw(st.integers(0, 10**6)), extra_goals=draw(st.lists(goals, max_size=3)),
        value_ceiling=draw(st.sampled_from([None, None, 4, 12])),
    )


def _check(report) -> None:
    payload = report.to_json()
    assert encode_report(payload) == encode_report(reference_to_json(report))
    want = [format_word(w) for w in sorted(report.final.words, key=Word.sort_key)]
    assert plain(payload)["final"]["F"] == want


@settings(max_examples=60, deadline=None)
@given(_builds())
def test_drawn_builds_write_the_reference_bytes(kwargs):
    try:
        report = build(**kwargs)
    except BuildError as err:
        report = err.partial
    _check(report)


@pytest.mark.parametrize("mode", list(PosetMode))
def test_frozen_order_of_a_build(mode):
    budget = DISCIPLINES[mode].word_budget or 4
    report = build(mode, [0, 1, 2], point_budget=6, word_budget=budget, seed=5)
    assert list(report.frozen_order) == sorted(report.frozen_fix, key=Word.sort_key)
    _check(report)


def test_partial_reports_sort_their_frozen_words():
    # the order build knows is its whole schedule; a report with fewer
    # frozen words, or with a frozen word past it, sorts its own
    with pytest.raises(BuildError) as err:
        build(PosetMode.COFINITARY, [0, 1], point_budget=30, word_budget=3, seed=0,
              value_ceiling=10)
    report = err.value.partial
    assert report.frozen_fix and report.frozen_order is None
    _check(report)
    report = build(PosetMode.COFINITARY, [0, 1], point_budget=4, word_budget=3, seed=2)
    del report.frozen_fix[report.frozen_order[0]]
    _check(report)
    longer = side_words(PosetMode.COFINITARY, (0, 1, 2), 3)[-1]
    report = build(PosetMode.COFINITARY, [0, 1], point_budget=4, word_budget=2, seed=2,
                   extra_goals=[DenseGoal("freeze", word=longer)])
    assert report.frozen_order is None
    _check(report)
