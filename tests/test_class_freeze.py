"""A cofinitary build freezes one hat word per class.

Under partial injections the fixed points of every word with one
words.cyclic_class key are in bijection (see tests/class_expansion.py), so
the builder freezes and records only the least hat word of each class.
These tests expand every recorded class back to all hat words up to the
word budget and compare each with its fix set on the final assignment,
which check reads from evaluation.fix_sets walks: the fix sets a build
that froze every hat word recorded.
"""

from __future__ import annotations

import json
import random

import pytest

import class_expansion
from class_expansion import check, expand, period
from goal_log import logged
from cofinitary.builder import build, verify_cofinitary
from cofinitary.writer import encode_report
from cofinitary.evaluation import Assignment, PartialMap, fix_points
from cofinitary.poset import PosetMode, side_words
from cofinitary.words import (
    Word,
    cyclic_class,
    format_word,
    hat_words,
    parse_word,
)
from word_reference import class_hat_letters


def _payload(report) -> dict:
    """The report file's contents, as class_expansion.py reads them."""
    return json.loads(encode_report(report.to_json()))


@pytest.mark.parametrize("seed", [0, 3, 1009])
@pytest.mark.parametrize("word_budget", [1, 2, 3, 4])
@pytest.mark.parametrize("gens", [2, 3, 4])
def test_expanded_classes_give_every_hat_word_its_fix_set(gens, word_budget, seed):
    report = build(PosetMode.COFINITARY, range(gens), point_budget=20,
                   word_budget=word_budget, seed=seed)
    payload = _payload(report)
    assert check(payload) == []
    words = side_words(PosetMode.COFINITARY, tuple(range(gens)), word_budget)
    assert sum(e["hat_words"] for e in payload["frozen_fix"].values()) == len(words)
    assert len(report.frozen_fix) == len({cyclic_class(w) for w in words})
    for w in report.frozen_fix:  # the least hat word of its class
        assert class_hat_letters(w)[0] == w.letters
    assert verify_cofinitary(report) == []


def test_the_classes_of_build_wide():
    report = build(PosetMode.COFINITARY, range(4), point_budget=20, word_budget=4, seed=3)
    payload = _payload(report)
    assert len(payload["frozen_fix"]) == len(payload["final"]["F"]) == 390
    freezes = [g for g, _, _ in logged(report) if g.startswith("freeze:")]
    assert len(freezes) == 390
    expanded, problems = expand(payload)
    assert not problems and len(expanded) == len(hat_words(range(4), 4)) == 2432


def _class(text: str) -> list[str]:
    return [format_word(Word(t)) for t in class_hat_letters(parse_word(text))]


def test_class_hat_letters():
    assert _class("g0") == ["g0^-1", "g0"]
    # g0 g1 g0 is a rotation of g0^2 g1, but no hat word
    assert _class("g0^2 g1") == ["g0^-2 g1^-1", "g0^2 g1", "g1^-1 g0^-2", "g1 g0^2"]
    # (g0 g1)^2 has two distinct rotations, and so has its inverse
    assert _class("g0 g1 g0 g1") == ["g0^-1 g1^-1 g0^-1 g1^-1", "g0 g1 g0 g1",
                                     "g1^-1 g0^-1 g1^-1 g0^-1", "g1 g0 g1 g0"]
    with pytest.raises(ValueError):
        class_hat_letters(parse_word("g0 g1 g0"))


def test_period():
    assert [period(parse_word(t).letters) for t in ("g0", "g0^5", "g0 g1", "g0 g1 g0 g1",
                                                     "g0^2 g1 g0^2 g1 g0^2 g1")] == [1, 1, 2, 2, 3]


def test_a_power_is_walked_once_per_distinct_rotation(monkeypatch):
    # g0^5 and its inverse have one distinct rotation each: every fixed
    # point is walked twice, not once per letter of each
    report = build(PosetMode.COFINITARY, [0], point_budget=4, word_budget=5, seed=0)
    payload = _payload(report)
    fix = payload["frozen_fix"]["g0^-5"]["fix"]
    assert fix
    walks = []
    real = class_expansion._apply

    def counting(letters, maps, n):
        walks.append(letters)
        return real(letters, maps, n)

    monkeypatch.setattr(class_expansion, "_apply", counting)
    payload["frozen_fix"] = {"g0^-5": payload["frozen_fix"]["g0^-5"]}
    expanded, problems = expand(payload)
    assert not problems and expanded == {"g0^-5": fix, "g0^5": fix}
    assert len(walks) == 2 * len(fix)


def _rotated(w: Word) -> Word:
    return Word(w.letters[1:] + w.letters[:1])


def _on_random_injections(payload: dict, seed: int, record) -> dict:
    """The report over dense random partial injections in place of its final
    assignment, each class recording record(representative, s).  A build
    lays the identity on its first points before it freezes a word, so
    every frozen fix set of a build is that identity block, which each e_v
    maps onto itself; here the rotations of a class have distinct sets."""
    rng = random.Random(seed)
    table = {}
    for g in payload["generators"]:
        dom = rng.sample(range(7), 6)
        table[g] = PartialMap(frozenset(zip(dom, rng.sample(range(7), 6))))
    s = Assignment(table)
    payload["final"]["s"] = s.to_json()
    for name, entry in payload["frozen_fix"].items():
        entry["fix"] = sorted(record(parse_word(name), s))
    return payload


def _fix(w: Word, s: Assignment) -> frozenset[int]:
    return fix_points(w, s).points


@pytest.mark.parametrize("seed", range(5))
def test_expansion_on_random_injections(seed):
    payload = _payload(build(PosetMode.COFINITARY, range(3), point_budget=8, word_budget=4,
                             seed=seed))
    payload = _on_random_injections(payload, seed, _fix)
    expanded, problems = expand(payload)
    assert not problems and check(payload) == []
    # the words of many classes get distinct sets here
    moved = 0
    for name in payload["frozen_fix"]:
        sets = {tuple(expanded[format_word(Word(t))]) for t in class_hat_letters(parse_word(name))}
        moved += len(sets) > 1
    assert moved >= 20


@pytest.mark.parametrize("seed", range(5))
def test_a_wrong_rotation_recorded_is_caught(seed):
    # the mutant records, for each class, the fix set of the representative
    # turned by one letter: a word of the class, but not the frozen one
    payload = _payload(build(PosetMode.COFINITARY, range(3), point_budget=8, word_budget=4,
                             seed=seed))
    payload = _on_random_injections(payload, seed, lambda w, s: _fix(_rotated(w), s))
    problems = check(payload)
    assert any(": expanded " in p for p in problems)


def test_a_wrong_hat_words_count_is_caught():
    payload = _payload(build(PosetMode.COFINITARY, range(2), point_budget=8, word_budget=2,
                             seed=1))
    entry = next(iter(payload["frozen_fix"].values()))
    entry["hat_words"] += 1
    problems = check(payload)
    assert any("hat_words" in p for p in problems)
    assert any(p.startswith("hat_words add up to") for p in problems)
