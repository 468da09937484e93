"""The fix table, the shared core routine, the verifier that reads them,
and the order check after the freeze's growth step.

evaluation.fix_table computes the fix sets of every short reduced word over
the finite generators in one walk of the word trie; builder.verify_cofinitary
reads both of its laws from that table and from words.conjugate_core.  The
reference verifier below is the one that asked fix_points for each word; the
new one must give the same violations, in the same order.  A freeze grows
the side set with add_words, and leq must still test the superset.
"""

from __future__ import annotations

import random

import pytest

from cofinitary.builder import (
    BuildReport,
    _frozen_law,
    build,
    build_variant_family,
    verify_cofinitary,
)
from cofinitary.evaluation import (
    EMPTY_GROUND,
    Assignment,
    FixResult,
    GroundPermutation,
    GroundRep,
    PartialMap,
    fix_points,
    fix_table,
    zshift,
)
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, add_words, leq
from cofinitary.words import (
    Letter,
    Word,
    concat,
    conjugate_core,
    conjugate_decompose,
    format_word,
    invert,
    is_hat,
    occurrences,
    parse_word,
    reduced_letters,
    reduced_words,
)

GENS = (0, 1, 2, 3)


def reference_verify_cofinitary(report: BuildReport, ground: GroundRep = EMPTY_GROUND) -> list[str]:
    """The verifier before the fix table, verbatim: one fix_points call and
    one conjugate_decompose per word."""
    memo: dict[Word, FixResult] = {}

    def fix(w: Word, s: Assignment, ground: GroundRep) -> FixResult:
        # s and ground are the final assignment and the ground throughout
        res = memo.get(w)
        if res is None:
            res = memo[w] = fix_points(w, s, ground)
        return res

    violations = _frozen_law(report, ground, fix)
    if DISCIPLINES[report.mode].shape == "hat":
        s = report.final.s
        alphabet = sorted(set(report.generators) | ground.generators())
        for w in reduced_words(alphabet, report.word_budget, min_len=1):
            if not (occurrences(w) & set(report.generators)):
                continue
            res = fix(w, s, ground)
            if not res.exact:
                violations.append(f"{format_word(w)}: fix set not exactly computable")
                continue
            _, core = conjugate_decompose(w)
            core_res = fix(core, s, ground)
            if len(res.points) != len(core_res.points):
                violations.append(
                    f"{format_word(w)}: |fix| = {len(res.points)} but its core "
                    f"{format_word(core)} has {len(core_res.points)}"
                )
    return violations


def _wide(seed: int) -> BuildReport:
    """The build of the build-wide benchmark command."""
    return build(PosetMode.COFINITARY, GENS, point_budget=20, word_budget=4, seed=seed)


def _random_maps(rng: random.Random, gens, size: int, values: int) -> Assignment:
    """Random pair sets: neither functional nor injective, as a rule."""
    return Assignment({
        g: PartialMap(frozenset((rng.randrange(values), rng.randrange(values)) for _ in range(size)))
        for g in gens
    })


def _table_matches(s: Assignment, ground: GroundRep, gens=GENS, max_len: int = 4) -> int:
    """Check the table against fix_points on every reduced word over gens and
    the ambient generators; returns how many words had a nonempty fix set."""
    table = fix_table(gens, max_len, s)
    finite = set(gens)
    nonempty = 0
    for w in reduced_words(sorted(finite | ground.generators()), max_len, min_len=1):
        if occurrences(w) <= finite:
            assert table[w.letters] == fix_points(w, s, ground).points, format_word(w)
            nonempty += bool(table[w.letters])
        else:
            assert w.letters not in table
    assert len(table) == sum(occurrences(w) <= finite for w in reduced_words(gens, max_len, 1))
    return nonempty


@pytest.mark.parametrize("seed", [3, 5])
def test_table_equals_fix_points_on_wide_builds(seed):
    s = _wide(seed).final.s
    assert _table_matches(s, EMPTY_GROUND) > 0


def test_table_equals_fix_points_on_non_injective_maps():
    rng = random.Random(11)
    nonempty = clashes = 0
    for _ in range(12):
        s = _random_maps(rng, GENS, rng.randrange(1, 9), 6)
        clashes += sum(not (pm.is_injective() and pm.is_functional()) for pm in s.table.values())
        nonempty += _table_matches(s, EMPTY_GROUND)
    assert nonempty > 100 and clashes > 20


def test_table_under_an_ambient_ground_covers_the_finite_words_only():
    ground = GroundRep({7: zshift()})
    rng = random.Random(5)
    for _ in range(3):
        s = _random_maps(rng, GENS, 6, 8)
        _table_matches(s, ground)


def test_table_of_an_empty_assignment_and_of_length_zero():
    table = fix_table((0, 1), 2, Assignment())
    assert len(table) == 4 + 4 * 3 and not any(table.values())
    assert fix_table((0, 1), 0, Assignment()) == {}


def reference_conjugate_decompose(w: Word) -> tuple[Word, Word]:
    """conjugate_decompose before it wrapped conjugate_core, verbatim."""
    if not w:
        raise ValueError("cannot decompose the empty word")
    letters = list(w.letters)
    peeled: list[Letter] = []
    while len(letters) >= 2 and letters[0] == letters[-1].inverse():
        peeled.append(letters[0])
        letters = letters[1:-1]
    # every reduced nonempty word has a nonempty cyclic reduction
    if not letters:
        raise ValueError("reduced word peeled to nothing")
    u = invert(Word(tuple(peeled)))  # w = u^-1 * core * u so far
    core = Word(tuple(letters))
    if not is_hat(core):
        # core = a^k v a^l with the same generator (same sign) at both ends;
        # rotate the shorter end block across
        gen = letters[0].gen
        k = 0
        while k < len(letters) and letters[k].gen == gen:
            k += 1
        l = 0
        while l < len(letters) and letters[-1 - l].gen == gen:
            l += 1
        if l <= k:
            rotated = Word(tuple(letters[-l:] + letters[:-l]))
            u = concat(Word(tuple(letters[-l:])), u)
        else:
            rotated = Word(tuple(letters[k:] + letters[:k]))
            u = concat(invert(Word(tuple(letters[:k]))), u)
        core = rotated
    if not is_hat(core):
        raise ValueError(f"core {format_word(core)} of {format_word(w)} is not a hat word")
    return u, core


def test_core_routine_equals_conjugate_decompose():
    for w in reduced_words([0, 1, 2], 5, min_len=1):
        u, core = conjugate_decompose(w)
        assert conjugate_core(w.letters) == (u.letters, core.letters)
        assert (u, core) == reference_conjugate_decompose(w)


def test_reduced_letters_are_the_letters_of_reduced_words():
    for gens, max_len, min_len in (([0, 1, 2], 4, 1), ([3, 1], 5, 0), ([2], 3, 2)):
        assert reduced_letters(gens, max_len, min_len) == [
            w.letters for w in reduced_words(gens, max_len, min_len)
        ]


# -- the verifier against the reference -------------------------------------


def _both(report: BuildReport, ground: GroundRep = EMPTY_GROUND) -> list[str]:
    new = verify_cofinitary(report, ground)
    assert new == reference_verify_cofinitary(report, ground)
    return new


def test_clean_builds_agree_in_every_mode():
    assert _both(build(PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7)) == []
    assert _both(_wide(3)) == []
    for mode in (PosetMode.ADP, PosetMode.EDF, PosetMode.MAD):
        assert _both(build_variant_family(mode, [0, 1, 2], 20, seed=4)) == []


@pytest.mark.parametrize("gens, budget", [([0], 2), ([0, 1], 3)])
def test_ambient_builds_agree(gens, budget):
    ground = GroundRep({7: zshift()})
    report = build(PosetMode.COFINITARY, gens, ground, point_budget=4, word_budget=budget, seed=2)
    assert any(7 in occurrences(w) for w in report.frozen_fix)
    assert _both(report, ground) == []


def test_horizon_limited_words_agree():
    # a report generator that is also ambient, backed by a permutation
    # without shift structure: its pure powers are only horizon-scanned
    swap = GroundPermutation(lambda n: n ^ 1, lambda n: n ^ 1, scan_horizon=40)
    ground = GroundRep({7: swap})
    report = build(PosetMode.COFINITARY, [0, 1], point_budget=6, word_budget=2, seed=3)
    report.generators = (0, 1, 7)
    violations = _both(report, ground)
    assert any("not exactly computable" in v for v in violations)


def _with_final_s(report: BuildReport, s: Assignment) -> BuildReport:
    return BuildReport(
        Condition(s, report.final.words, report.mode), report.goal_log, report.frozen_fix,
        report.mode, report.generators, report.point_budget, report.word_budget, report.seed,
    )


def test_a_moved_frozen_fix_set_is_reported_alike():
    report = build(PosetMode.COFINITARY, [0, 1, 2], point_budget=10, word_budget=3, seed=1)
    pm = report.final.s.get(1)
    n, m = min(p for p in pm.pairs if p[0] != p[1])
    s = Assignment({**report.final.s.table, 1: PartialMap(pm.pairs - {(n, m)} | {(n, n)})})
    violations = _both(_with_final_s(report, s))
    assert any(v.startswith("g1: frozen at stage") for v in violations)


def test_a_broken_conjugation_law_alone_is_reported_alike():
    # the report lists a third generator with no frozen word; its map has a
    # fixed point outside the image of g0, which conjugating by g0 loses
    report = build(PosetMode.COFINITARY, [0, 1], point_budget=6, word_budget=3, seed=2)
    k = max(report.final.s.all_values()) + 1
    corrupt = _with_final_s(report, report.final.s.with_pair(2, k, k))
    corrupt.generators = (0, 1, 2)
    violations = _both(corrupt)
    assert violations and all("but its core" in v for v in violations)
    assert "g0^-1 g2 g0: |fix| = 0 but its core g2 has 1" in violations


# -- the freeze's growth step -----------------------------------------------


def test_leq_rejects_a_side_set_that_does_not_grow_after_a_growth_step():
    a, b, c = parse_word("g0 g1"), parse_word("g1"), parse_word("g0^2")
    q = add_words(Condition(Assignment({0: PartialMap(frozenset({(0, 1)}))})), [a, b])
    # grown from a side set that lacks a word of q's
    other = add_words(Condition(q.s, frozenset({b})), [b, c])
    assert not leq(other, q)
    assert not leq(Condition(q.s, q.words - {a}), q)
    grown = add_words(q, q.words | {c})
    assert leq(grown, q) and not leq(q, grown)
