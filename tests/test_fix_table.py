"""The fix tables, the shared core routine, the verifier that reads them,
and the order check after the freeze's growth step.

evaluation.fix_sets computes the fix sets of given reduced words in one walk
of their trie, and evaluation.fix_table those of every short reduced word
over the finite generators.  builder.verify_cofinitary reads the frozen law
from the frozen words' own trie.  It checks the conjugation-cardinality law
by containment: on partial injections, Fix(a^-1 w' a) = a^-1(Fix(w') & ran a)
(eval_word applies a first), so the law holds up to length L exactly when
each w' of length at most L - 2 keeps its fix set inside the range of every
letter a that conjugates it.  Only when validate finds a problem or a
containment fails does it walk every word up to L with words.conjugate_core.
The reference verifier below is the one that asked fix_points for each
word; the new one must give the same violations, in the same order.  A
freeze grows the side set with add_words, and leq must still test the
superset.
"""

from __future__ import annotations

import random

import pytest

from test_class_representatives import recursion_headroom

from cofinitary.builder import (
    BuildReport,
    DenseGoal,
    _conjugates_keep_fix,
    _conjugation_law,
    build,
    verify_cofinitary,
)
from cofinitary.evaluation import Assignment, PartialMap, fix_points, fix_sets, fix_table
from cofinitary.poset import (
    DISCIPLINES,
    Condition,
    PosetMode,
    add_words,
    frozen_value,
    leq,
    validate,
)
from cofinitary.words import (
    INVERSE,
    Letter,
    Word,
    conjugate_core,
    conjugate_decompose,
    format_word,
    invert,
    is_hat,
    parse_word,
    reduced_letters,
    reduced_words,
)
from relational_reference import relational_eval
from word_reference import concat

GENS = (0, 1, 2, 3)


def reference_verify_cofinitary(report: BuildReport) -> list[str]:
    """The verifier before the fix table, verbatim but for the ambient
    ground it no longer has and the validate findings that now lead a
    cofinitary list: one fix_points call and one conjugate_decompose per
    word, and the other modes' frozen values from the build's own
    poset.frozen_value."""
    s = report.final.s
    memo: dict[Word, frozenset[int]] = {}

    def fix(w: Word) -> frozenset[int]:
        points = memo.get(w)
        if points is None:
            points = memo[w] = fix_points(w, s).points
        return points

    violations = []
    earlier: list[Word] = []
    for w, (stage, recorded) in sorted(report.frozen_fix.items(), key=lambda kv: kv[1][0]):
        if DISCIPLINES[report.mode].shape == "hat":
            now = fix(w)
        else:
            now = frozen_value(report.mode, s, w, earlier)
        earlier.append(w)
        if now != recorded:
            violations.append(
                f"{format_word(w)}: frozen at stage {stage} with {sorted(recorded)}, "
                f"final {sorted(now)}"
            )
    if DISCIPLINES[report.mode].shape == "hat":
        violations = validate(report.final) + violations
        for w in reduced_words(sorted(set(report.generators)), report.word_budget, min_len=1):
            points = fix(w)
            _, core = conjugate_decompose(w)
            core_points = fix(core)
            if len(points) != len(core_points):
                violations.append(
                    f"{format_word(w)}: |fix| = {len(points)} but its core "
                    f"{format_word(core)} has {len(core_points)}"
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


def _random_injections(rng: random.Random, gens, values: int) -> Assignment:
    """Dense random partial injections on range(values)."""
    table = {}
    for g in gens:
        dom = rng.sample(range(values), rng.randrange(values + 1))
        table[g] = PartialMap(frozenset(zip(dom, rng.sample(range(values), len(dom)))))
    return Assignment(table)


def _table_matches(s: Assignment, gens=GENS, max_len: int = 4) -> int:
    """Check the table against fix_points on every reduced word over gens;
    returns how many words had a nonempty fix set."""
    table = fix_table(gens, max_len, s)
    words = reduced_words(gens, max_len, min_len=1)
    nonempty = 0
    for w in words:
        assert table[w.letters] == fix_points(w, s).points, format_word(w)
        nonempty += bool(table[w.letters])
    assert len(table) == len(words)
    return nonempty


@pytest.mark.parametrize("seed", [3, 5])
def test_table_equals_fix_points_on_wide_builds(seed):
    s = _wide(seed).final.s
    assert _table_matches(s) > 0


def test_table_equals_fix_points_on_non_injective_maps():
    rng = random.Random(11)
    nonempty = clashes = 0
    for _ in range(12):
        s = _random_maps(rng, GENS, rng.randrange(1, 9), 6)
        clashes += sum(not (pm.is_injective() and pm.is_functional()) for pm in s.table.values())
        nonempty += _table_matches(s)
    assert nonempty > 100 and clashes > 20


def test_table_of_an_empty_assignment_and_of_length_zero():
    table = fix_table((0, 1), 2, Assignment())
    assert len(table) == 4 + 4 * 3 and not any(table.values())
    assert fix_table((0, 1), 0, Assignment()) == {}


def test_a_word_budget_past_the_recursion_limit_walks_the_trie():
    # a 7-cycle fixes every point under g0^k and g0^-k exactly when 7
    # divides k; the trie walk keeps its own stack
    s = Assignment({0: PartialMap(frozenset((i, (i + 1) % 7) for i in range(7)))})
    with recursion_headroom(50):
        table = fix_table([0], 200, s)
    assert len(table) == 400
    for letters, points in table.items():
        assert points == (frozenset(range(7)) if len(letters) % 7 == 0 else frozenset())


def test_fix_sets_of_any_word_list_equal_fix_points():
    # lists that share suffixes, hold a word with some of its suffixes, and
    # repeat words, over maps that are partial injections or not
    rng = random.Random(12)
    words = [w.letters for w in reduced_words((0, 1, 2), 5, min_len=1)]
    nonempty = 0
    for trial in range(30):
        if trial % 2:
            s = _random_maps(rng, (0, 1, 2), rng.randrange(1, 8), 5)
        else:
            s = _random_injections(rng, (0, 1, 2), 5)
        chosen = rng.sample(words, 60)
        chosen += [w[i:] for w in chosen[:20] for i in range(1, len(w))] + chosen[:5]
        table = fix_sets(chosen, s)
        assert set(table) == set(chosen)
        for letters in chosen:
            assert table[letters] == fix_points(Word(letters), s).points, letters
            nonempty += bool(table[letters])
    assert nonempty > 200
    assert fix_sets([], Assignment()) == {}
    with pytest.raises(ValueError, match="empty word"):
        fix_sets([(Letter(0, 1),), ()], Assignment())


# -- the conjugation identity behind the containment check -------------------


def _relational_fix(letters: tuple[Letter, ...], s: Assignment) -> frozenset[int]:
    return frozenset(n for n, m in relational_eval(Word(letters), s) if n == m)


def _range(a: Letter, s: Assignment) -> frozenset[int]:
    """ran a from the pair set: the values of g for a = g, its domain for
    a = g^-1."""
    pairs = s.get(a.gen).pairs
    return frozenset(m if a.sign == 1 else n for n, m in pairs)


def _conjugates(letters: tuple[Letter, ...], gens):
    """The letters a with a^-1 w' a reduced, w' the word with `letters`."""
    return [
        a for a in (Letter(g, e) for g in gens for e in (1, -1))
        if a != letters[0] and a != INVERSE[letters[-1]]
    ]


def test_conjugating_keeps_the_fix_points_in_the_conjugators_range():
    # On partial injections, eval_word applies a first, so
    # Fix(a^-1 w' a) = a^-1(Fix(w') & ran a), brute-forced by relational
    # composition of the pair sets
    rng = random.Random(21)
    gens = (0, 1, 2)
    shorter = 0
    for _ in range(40):
        s = _random_injections(rng, gens, 6)
        for w in reduced_words(gens, 3, min_len=1):
            fix = _relational_fix(w.letters, s)
            for a in _conjugates(w.letters, gens):
                conjugate = (INVERSE[a],) + w.letters + (a,)
                inside = fix & _range(a, s)
                pairs = s.get(a.gen).pairs  # a^-1 as a dict, from the pair set
                back = {m: n for n, m in pairs} if a.sign == 1 else dict(pairs)
                fixed = _relational_fix(conjugate, s)
                assert fixed == {back[m] for m in inside} and len(fixed) == len(inside)
                shorter += len(inside) < len(fix)
    assert shorter > 100


def test_the_identity_fails_on_a_map_that_is_no_injection():
    # g0 sends 1 and 2 onto 5; w' = g1 fixes both, and both lie in the range
    # of a = g0^-1, yet g0 g1 g0^-1 fixes only 5: the reason validate's
    # findings send the verifier to the full walk
    s = Assignment({
        0: PartialMap(frozenset({(1, 5), (2, 5)})),
        1: PartialMap(frozenset({(1, 1), (2, 2)})),
    })
    a, w = Letter(0, -1), (Letter(1, 1),)
    conjugate = (INVERSE[a],) + w + (a,)
    assert _relational_fix(w, s) == {1, 2} <= _range(a, s)
    assert _relational_fix(conjugate, s) == {5}
    assert fix_points(Word(conjugate), s).points == {5}


def test_the_containment_check_holds_exactly_when_the_law_does():
    # the induction of verify_cofinitary's docstring, on random partial
    # injections: the check on words two letters shorter than the budget
    # passes exactly when the full walk finds no violation
    rng = random.Random(22)
    gens = (0, 1, 2)
    seen = {True: 0, False: 0}
    for _ in range(60):
        s = _random_injections(rng, gens, rng.randrange(3, 7))
        for max_len in (1, 2, 3, 4):
            holds = _conjugates_keep_fix(gens, max_len, s)
            assert holds == (not _conjugation_law(gens, max_len, s))
            seen[holds] += 1
    assert min(seen.values()) > 30


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


def _both(report: BuildReport) -> list[str]:
    new = verify_cofinitary(report)
    assert new == reference_verify_cofinitary(report)
    return new


def test_clean_builds_agree_in_every_mode():
    assert _both(build(PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7)) == []
    assert _both(_wide(3)) == []
    for mode in (PosetMode.ADP, PosetMode.EDF, PosetMode.MAD):
        report = build(
            mode, [0, 1, 2], point_budget=20, word_budget=DISCIPLINES[mode].word_budget, seed=4
        )
        assert _both(report) == []


def _with_final_s(report: BuildReport, s: Assignment) -> BuildReport:
    return BuildReport(
        Condition(s, report.final.words, report.mode),
        report.goal_log, report.frozen_fix,
        report.mode, report.generators, report.point_budget, report.word_budget, report.seed,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", [PosetMode.ADP, PosetMode.EDF, PosetMode.MAD])
def test_corrupted_variant_builds_are_reported_alike(mode, seed):
    # the verifier's own agreement sets and common 1-sets against the
    # build's poset.frozen_value, on final maps with pairs dropped and
    # added (some maps then take two values at a point): the same
    # violations in the same order
    report = build(
        mode, [0, 1, 2, 3], point_budget=30, word_budget=DISCIPLINES[mode].word_budget, seed=seed
    )
    rng = random.Random(seed)
    values = (0, 1) if mode is PosetMode.MAD else range(30)
    table = {}
    for g, pm in report.final.s.table.items():
        pairs = sorted(pm.pairs)
        rng.shuffle(pairs)
        pairs = set(pairs[5:]) | {(rng.randrange(30), rng.choice(values)) for _ in range(8)}
        table[g] = PartialMap(frozenset(pairs))
    assert _both(_with_final_s(report, Assignment(table)))


def test_a_moved_frozen_fix_set_is_reported_alike():
    # g1 gains the fixed point n and stays a partial injection: the point k
    # it sent onto n now goes to m, n's old value
    report = build(PosetMode.COFINITARY, [0, 1, 2], point_budget=10, word_budget=3, seed=1)
    pm = report.final.s.get(1)
    n, m = min(p for p in pm.pairs if p[0] != p[1])
    k = pm.rev[n]
    pairs = pm.pairs - {(n, m), (k, n)} | {(n, n), (k, m)}
    s = Assignment({**report.final.s.table, 1: PartialMap(pairs)})
    assert s.get(1).injection
    violations = _both(_with_final_s(report, s))
    # the class of g1 is frozen by g1^-1, the least word in it
    assert any(v.startswith("g1^-1: frozen at stage") for v in violations)


@pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_drawn_builds_agree_at_every_length(max_len, seed):
    report = build(PosetMode.COFINITARY, [0, 1, 2], point_budget=16, word_budget=max_len, seed=seed)
    assert _both(report) == []


def test_a_build_with_a_frozen_word_longer_than_the_budget_agrees():
    longer = parse_word("g0^2 g1 g2^-1 g1")
    report = build(
        PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7,
        extra_goals=[DenseGoal("freeze", word=longer)],
    )
    assert longer in report.frozen_fix and _both(report) == []
    stage, fix = report.frozen_fix[longer]
    report.frozen_fix[longer] = (stage, fix | {max(report.final.s.summary()[0]) + 1})
    violations = _both(report)
    assert len(violations) == 1 and violations[0].startswith("g0^2 g1 g2^-1 g1: frozen at")


def test_a_corrupted_frozen_value_is_reported_alike():
    report = build(PosetMode.COFINITARY, [0, 1, 2], point_budget=16, word_budget=4, seed=3)
    w = max(report.frozen_fix, key=Word.sort_key)
    stage, fix = report.frozen_fix[w]
    report.frozen_fix[w] = (stage, fix ^ {0})
    violations = _both(report)
    assert violations == [
        f"{format_word(w)}: frozen at stage {stage} with {sorted(fix ^ {0})}, final {sorted(fix)}"
    ]


def _bare_report(s: Assignment, word_budget: int) -> BuildReport:
    """A cofinitary report of s over generators 0 and 1 with no frozen word."""
    return BuildReport(
        Condition(s, frozenset(), PosetMode.COFINITARY), [], {},
        PosetMode.COFINITARY, (0, 1), 2, word_budget, 0,
    )


def test_a_fixed_point_outside_a_conjugators_range_is_reported_alike():
    # g0 swaps 0 and 1, so g0^2 fixes both, but no word of length 3 fixes a
    # point.  Both lie outside ran g1 = {3}, so conjugating g0^2 by g1 loses
    # them: the containment fails at length 2, below the length (3) of the
    # longest words the check reads at budget 5
    s = Assignment({
        0: PartialMap(frozenset({(0, 1), (1, 0)})),
        1: PartialMap(frozenset({(2, 3)})),
    })
    assert not any(fix_table((0, 1), 3, s)[w.letters] for w in reduced_words((0, 1), 3, 3))
    assert not _conjugates_keep_fix((0, 1), 5, s)
    violations = _both(_bare_report(s, 5))
    assert violations and all("but its core" in v for v in violations)
    assert "g1^-1 g0^2 g1: |fix| = 0 but its core g0^2 has 2" in violations


def test_a_map_that_is_no_injection_is_reported_first_and_walks_every_word():
    # g0 sends 1 and 2 onto 1.  Every containment holds, but the law fails
    # through g0^-1, which keeps only 2 as 1's preimage: validate's finding
    # alone sends the verifier to the full walk
    s = Assignment({
        0: PartialMap(frozenset({(1, 1), (2, 1)})),
        1: PartialMap(frozenset({(1, 1)})),
    })
    assert _conjugates_keep_fix((0, 1), 3, s)
    assert _both(_bare_report(s, 3)) == [
        "map for g0 is not injective",
        "g0 g1 g0^-1: |fix| = 0 but its core g1 has 1",
        "g0 g1^-1 g0^-1: |fix| = 0 but its core g1^-1 has 1",
    ]


def test_a_broken_conjugation_law_alone_is_reported_alike():
    # the report lists a third generator with no frozen word; its map has a
    # fixed point outside the image of g0, which conjugating by g0 loses
    report = build(PosetMode.COFINITARY, [0, 1], point_budget=6, word_budget=3, seed=2)
    k = max(report.final.s.summary()[0]) + 1
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
