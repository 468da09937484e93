"""The fixed-point kernel against the references it replaces.

`fix_points` walks each start candidate once; the reference computes the
exact domain by walking every candidate and then walks the domain a second
time.  `verify_cofinitary` reads the frozen words' fix sets from one walk
of their own trie per call; its violation lists on corrupted builds were
recorded when it still read every fix set from fix_points.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from cofinitary import builder, evaluation, poset
from cofinitary.builder import DenseGoal, build, verify_cofinitary
from cofinitary.evaluation import (
    Assignment,
    PartialMap,
    eval_domain,
    eval_word,
    fix_points,
)
from cofinitary.poset import DISCIPLINES, Condition, PosetMode
from cofinitary.sampling import sample_condition
from cofinitary.words import hat_words, parse_word, reduced_words
from relational_reference import relational_eval


def _two_walks(w, s) -> frozenset[int]:
    """The kernel as it was: the exact domain, then a second walk of it."""
    return frozenset(n for n in eval_domain(w, s) if eval_word(w, s, n) == n)


def _relational(w, s) -> frozenset[int]:
    return frozenset(n for n, m in relational_eval(w, s) if n == m)


def _random_injections(rng: random.Random, gens, pairs: int, values: int) -> Assignment:
    table = {}
    for g in gens:
        dom = rng.sample(range(values), rng.randrange(pairs + 1))
        img = rng.sample(range(values), len(dom))
        table[g] = PartialMap(frozenset(zip(dom, img)))
    return Assignment(table)


class TestKernel:
    def test_reduced_words_on_random_injections(self):
        # dense small maps, so that many walks close up into fixed points
        rng = random.Random(41)
        words = reduced_words([0, 1, 2], 4, min_len=1)
        nonempty = 0
        for _ in range(25):
            s = _random_injections(rng, [0, 1, 2], 6, 7)
            for w in words:
                fast = fix_points(w, s)
                assert fast.exact
                assert fast.points == _two_walks(w, s) == _relational(w, s)
                nonempty += bool(fast.points)
        assert nonempty > 1000

    def test_hat_words_on_sampled_conditions(self):
        rng = random.Random(42)
        words = hat_words([0, 1, 2], 4)
        for _ in range(20):
            p = sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2], max_pairs=6, max_words=4)
            for w in words:
                fast = fix_points(w, p.s).points
                assert fast == _two_walks(w, p.s) == _relational(w, p.s)

def _seed7():
    return build(PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7)


def _with_map(report, s: Assignment):
    report.final = Condition(s, report.final.words, report.final.mode)
    return report


def _fresh_fixed_point():
    """g0 gains a fresh fixed point: every frozen power of g0 breaks, and so
    do the conjugates of g0 that cannot reach the new point."""
    report = _seed7()
    k = max(report.final.s.summary()[0]) + 1
    return _with_map(report, report.final.s.with_pair(0, k, k))


def _point_onto_a_fixed_point():
    """g1 also sends a fresh point onto the least fixed point of g0."""
    report = _seed7()
    s = report.final.s
    x = min(fix_points(parse_word("g0"), s).points)
    return _with_map(report, s.with_pair(1, max(s.summary()[0]) + 1, x))


def _dropped_pair():
    """g1 loses the pair that lands on the least fixed point of g0."""
    report = _seed7()
    s = report.final.s
    x = min(fix_points(parse_word("g0"), s).points)
    table = dict(s.table)
    table[1] = PartialMap(frozenset(p for p in s.get(1).pairs if p[1] != x))
    return _with_map(report, Assignment(table))


def _wrong_record():
    """The recorded fix set of one frozen word (the class of g1 g2) gains a
    point."""
    report = _seed7()
    w = parse_word("g1^-1 g2^-1")
    stage, fix = report.frozen_fix[w]
    report.frozen_fix[w] = (stage, fix | {999})
    return report


# (violations, from the frozen law, from the conjugation law, SHA-256 of the
# JSON list), recorded with the verifier that recomputed every fix set, and
# re-recorded when a build came to freeze one word per class: the frozen
# law then reads 3 / 16 / 23 classes where it read 6 / 51 / 102 words, the
# conjugation law is unchanged, and the map of g1 that _point_onto_a_fixed_point
# makes non-injective leads its list (validate)
RECORDED = {
    _fresh_fixed_point: (
        11, 3, 8, "631bd131b67f97f3e90b6ddad1407dbe206d0bbf93d4e26471b3f20178dc85f1"
    ),
    _point_onto_a_fixed_point: (
        21, 16, 4, "e7b5857bf3378b302faa1ba34d2bf324ddbd2417f21d5a5ff814680d6c21e36e"
    ),
    _dropped_pair: (
        31, 23, 8, "62b70f51052871d8ab9f087c2f781c1b906a056cece37589806e1dde7cd6f61c"
    ),
    _wrong_record: (
        1, 1, 0, "9ffd480c9b3860034a143844c02d8c1a52dd473d2179ad5c08c7345af8a7404c"
    ),
}


class TestVerifierGuard:
    @pytest.mark.parametrize("corrupt", list(RECORDED), ids=lambda f: f.__name__.strip("_"))
    def test_violations_as_recorded(self, corrupt):
        violations = verify_cofinitary(corrupt())
        frozen = sum("frozen at stage" in v for v in violations)
        core = sum("but its core" in v for v in violations)
        digest = hashlib.sha256(json.dumps(violations).encode()).hexdigest()
        assert (len(violations), frozen, core, digest) == RECORDED[corrupt]

    def test_a_map_that_is_no_injection_leads_the_list(self):
        # one frozen word stands for its class only on partial injections
        violations = verify_cofinitary(_point_onto_a_fixed_point())
        assert violations[0] == "map for g1 is not injective"
        assert not any("injective" in v for v in violations[1:])

    @pytest.mark.parametrize("mode", [PosetMode.ADP, PosetMode.EDF, PosetMode.MAD])
    def test_variants_verify_clean(self, mode):
        report = build(
            mode, [0, 1, 2, 3], point_budget=40, word_budget=DISCIPLINES[mode].word_budget, seed=7
        )
        assert verify_cofinitary(report) == []

    def test_one_fix_set_per_word(self, intercept, monkeypatch):
        # the frozen words come from one walk of their own trie, a frozen
        # word longer than the word budget among them, so fix_points is
        # asked for none; each frozen word is walked once
        asked = Counter()
        walked = []
        walk = builder.fix_sets

        def counting(w, s):
            asked[w] += 1
            return fix_points(w, s)

        def recording_walk(words, s):
            walked.append(list(words))
            return walk(walked[-1], s)

        report = _seed7()
        longer = parse_word("g0^2 g1 g2")
        frozen_longer = build(
            PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7,
            extra_goals=[DenseGoal("freeze", word=longer)],
        )
        intercept(poset, evaluation, fix_points=counting)
        monkeypatch.setattr(builder, "fix_sets", recording_walk)
        assert verify_cofinitary(report) == [] and not asked
        assert verify_cofinitary(frozen_longer) == [] and not asked
        assert [sorted(words) for words in walked] == [
            sorted(w.letters for w in r.frozen_fix) for r in (report, frozen_longer)
        ]
        assert longer.letters in walked[1]
