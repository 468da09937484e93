"""The fixed-point kernel against the references it replaces.

`fix_points` walks each start candidate once; the reference computes the
exact domain by walking every candidate and then walks the domain a second
time.  `verify_cofinitary` reads every fix set from one fix table per call
(and a memo for a frozen word the table lacks); its violation lists on
corrupted builds were recorded before the memo existed.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from cofinitary import builder, poset
from cofinitary.builder import DenseGoal, build, build_variant_family, verify_cofinitary
from cofinitary.evaluation import (
    Assignment,
    PartialMap,
    eval_domain,
    eval_word,
    fix_points,
    relational_eval,
)
from cofinitary.poset import Condition, PosetMode
from cofinitary.sampling import sample_condition
from cofinitary.words import hat_words, parse_word, reduced_words


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
    k = max(report.final.s.all_values()) + 1
    return _with_map(report, report.final.s.with_pair(0, k, k))


def _point_onto_a_fixed_point():
    """g1 also sends a fresh point onto the least fixed point of g0."""
    report = _seed7()
    s = report.final.s
    x = min(fix_points(parse_word("g0"), s).points)
    return _with_map(report, s.with_pair(1, max(s.all_values()) + 1, x))


def _dropped_pair():
    """g1 loses the pair that lands on the least fixed point of g0."""
    report = _seed7()
    s = report.final.s
    x = min(fix_points(parse_word("g0"), s).points)
    table = dict(s.table)
    table[1] = PartialMap(frozenset(p for p in s.get(1).pairs if p[1] != x))
    return _with_map(report, Assignment(table))


def _wrong_record():
    """The recorded fix set of one frozen word gains a point."""
    report = _seed7()
    w = parse_word("g1 g2")
    stage, fix = report.frozen_fix[w]
    report.frozen_fix[w] = (stage, fix | {999})
    return report


# (violations, from the frozen law, from the conjugation law, SHA-256 of the
# JSON list), recorded with the verifier that recomputed every fix set
RECORDED = {
    _fresh_fixed_point: (
        14, 6, 8, "ddbdf65b7d070b180dcb02bc3e2c619cf33b8513377a7c836bde0786f7c51209"
    ),
    _point_onto_a_fixed_point: (
        55, 51, 4, "c8ce4b58e4dc9e5da0a2bb6175a034a8f9aa523528850d9f22cfead787cec355"
    ),
    _dropped_pair: (
        110, 102, 8, "3a7f51beb6b8e89f3d7b6f1a8394a00b8eb06644d54e9887e7c046bdb39ebb67"
    ),
    _wrong_record: (
        1, 1, 0, "c7f7b2d4e754da3a20e9070eeb0e7411c3726b60173447ee75b8451dcda0bedb"
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

    @pytest.mark.parametrize("mode", [PosetMode.ADP, PosetMode.EDF, PosetMode.MAD])
    def test_variants_verify_clean(self, mode):
        assert verify_cofinitary(build_variant_family(mode, [0, 1, 2, 3], 40, seed=7)) == []

    def test_one_fix_set_per_word(self, monkeypatch):
        # the words up to the word budget come from the fix table; only a
        # frozen word longer than that is asked of fix_points, and only once
        asked = Counter()

        def counting(w, s):
            asked[w] += 1
            return fix_points(w, s)

        report = _seed7()
        longer = parse_word("g0^2 g1 g2")
        frozen_longer = build(
            PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7,
            extra_goals=[DenseGoal("freeze", word=longer)],
        )
        monkeypatch.setattr(builder, "fix_points", counting)
        monkeypatch.setattr(poset, "fix_points", counting)
        assert verify_cofinitary(report) == [] and not asked
        assert verify_cofinitary(frozen_longer) == []
        assert asked == {longer: 1}
