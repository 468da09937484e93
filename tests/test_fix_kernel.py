"""The fixed-point kernel against the references it replaces.

`fix_points` walks each start candidate once; the reference computes the
exact domain by walking every candidate and then walks the domain a second
time.  `verify_cofinitary` reads every fix set from one fix table per call
(and a memo for words with an ambient letter); its violation lists on
corrupted builds were recorded before the memo existed.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from cofinitary import builder, poset
from cofinitary.builder import build, build_variant_family, verify_cofinitary
from cofinitary.evaluation import (
    Assignment,
    EMPTY_GROUND,
    GroundPermutation,
    GroundRep,
    PartialMap,
    eval_word,
    exact_domain,
    fix_points,
    relational_eval,
    table_over_zshift,
    zshift,
)
from cofinitary.poset import Condition, PosetMode
from cofinitary.sampling import sample_condition
from cofinitary.words import hat_words, occurrences, parse_word, reduced_words

AMBIENT = 7
GROUNDS = {
    "plain": EMPTY_GROUND,
    "zshift": GroundRep({AMBIENT: zshift()}),
    # 0 is a fixed point of the patched shift; 1 goes where the shift sends 0
    "table": GroundRep({AMBIENT: table_over_zshift({0: 0, 1: 2})}),
}


def _two_walks(w, s, ground) -> frozenset[int]:
    """The kernel as it was: the exact domain, then a second walk of it."""
    return frozenset(n for n in exact_domain(w, s, ground) if eval_word(w, s, ground, n) == n)


def _relational(w, s) -> frozenset[int]:
    return frozenset(n for n, m in relational_eval(w, s) if n == m)


def _random_injections(rng: random.Random, gens, pairs: int, values: int) -> Assignment:
    table = {}
    for g in gens:
        dom = rng.sample(range(values), rng.randrange(pairs + 1))
        img = rng.sample(range(values), len(dom))
        table[g] = PartialMap(frozenset(zip(dom, img)))
    return Assignment(table)


def _finite_letter(w, ground) -> bool:
    return bool(occurrences(w) - ground.generators())


class TestKernel:
    def test_reduced_words_on_random_injections(self):
        # dense small maps, so that many walks close up into fixed points
        rng = random.Random(41)
        words = reduced_words([0, 1, 2], 4, min_len=1)
        nonempty = 0
        for _ in range(25):
            s = _random_injections(rng, [0, 1, 2], 6, 7)
            for w in words:
                fast = fix_points(w, s, EMPTY_GROUND)
                assert fast.exact and fast.horizon is None and not fast.cofinite
                assert fast.points == _two_walks(w, s, EMPTY_GROUND) == _relational(w, s)
                nonempty += bool(fast.points)
        assert nonempty > 1000

    def test_hat_words_on_sampled_conditions(self):
        rng = random.Random(42)
        words = hat_words([0, 1, 2], 4)
        for _ in range(20):
            p = sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2], max_pairs=6, max_words=4)
            for w in words:
                fast = fix_points(w, p.s, EMPTY_GROUND).points
                assert fast == _two_walks(w, p.s, EMPTY_GROUND) == _relational(w, p.s)

    @pytest.mark.parametrize("ground", ["zshift", "table"])
    def test_mixed_words_under_a_ground(self, ground):
        ground = GROUNDS[ground]
        rng = random.Random(f"kernel-{ground.table[AMBIENT].name}")
        alphabet = [0, 1, AMBIENT]
        words = [w for w in reduced_words(alphabet, 4, min_len=1) if _finite_letter(w, ground)]
        mixed = [w for w in words if AMBIENT in occurrences(w)]
        assert len(mixed) > len(words) // 2
        found = 0
        for _ in range(12):
            p = sample_condition(
                rng, PosetMode.COFINITARY, [0, 1], max_pairs=6, max_words=3, ground=ground
            )
            s = Assignment({**p.s.table, **_random_injections(rng, [2], 5, 8).table})
            for w in words + [parse_word(f"g2 g{AMBIENT}^-1 g2^-1 g{AMBIENT}")]:
                fast = fix_points(w, s, ground)
                assert fast.exact and fast.points == _two_walks(w, s, ground)
                found += bool(fast.points)
        assert found

    def test_horizon_and_shift_branches_unchanged(self):
        ground = GROUNDS["table"]
        assert fix_points(parse_word(f"g{AMBIENT}"), Assignment(), ground).points == {0}
        res = fix_points(parse_word(f"g{AMBIENT} g{AMBIENT}^-1 g0"), Assignment(), ground)
        assert res.points == frozenset()
        flip = GroundPermutation(lambda n: n ^ 1, lambda n: n ^ 1, scan_horizon=10)
        res = fix_points(parse_word("g3"), Assignment(), GroundRep({3: flip}))
        assert res.points == frozenset() and not res.exact and res.horizon == 10


def _seed7():
    return build(PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7)


def _with_map(report, s: Assignment):
    report.final = Condition(s, report.final.words, report.final.mode, report.final.ground)
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
    x = min(fix_points(parse_word("g0"), s, EMPTY_GROUND).points)
    return _with_map(report, s.with_pair(1, max(s.all_values()) + 1, x))


def _dropped_pair():
    """g1 loses the pair that lands on the least fixed point of g0."""
    report = _seed7()
    s = report.final.s
    x = min(fix_points(parse_word("g0"), s, EMPTY_GROUND).points)
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


def _ambient_fixed_point():
    ground = GroundRep({AMBIENT: zshift()})
    report = build(PosetMode.COFINITARY, [0], ground, point_budget=4, word_budget=2, seed=2)
    k = max(report.final.s.all_values()) + 1
    return _with_map(report, report.final.s.with_pair(0, k, k))


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
    _ambient_fixed_point: (
        4, 4, 0, "f09ee41e4a267fdff6dd2381bd1e34af463741a281a4c186f23be6f4a95a359d"
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

    def test_horizon_limited_frozen_word_raises(self):
        report = _seed7()
        flip = GroundPermutation(lambda n: n ^ 1, lambda n: n ^ 1, scan_horizon=10)
        report.frozen_fix[parse_word("g3")] = (0, frozenset())
        final = report.final
        report.final = Condition(final.s, final.words, final.mode, GroundRep({3: flip}))
        with pytest.raises(ValueError, match="fix set of g3 is horizon-limited"):
            verify_cofinitary(report)

    @pytest.mark.parametrize("mode", [PosetMode.ADP, PosetMode.EDF, PosetMode.MAD])
    def test_variants_verify_clean(self, mode):
        assert verify_cofinitary(build_variant_family(mode, [0, 1, 2, 3], 40, seed=7)) == []

    def test_one_fix_set_per_word(self, monkeypatch):
        # the words over finite generators come from the fix table; only a
        # word with an ambient letter is asked of fix_points, and only once
        asked = Counter()

        def counting(w, s, ground):
            asked[w] += 1
            return fix_points(w, s, ground)

        report = _seed7()
        ground = GroundRep({AMBIENT: zshift()})
        ambient = build(PosetMode.COFINITARY, [0], ground, point_budget=4, word_budget=2, seed=2)
        monkeypatch.setattr(builder, "fix_points", counting)
        monkeypatch.setattr(poset, "fix_points", counting)
        assert verify_cofinitary(report) == [] and not asked
        assert verify_cofinitary(ambient) == []
        mixed = [w for w in reduced_words([0, AMBIENT], 2, min_len=1) if occurrences(w) == {0, AMBIENT}]
        assert set(asked) == set(mixed) and max(asked.values()) == 1
