import random

import pytest

from cofinitary.evaluation import Assignment, PartialMap, eval_domain, eval_word
from cofinitary import poset
from cofinitary.poset import (
    Condition,
    PosetMode,
    add_words,
    leq,
    merge_disjoint,
    restrict,
    strong_restrict,
    validate,
)
from cofinitary.sampling import sample_condition, sample_extension
from cofinitary.words import parse_word


def _contains(s, t) -> bool:
    """Every pair of the assignment t is a pair of s."""
    return all(pm.pairs <= s.get(g).pairs for g, pm in t.table.items())


def pmap(*pairs):
    return PartialMap(frozenset(pairs))


def cond(pairs_by_gen, words, mode=PosetMode.COFINITARY):
    return Condition(
        Assignment({g: pmap(*ps) for g, ps in pairs_by_gen.items()}),
        frozenset(parse_word(t) for t in words),
        mode,
    )


def brute_leq(p: Condition, q: Condition) -> bool:
    """Oracle: compare exact fixed point sets of every frozen word."""
    if not _contains(p.s, q.s) or not (p.words >= q.words):
        return False
    for w in q.sorted_words():
        dom_p = eval_domain(w, p.s)
        fix_p = {n for n in dom_p if eval_word(w, p.s, n) == n}
        dom_q = eval_domain(w, q.s)
        fix_q = {n for n in dom_q if eval_word(w, q.s, n) == n}
        if not fix_p <= fix_q:
            return False
    return True


class TestValidate:
    def test_non_hat_word_rejected(self):
        c = cond({}, ["g0 g1 g0^-1"])
        assert any("hat" in v for v in validate(c))

    def test_non_injective_rejected_in_cofinitary(self):
        c = cond({0: [(0, 1), (1, 1)]}, [])
        assert any("injective" in v for v in validate(c))

    def test_non_injective_fine_in_edf(self):
        c = cond({0: [(0, 1), (1, 1)]}, [], PosetMode.EDF)
        assert validate(c) == []

    def test_pair_shape_enforced(self):
        c = cond({}, ["g0 g1"], PosetMode.ADP)
        assert validate(c)
        c2 = cond({}, ["g0 g1^-1"], PosetMode.ADP)
        assert validate(c2) == []

    def test_mad_values(self):
        c = cond({0: [(0, 2)]}, ["g0"], PosetMode.MAD)
        assert any("0,1" in v.replace("{", "").replace("}", "") for v in validate(c))
        c2 = cond({0: [(0, 1), (3, 0)]}, ["g0"], PosetMode.MAD)
        assert validate(c2) == []

class TestLeq:
    def test_cycle_has_no_fixed_point(self):
        q = cond({0: [(0, 1)]}, ["g0"])
        p = cond({0: [(0, 1), (1, 0)]}, ["g0"])
        assert leq(p, q)

    def test_new_fixed_point_fails(self):
        q = cond({}, ["g0"])
        p = cond({0: [(2, 2)]}, ["g0"])
        assert not leq(p, q)

    def test_superset_required(self):
        q = cond({0: [(0, 1)]}, ["g0"])
        assert not leq(cond({}, ["g0"]), q)
        assert not leq(cond({0: [(0, 1)]}, []), q)

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            leq(cond({}, []), cond({}, [], PosetMode.MAD))

    def test_matches_brute_force_oracle(self):
        rng = random.Random(23)
        for _ in range(500):
            q = sample_condition(rng, PosetMode.COFINITARY, [0, 1], max_pairs=4,
                                 max_words=3, value_range=10, word_len=3)
            if rng.random() < 0.5:
                p = sample_extension(rng, q)
            else:
                # haphazard superset, not built through the machinery
                s = q.s
                for _ in range(rng.randrange(3)):
                    g = rng.choice([0, 1])
                    n, m = rng.randrange(10), rng.randrange(10)
                    if n not in s.get(g).domain() and m not in s.get(g).image():
                        s = s.with_pair(g, n, m)
                p = Condition(s, q.words, q.mode)
            assert leq(p, q) == brute_leq(p, q), (p.to_json(), q.to_json())

    def test_reflexive_transitive_on_chains(self):
        rng = random.Random(31)
        for _ in range(1000):
            q = sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2], max_pairs=3)
            assert leq(q, q)
            mid = sample_extension(rng, q)
            top = sample_extension(rng, mid)
            assert leq(mid, q) and leq(top, mid)
            assert leq(top, q)

    def test_mad_intersection_freezing(self):
        q = cond({0: [(0, 1)], 1: [(0, 1)]}, ["g0", "g1"], PosetMode.MAD)
        ok = Condition(q.s.with_pair(0, 5, 1).with_pair(1, 5, 0), q.words, q.mode)
        assert leq(ok, q)
        bad = Condition(q.s.with_pair(0, 5, 1).with_pair(1, 5, 1), q.words, q.mode)
        assert not leq(bad, q)

    def test_edf_agreement_freezing(self):
        q = cond({0: [(0, 3)], 1: [(0, 4)]}, ["g0 g1^-1"], PosetMode.EDF)
        ok = Condition(q.s.with_pair(0, 1, 5).with_pair(1, 1, 6), q.words, q.mode)
        assert leq(ok, q)
        bad = Condition(q.s.with_pair(0, 1, 5).with_pair(1, 1, 5), q.words, q.mode)
        assert not leq(bad, q)
        # reusing an old common value at a new point is still a new agreement
        base = cond({0: [(0, 3)], 1: [(0, 3)]}, ["g0 g1^-1"], PosetMode.EDF)
        sneak = Condition(base.s.with_pair(0, 9, 3).with_pair(1, 9, 3), base.words, base.mode)
        assert not leq(sneak, base)


class TestRestrict:
    def test_example(self):
        p = cond({0: [(0, 1)], 2: [(2, 3)]}, ["g0 g2"])
        weak = restrict(p, {0})
        strong = strong_restrict(p, {0})
        assert weak == cond({0: [(0, 1)]}, ["g0 g2"])
        assert strong == cond({0: [(0, 1)]}, [])

    def test_full_alphabet_identity(self):
        p = cond({0: [(0, 1)], 2: [(2, 3)]}, ["g0 g2"])
        assert restrict(p, {0, 2}) == p
        assert strong_restrict(p, {0, 2}) == p

    def test_weak_below_strong(self):
        rng = random.Random(5)
        for _ in range(100):
            p = sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2])
            keep = frozenset(rng.sample([0, 1, 2], rng.randrange(4)))
            assert leq(restrict(p, keep), strong_restrict(p, keep))

    def test_monotone_under_extension(self):
        rng = random.Random(6)
        for _ in range(100):
            q = sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2])
            p = sample_extension(rng, q)
            keep = frozenset(rng.sample([0, 1, 2], rng.randrange(4)))
            assert leq(strong_restrict(p, keep), strong_restrict(q, keep))

class TestMergeAndGrow:
    def test_disjoint_merge(self):
        p = cond({0: [(0, 1)]}, ["g0"])
        t = Assignment({2: pmap((5, 6))})
        merged = merge_disjoint(p, t)
        assert leq(merged, p)

    def test_overlap_rejected(self):
        p = cond({0: [(0, 1)]}, ["g0 g1"])
        with pytest.raises(ValueError):
            merge_disjoint(p, Assignment({1: pmap((5, 6))}))

    def test_merge_order_check_raises(self, monkeypatch):
        # the order check is a raise, not an assert, so it holds under -O too
        monkeypatch.setattr(poset, "leq", lambda *args: False)
        p = cond({0: [(0, 1)]}, ["g0"])
        with pytest.raises(ValueError, match="does not extend"):
            merge_disjoint(p, Assignment({2: pmap((5, 6))}))

    @pytest.mark.parametrize(
        "mode, words, bad",
        [
            (PosetMode.COFINITARY, ["g0"], [(5, 6), (7, 6)]),  # not injective
            (PosetMode.ADP, ["g0 g1^-1"], [(5, 6), (7, 6)]),
            (PosetMode.EDF, ["g0 g1^-1"], [(5, 6), (5, 7)]),  # not functional
            (PosetMode.MAD, ["g0"], [(5, 2)]),  # a value outside {0, 1}
        ],
        ids=["cofinitary", "adp", "edf", "mad"],
    )
    def test_merge_rejects_an_invalid_map(self, mode, words, bad):
        # every mode raises validate's message, also where the order kernel
        # would not notice the bad map
        p = cond({0: [(0, 1)]}, words, mode)
        t = Assignment({2: pmap(*bad)})
        want = "; ".join(validate(Condition(p.s.union(t), p.words, mode)))
        assert want
        with pytest.raises(ValueError) as err:
            merge_disjoint(p, t)
        assert str(err.value) == want

    def test_add_words(self):
        p = cond({0: [(0, 1)]}, ["g0"])
        grown = add_words(p, p.words | {parse_word("g0 g1^-1")})
        assert leq(grown, p)

    def test_add_words_requires_superset(self):
        p = cond({}, ["g0"])
        with pytest.raises(ValueError):
            add_words(p, frozenset({parse_word("g1")}))


class TestJson:
    def test_roundtrip(self):
        p = cond({0: [(0, 1), (4, 2)], 1: [(3, 3)]}, ["g0^2 g1", "g0"])
        assert Condition.from_json(p.to_json()) == p
