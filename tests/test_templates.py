import itertools

import pytest

from cofinitary import templates
from cofinitary.templates import (
    SignedValue,
    SurrogateParams,
    SurrogatePosition,
    build_surrogate_template,
    check_axioms,
    closure,
    depth,
    enumerate_positions,
    interval_finder,
    interval_nesting_failures,
    is_relevant,
    position_in_part1,
    position_wellformed,
    rank,
    restrict_template,
    template_from_parts,
)


def two_point_template():
    # elements p = 0 in part0, q = 1 in part1, p < q, family {{}, {p}, all}
    return template_from_parts([0, 1], [(0, 1)], [[], [0], [0, 1]], [0], [1])


class TestCheckAxioms:
    def test_two_point_ok(self):
        assert check_axioms(two_point_template()) == []

    def test_missing_singleton_breaks_clause_2(self):
        t = template_from_parts([0, 1], [(0, 1)], [[], [0, 1]], [0], [1])
        violations = check_axioms(t)
        assert any(v.clause == 2 for v in violations)

    def test_union_closure_violation(self):
        t = template_from_parts(
            [0, 1, 2],
            [(0, 1), (0, 2), (1, 2)],
            [[], [0], [1], [0, 1, 2]],  # {0} | {1} missing
            [0, 1],
            [2],
        )
        violations = check_axioms(t)
        assert any(v.clause == 1 for v in violations)

    def test_unclosed_member_breaks_clause_5(self):
        t = template_from_parts(
            [0, 1], [(0, 1)], [[], [0], [1], [0, 1]], [0], [1]
        )
        violations = check_axioms(t)
        assert any(v.clause == 5 for v in violations)  # {1} is not closed

    def test_cut_instability_breaks_clause_3(self):
        # 0 < 1 < 2, all in part1; {0, 2} cut at 1 gives {0}, which is missing
        els = [0, 1, 2]
        pairs = [(0, 1), (0, 2), (1, 2)]
        fam = [[], [0, 2], [0, 1], [0, 1, 2]]
        t = template_from_parts(els, pairs, fam, [], els)
        violations = check_axioms(t)
        assert any(v.clause == 3 for v in violations)

    def test_oversize_family_without_atoms_rejected(self):
        t = two_point_template()
        with pytest.raises(ValueError):
            check_axioms(t, pair_budget=1)

    def test_cyclic_order_rejected(self):
        # each pair is compared one way, but 0 < 1 < 2 < 0
        with pytest.raises(ValueError, match="not transitive"):
            template_from_parts([0, 1, 2], [(0, 1), (1, 2), (2, 0)], [[]], [], [0, 1, 2])

    def test_member_naming_a_non_element_rejected(self):
        with pytest.raises(ValueError, match="not an element"):
            template_from_parts([0, 1], [(0, 1)], [[], [0], [0, 5]], [0], [1])


class TestClosure:
    def test_empty(self):
        assert closure(two_point_template(), set()) == frozenset()

    def test_pulls_in_lower_part0(self):
        assert closure(two_point_template(), {1}) == {0, 1}

    def test_idempotent_monotone_exhaustive(self):
        # an 8-element template: alternating parts, chain order
        els = list(range(8))
        part0 = [x for x in els if x % 2 == 0]
        part1 = [x for x in els if x % 2 == 1]
        pairs = [(a, b) for a in els for b in els if a < b]
        t = template_from_parts(els, pairs, [[], els], part0, part1)
        subsets = [
            frozenset(c)
            for r in range(9)
            for c in itertools.combinations(els, r)
        ]
        for a in subsets:
            ca = closure(t, a)
            assert a <= ca
            assert closure(t, ca) == ca
        for a in subsets[:64]:
            for b in subsets[:64]:
                if a <= b:
                    assert closure(t, a) <= closure(t, b)


class TestDepthRank:
    def test_two_point(self):
        t = two_point_template()
        assert depth(t, frozenset({0})) == 0
        assert rank(t) == 1

    def test_part0_members_have_depth_zero(self):
        t = two_point_template()
        assert depth(t, frozenset()) == 0

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            depth(two_point_template(), frozenset({1}))

    def test_non_element_rejected(self):
        with pytest.raises(ValueError, match="not an element"):
            depth(two_point_template(), frozenset({0, 7}))

    def test_chain_family(self):
        els = [0, 1, 2, 3]
        pairs = [(a, b) for a in els for b in els if a < b]
        fam = [[], [0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]
        t = template_from_parts(els, pairs, fam, [], els)
        assert rank(t) == 4
        assert depth(t, frozenset({0, 1})) == 2

    def test_depth_strictly_monotone(self):
        t = build_surrogate_template(SurrogateParams((2,), 1)).order
        members = sorted(t.ideals, key=lambda a: (len(a), sorted(a)))
        for a in members:
            for b in members:
                if (a & t.part1) < (b & t.part1):
                    assert depth(t, a) < depth(t, b)

    def test_depth_matches_naive_recursion(self):
        def naive(t, a):
            if a & t.part1 == frozenset():
                return 0
            below = [
                b for b in t.ideals if (b & t.part1) < (a & t.part1)
            ]
            return max((naive(t, b) + 1 for b in below), default=0)

        small = build_surrogate_template(SurrogateParams((2,), 1)).order
        for a in sorted(small.ideals, key=sorted):
            assert depth(small, a) == naive(small, a)
        chain = template_from_parts(
            [0, 1, 2, 3],
            [(a, b) for a in range(4) for b in range(4) if a < b],
            [[], [0], [0, 1], [0, 1, 2], [0, 1, 2, 3]],
            [],
            [0, 1, 2, 3],
        )
        for a in sorted(chain.ideals, key=sorted):
            assert depth(chain, a) == naive(chain, a)


class TestRestrictTemplate:
    def test_identity(self):
        t = two_point_template()
        r = restrict_template(t, t.elements)
        assert r.ideals == t.ideals and rank(r) == rank(t)

    def test_member_restriction_rank_equals_depth(self):
        sur = build_surrogate_template(SurrogateParams((2, 3), 2))
        t = sur.order
        members = sorted(t.ideals, key=lambda a: (len(a), sorted(a)))
        for a in members[:: max(1, len(members) // 40)]:
            restrict_template(t, a)  # the rank equality is asserted inside

    def test_rank_check_raises(self, monkeypatch):
        # the check survives python -O: a mismatch raises, not asserts, and on
        # a template that meets the clauses it is a bug, not bad input
        t = two_point_template()
        monkeypatch.setattr(templates, "rank", lambda t: -1)
        with pytest.raises(templates.ContractError, match="differs from the member's depth"):
            restrict_template(t, {0})

    def test_rank_mismatch_on_a_non_template_names_the_clause(self):
        # the empty set is missing (clause 1), so the member {1} has depth 0,
        # but its restriction's trace family {{}, {1}} has rank 1
        t = template_from_parts([0, 1], [(0, 1)], [[0], [1], [0, 1]], [], [0, 1])
        with pytest.raises(ValueError, match="not a template: clause 1: empty set missing"):
            restrict_template(t, {1})

    def test_arbitrary_restriction_axioms_finding(self):
        t = two_point_template()
        r = restrict_template(t, {1})
        # the restriction is a template here; record the check result
        assert isinstance(check_axioms(r), list)


class TestSurrogatePositions:
    def test_wellformed_first_slot(self):
        params = SurrogateParams((2, 3), 2)
        assert position_wellformed(SurrogatePosition((SignedValue(1, True),)), params)
        assert not position_wellformed(SurrogatePosition((SignedValue(2, True),)), params)
        assert not position_wellformed(SurrogatePosition((SignedValue(0, False),)), params)

    def test_golden_counts(self):
        # frozen after first derivation by exhaustive enumeration
        assert len(enumerate_positions(SurrogateParams((2, 3), 2))) == 50
        assert len(enumerate_positions(SurrogateParams((2, 3, 4), 2))) == 496

    def test_length_bound(self):
        params = SurrogateParams((2, 3), 2)
        assert all(len(p.seq) <= 3 for p in enumerate_positions(params))

    def test_extension_ordering(self):
        a = SurrogatePosition((SignedValue(0, True),))
        pos_ext = SurrogatePosition((SignedValue(0, True), SignedValue(1, True)))
        neg_ext = SurrogatePosition((SignedValue(0, True), SignedValue(1, False)))
        assert a.key() < pos_ext.key()
        assert neg_ext.key() < a.key()

    def test_first_difference_ordering(self):
        x = SurrogatePosition((SignedValue(0, True), SignedValue(2, False)))
        y = SurrogatePosition((SignedValue(0, True), SignedValue(1, False)))
        z = SurrogatePosition((SignedValue(0, True), SignedValue(1, True)))
        assert x.key() < y.key() < z.key()  # negatives reversed, below positives

    def test_part_split_matches_characterization(self):
        # part0 elements end with a large entry of the admissible sign
        params = SurrogateParams((2, 3, 4), 2)
        for pos in enumerate_positions(params):
            in1 = position_in_part1(pos, params)
            n = len(pos.seq)
            if n == 1:
                assert in1
                continue
            last = pos.seq[-1]
            large = n - 1 >= params.levels or last.value >= params.level_sizes[n - 1]
            assert in1 == (not large)

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            enumerate_positions(SurrogateParams((2, 3, 4), 2, element_cap=100))


class TestRelevance:
    def test_short_positions_not_relevant(self):
        params = SurrogateParams((2, 3, 4), 2)
        for pos in enumerate_positions(params):
            if len(pos.seq) < 3 or len(pos.seq) % 2 == 0:
                assert not is_relevant(pos, params)

    def test_relevant_pattern(self):
        params = SurrogateParams((2, 3, 4), 2)
        rel = [p for p in enumerate_positions(params) if is_relevant(p, params)]
        assert len(rel) == 12
        for p in rel:
            assert p.seq[0].positive and not p.seq[1].positive and p.seq[2].positive
            assert p.seq[2].value < params.club_classes

    def test_interval_nesting_law(self):
        params = SurrogateParams((2, 3, 4), 2)
        positions = enumerate_positions(params)
        rel = [p for p in positions if is_relevant(p, params)]
        ivs = list(map(interval_finder(positions), rel))
        for (p, a), (q, b) in itertools.combinations(zip(rel, ivs), 2):
            assert not (a & b) or a <= b or b <= a
        for p, a in zip(rel, ivs):
            for q, b in zip(rel, ivs):
                if p is not q and a < b:
                    assert len(q.seq) <= len(p.seq)
                    assert p.seq[: len(q.seq) - 1] == q.seq[: len(q.seq) - 1]

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 3, 4)])
    def test_nesting_failures_count_each_breach(self, sizes):
        # the template report's count, against a plain loop over ordered
        # pairs: 0 on the relevant positions, and equal on position sets
        # that break the law
        surrogate = build_surrogate_template(SurrogateParams(sizes, 2))
        positions = surrogate.positions
        interval = interval_finder(positions)

        def breaches(ids):
            bad = 0
            for i, j in itertools.permutations(sorted(ids), 2):
                a, b = interval(positions[i]), interval(positions[j])
                if i < j and a & b and not (a <= b or b <= a):
                    bad += 1
                if a < b:
                    inner, outer = positions[i].seq, positions[j].seq
                    k = len(outer) - 1
                    if len(outer) > len(inner) or inner[:k] != outer[:k]:
                        bad += 1
            return bad

        assert interval_nesting_failures(surrogate) == breaches(surrogate.relevant_ids) == 0
        windows = [frozenset(range(lo, min(lo + 60, len(positions))))
                   for lo in range(0, len(positions), 40)]
        want = [breaches(ids) for ids in windows]
        assert max(want) > 0
        assert [interval_nesting_failures(surrogate._replace(relevant_ids=ids))
                for ids in windows] == want

    def test_interval_contains_truncation(self):
        params = SurrogateParams((2, 3, 4), 2)
        positions = enumerate_positions(params)
        index = {p.key(): i for i, p in enumerate(positions)}
        interval = interval_finder(positions)
        for p in positions:
            if is_relevant(p, params):
                trunc = SurrogatePosition(p.seq[:-1])
                assert index[trunc.key()] in interval(p)

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 3, 4)])
    def test_interval_bisection_is_the_scan(self, sizes):
        # every position's interval, against the scan over all keys that
        # the bisection replaced (an empty one when pos's last entry is negative)
        positions = enumerate_positions(SurrogateParams(sizes, 2))
        keys = [p.key() for p in positions]
        interval = interval_finder(positions)
        for p in positions:
            lo, hi = SurrogatePosition(p.seq[:-1]).key(), p.key()
            assert interval(p) == frozenset(i for i, k in enumerate(keys) if lo <= k < hi)


class TestSurrogateTemplate:
    def test_desk_instance_all_axioms(self):
        sur = build_surrogate_template(SurrogateParams((2, 3), 2))
        assert check_axioms(sur.order) == []
        assert len(sur.order.elements) == 50

    def test_desk_instance_rank_stable(self):
        a = build_surrogate_template(SurrogateParams((2, 3), 2))
        b = build_surrogate_template(SurrogateParams((2, 3), 2))
        assert rank(a.order) == rank(b.order)

    def test_members_are_closed(self):
        sur = build_surrogate_template(SurrogateParams((2, 3), 2))
        t = sur.order
        members = sorted(t.ideals, key=lambda x: (len(x), sorted(x)))
        for a in members[:: max(1, len(members) // 100)]:
            assert closure(t, a) == a

    def test_minimal_instance(self):
        sur = build_surrogate_template(SurrogateParams((1, 2), 1))
        assert check_axioms(sur.order) == []

    def test_family_cap_guard(self):
        # family_cap budgets the count of the members, not the check: past
        # it the family is held only as its atoms and decided from them
        within = build_surrogate_template(SurrogateParams((2, 3), 2)).order
        assert within.family_size == len(templates._unions(within.atoms, 10**6)) == 29_672
        for cap in (10_000, 20_000):  # 2^14 traces alone exceed 10,000
            over = build_surrogate_template(SurrogateParams((2, 3), 2, family_cap=cap)).order
            assert over.family_size is None and over.atoms == within.atoms
            assert check_axioms(over) == check_axioms(within) == []
            assert rank(over) == rank(within) == 14
            with pytest.raises(ValueError, match="enumeration budget"):
                over.ideals
            assert over.to_json()["I"] == {"count": None, "omitted": True}

    def test_three_level_instance(self):
        # 496 positions and 205 distinct atoms: every part1 element is one
        # atom's whole trace, so the rank is the 110 part1 elements
        t = build_surrogate_template(SurrogateParams((2, 3, 4), 2)).order
        assert (len(t.elements), len(t.atoms), len(t.part1)) == (496, 205, 110)
        assert t.family_size is None
        assert check_axioms(t) == []
        assert rank(t) == 110

    def test_bounded_last_variant(self):
        literal = build_surrogate_template(SurrogateParams((2, 3), 2))
        bounded = build_surrogate_template(
            SurrogateParams((2, 3), 2, last_negative_full=False)
        )
        assert len(bounded.order.elements) <= len(literal.order.elements)
        assert check_axioms(bounded.order) == []

    def test_json_export(self, monkeypatch):
        sur = build_surrogate_template(SurrogateParams((2,), 1))
        blob = sur.order.to_json()
        assert set(blob) == {"elements", "less", "I", "L0", "L1"}
        # above max_family the count is written without decoding a member
        big = build_surrogate_template(SurrogateParams((2, 3), 2)).order
        monkeypatch.setattr(templates.TemplateOrder, "ideals", property(lambda t: 1 / 0))
        assert big.to_json()["I"] == {"count": 29_672, "omitted": True}
