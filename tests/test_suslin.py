import hashlib
import json
import random

import pytest

from cofinitary import suslin
from cofinitary.cli import encode_report
from cofinitary.extension import ContractViolation
from cofinitary.poset import PosetMode, leq
from cofinitary.suslin import (
    DomCondition,
    FinSeq,
    Incompatible,
    LocCondition,
    Rule,
    Undecidable,
    dom_condition,
    dom_leq,
    dom_meet,
    ffp_axiom_suite,
    loc_condition,
    loc_leq,
    loc_meet,
    localizes,
    n_suslin_trial,
    seq_le,
    seq_max,
    seq_subset,
    seq_union,
    _extend_dom,
    _extend_loc,
    _random_dom_pair,
    _random_loc_pair,
)
from suslin_reference import finseq


# The brute-force window.  The random sequences hold exceptions below 12,
# rule values below 8 and slopes below 3, so past 12 only the rules speak and
# two rules that cross have crossed; a window of 64 sees every difference.
WINDOW = 64


def fs(rule_kind, value, slope=0, **exceptions):
    exc = tuple((int(k[1:]), v) for k, v in exceptions.items())
    return FinSeq(Rule(rule_kind, value, slope), exc)


def constant_seq(value) -> FinSeq:
    return FinSeq(Rule("constant", value))


def number_seq(rng, lo_len=0) -> FinSeq:
    return finseq(suslin._random_number_seq(rng, lo_len))


def set_seq(rng, width) -> FinSeq:
    return finseq(suslin._random_set_seq(rng, width))


def loc_pair(rng):
    return [LocCondition(sigma, finseq(phi)) for sigma, phi in _random_loc_pair(rng)]


def build_localizing_slalom(reals, width_budget: int) -> LocCondition:
    """A condition whose slalom swallows every input sequence from its
    commitment point on; inputs must be eventually constant."""
    if len(reals) > width_budget:
        raise ValueError(f"{len(reals)} sequences exceed the width budget {width_budget}")
    if any(f.rule.slope != 0 for f in reals):
        raise ValueError("only eventually constant sequences are representable")
    settle = max([f.settle_index() for f in reals], default=0)
    width = max(width_budget, len(reals), 1)
    sigma = [suslin._pad(sorted({f.at(i) for f in reals})[:i], i) for i in range(width)]
    exc = {i: frozenset(f.at(i) for f in reals) for i in range(width, max(settle, width))}
    phi = FinSeq(Rule("constant", frozenset(f.rule.value for f in reals)), tuple(exc.items()))
    out = loc_condition(sigma, phi)
    for f in reals:
        m = suslin.localizes(out.phi, f)
        if m is None or m > width:
            raise ContractViolation("built slalom fails to localize an input")
    return out


class TestFinSeq:
    def test_exceptions_override(self):
        f = fs("constant", 5, i3=9)
        assert f.at(3) == 9 and f.at(4) == 5

    def test_affine(self):
        f = fs("affine", 2, slope=3)
        assert f.at(0) == 2 and f.at(4) == 14

    def test_json_roundtrip(self):
        for f in (fs("constant", 5, i3=9), fs("affine", 2, slope=3),
                  FinSeq(Rule("constant", frozenset({1, 2})), ((4, frozenset({0})),))):
            assert FinSeq.from_json(f.to_json()) == f

    def test_unknown_rule_rejected(self):
        with pytest.raises(Undecidable):
            Rule("weird", 0)

    def test_constant_rule_with_slope_rejected(self):
        # so rule.slope is the slope of every rule
        with pytest.raises(ValueError):
            Rule("constant", 5, 3)
        assert Rule("constant", 5).slope == 0

    def test_lookup_table_matches_the_exceptions(self):
        # at/settle_index read a private dict; they must agree with a scan of
        # the canonical exceptions tuple, which alone decides equality
        rng = random.Random(2)
        for _ in range(500):
            f = number_seq(rng, rng.randrange(4))
            for i in range(-2, 14):
                scanned = next((v for j, v in f.exceptions if j == i), f.rule.at(i))
                assert f.at(i) == scanned
            assert f.settle_index() == max((j + 1 for j, _ in f.exceptions), default=0)
            twin = FinSeq(f.rule, tuple(reversed(f.exceptions)) + ((99, f.rule.at(99)),))
            assert twin == f and hash(twin) == hash(f)
            assert FinSeq.from_json(f.to_json()) == f

    def test_seq_le_decides_affine(self):
        assert seq_le(fs("constant", 3), fs("affine", 3, slope=1))
        assert not seq_le(fs("affine", 3, slope=1), fs("constant", 3))
        assert not seq_le(fs("affine", 0, slope=2), fs("affine", 50, slope=1))

    def test_seq_le_sees_a_rule_gap_between_exceptions(self):
        # 0 and 10 are exceptions of g; at 1 its rule gives 1 < 5
        f, g = fs("constant", 5), fs("affine", 0, slope=1, i0=100, i10=100)
        assert f.at(1) > g.at(1)
        assert not seq_le(f, g)
        assert seq_le(f, fs("affine", 5, slope=1, i0=100, i10=100))

    def test_negative_exceptions_are_not_probed(self):
        # the sequences are indexed by the naturals; an exception at -1 is
        # outside every comparison
        f = FinSeq(Rule("constant", 0), ((-1, 100),))
        assert seq_le(f, constant_seq(0))
        assert suslin._kseq(FinSeq(Rule("constant", 0), ((-1, 100), (2, 1))))[2] == {2: 1}

    def test_seq_le_matches_a_window(self):
        rng = random.Random("seq-le")
        verdicts = {True: 0, False: 0}
        for _ in range(20_000):
            f = number_seq(rng, rng.randrange(6))
            g = number_seq(rng, rng.randrange(6))
            want = all(f.at(i) <= g.at(i) for i in range(WINDOW))
            assert seq_le(f, g) == want, (f, g)
            verdicts[want] += 1
        assert min(verdicts.values()) > 2000, verdicts

    def test_set_algebra_matches_a_window(self):
        rng = random.Random("set-seqs")
        verdicts = {True: 0, False: 0}
        for _ in range(5_000):
            width = rng.randrange(5)
            f, g = set_seq(rng, width), set_seq(rng, width)
            want = all(f.at(i) <= g.at(i) for i in range(WINDOW))
            assert seq_subset(f, g) == want, (f, g)
            verdicts[want] += 1
            u = seq_union(f, g)
            assert all(u.at(i) == f.at(i) | g.at(i) for i in range(WINDOW)), (f, g)
        assert min(verdicts.values()) > 500, verdicts

    def test_seq_max_matches_a_window(self):
        rng = random.Random("seq-max")
        for _ in range(5_000):
            f = number_seq(rng, rng.randrange(6))
            g = number_seq(rng, rng.randrange(6))
            m = seq_max(f, g)
            assert all(m.at(i) == max(f.at(i), g.at(i)) for i in range(WINDOW)), (f, g)

    def test_loc_width_check_matches_a_window(self):
        rng = random.Random("loc-width")
        verdicts = {True: 0, False: 0}
        for _ in range(5_000):
            width = rng.randrange(4)
            sigma = [frozenset(rng.sample(range(12), i)) for i in range(width)]
            phi = set_seq(rng, width + 1)
            pinned = phi.with_exceptions(enumerate(sigma))
            want = all(len(pinned.at(i)) <= width for i in range(WINDOW))
            try:
                LocCondition(tuple(sigma), pinned)
                got = True
            except ValueError:
                got = False
            assert got == want, (sigma, phi)
            verdicts[want] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_seq_max_representable(self):
        f, g = fs("affine", 0, slope=2), fs("affine", 50, slope=1)
        m = seq_max(f, g)
        for i in range(120):
            assert m.at(i) == max(f.at(i), g.at(i)), i

    def test_seq_union(self):
        f = FinSeq(Rule("constant", frozenset({1})), ((2, frozenset({5})),))
        g = FinSeq(Rule("constant", frozenset({2})), ())
        u = seq_union(f, g)
        assert u.at(2) == {5, 2} and u.at(10) == {1, 2}
        assert seq_subset(f, u) and seq_subset(g, u)

    def test_seq_max_rejects_set_sequences(self):
        # a pointwise maximum of sets is no union: {1} and {2} have none
        with pytest.raises(Undecidable):
            seq_max(constant_seq(frozenset({1})), constant_seq(frozenset({2})))


class TestLocPoset:
    def test_reflexive(self):
        p = loc_condition([set(), {4}], constant_seq(frozenset({4, 5})))
        assert loc_leq(p, p)

    def test_extension(self):
        q = loc_condition([set()], constant_seq(frozenset({7})))
        p = loc_condition([set(), {7}], constant_seq(frozenset({7, 8})))
        assert loc_leq(p, q)
        assert not loc_leq(q, p)

    def test_width_invariant_enforced(self):
        with pytest.raises(ValueError):
            loc_condition([set()], constant_seq(frozenset({1, 2, 3})))

    def test_prefix_size_enforced(self):
        with pytest.raises(ValueError):
            LocCondition((frozenset({1, 2}),), constant_seq(frozenset()))

    def test_pinning_toggle(self):
        # the tail must equal the prefix on the committed slots: a tail that
        # strictly contains the prefix is rejected
        sigma = (frozenset(), frozenset({4}))
        tail = FinSeq(Rule("constant", frozenset({4, 5})))
        with pytest.raises(ValueError):
            LocCondition(sigma, tail)
        assert LocCondition(sigma, tail.with_exceptions(enumerate(sigma))).sigma == sigma

    @pytest.mark.parametrize(
        "phi",
        [
            FinSeq(Rule("constant", 3)),
            FinSeq(Rule("affine", 0, 1)),
            FinSeq(Rule("constant", frozenset()), ((2, 5),)),
        ],
        ids=["number", "affine", "number-exception"],
    )
    def test_number_tail_rejected(self, phi):
        with pytest.raises(ValueError, match="finite sets"):
            LocCondition((), phi)

    def test_preorder_sampled(self):
        rng = random.Random(3)
        for _ in range(1000):
            p, q = _random_loc_pair(rng)
            p, q, r = (LocCondition(c[0], finseq(c[1])) for c in (p, q, _extend_loc(rng, p)))
            assert loc_leq(p, p) and loc_leq(q, q)
            assert loc_leq(p, q) and loc_leq(r, p)
            assert loc_leq(r, q)  # transitivity along the chain

    def test_extension_order_check_raises(self, monkeypatch):
        monkeypatch.setattr(suslin, "_loc_le", lambda p, q: False)
        with pytest.raises(ContractViolation):
            _extend_loc(random.Random(1), ((frozenset(),), (0, frozenset(), {})))

    def test_leq_matches_horizon_scan(self):
        rng = random.Random(5)
        for _ in range(300):
            p, q = loc_pair(rng)
            want = len(p.sigma) >= len(q.sigma) and p.sigma[: len(q.sigma)] == q.sigma
            want = want and all(q.phi.at(i) <= p.phi.at(i) for i in range(2000))
            assert loc_leq(p, q) == want

    def test_meet_identity(self):
        p = loc_condition([set(), {4}], constant_seq(frozenset({4})))
        assert loc_meet(p, p) == p

    def test_meet_width_violation(self):
        # doubling the commitment does not help when a new slot needs more
        # values than it holds: slot 1 of the union is {1, 2}
        p = loc_condition([set()], constant_seq(frozenset({1})))
        q = loc_condition([set()], constant_seq(frozenset({2})))
        assert loc_meet(p, q) == Incompatible("slalom prefix slot 1 has size 2, wants 1")
        # a union of width 4 over 3 committed slots fits after committing to 6
        sigma = [set(), {6}, {0, 4}]
        p = loc_condition(sigma, FinSeq(Rule("constant", frozenset({4, 6, 7})), ((3, frozenset({4})),)))
        q = loc_condition(sigma, constant_seq(frozenset({4, 5})))
        met = loc_meet(p, q)
        assert isinstance(met, LocCondition) and len(met.sigma) == 6
        assert loc_leq(met, p) and loc_leq(met, q)


class TestDomPoset:
    def test_extension(self):
        q = dom_condition([3], constant_seq(1))
        p = dom_condition([3, 5], fs("constant", 2))
        assert dom_leq(p, q)
        assert not dom_leq(q, p)

    def test_stem_pinning(self):
        c = dom_condition([3, 1], constant_seq(0))
        assert c.f.at(0) == 3 and c.f.at(1) == 1

    def test_meet_is_pointwise_max(self):
        q = dom_condition([2], constant_seq(1))
        p = dom_condition([2, 4], fs("constant", 3))
        h = constant_seq(2).with_exceptions([(0, 2)])
        sib = DomCondition((2,), h)
        met = dom_meet(p, sib)
        assert isinstance(met, DomCondition)
        assert met.stem == p.stem
        for i in range(40):
            assert met.f.at(i) == max(p.f.at(i), sib.f.at(i))

    def test_incomparable_stems(self):
        a = dom_condition([1], constant_seq(0))
        b = dom_condition([2], constant_seq(0))
        assert isinstance(dom_meet(a, b), Incompatible)

    def test_preorder_sampled(self):
        rng = random.Random(7)
        for _ in range(1000):
            p, q = _random_dom_pair(rng)
            p, q, r = (DomCondition(c[0], finseq(c[1])) for c in (p, q, _extend_dom(rng, p)))
            assert dom_leq(p, p) and dom_leq(p, q)
            assert dom_leq(r, p) and dom_leq(r, q)

    def test_extension_order_check_raises(self, monkeypatch):
        # the check survives python -O: a broken order raises, not asserts
        monkeypatch.setattr(suslin, "_dom_le", lambda p, q: False)
        with pytest.raises(ContractViolation):
            _extend_dom(random.Random(1), ((1,), (0, 0, {0: 1})))


class TestTrials:
    def test_hechler_one_compatible(self):
        report = n_suslin_trial("hechler", 1, 3000, 11)
        assert report.failures == 0

    def test_loc_two_compatible(self):
        report = n_suslin_trial("loc", 2, 3000, 11)
        assert report.failures == 0

    def test_loc_one_fails_sometimes(self):
        # informational: the width bound is really used
        report = n_suslin_trial("loc", 1, 3000, 11)
        assert report.failures >= 0
        assert report.to_json()["failure_seeds"] == report.failure_seeds[:100]

    def test_trials_deterministic(self):
        a = n_suslin_trial("loc", 1, 500, 13)
        b = n_suslin_trial("loc", 1, 500, 13)
        assert a.failures == b.failures and a.failure_seeds == b.failure_seeds

    def test_unknown_poset(self):
        with pytest.raises(ValueError):
            n_suslin_trial("laver", 1, 10, 0)


class TestLocalizes:
    def test_constant_tails(self):
        phi = FinSeq(Rule("constant", frozenset({0, 1})), ((0, frozenset()),))
        f = constant_seq(0).with_exceptions([(0, 7), (1, 0)])
        m = localizes(phi, f)
        assert m == 1

    def test_escaping_tail(self):
        phi = constant_seq(frozenset({0, 1}))
        assert localizes(phi, fs("constant", 9)) is None
        assert localizes(phi, fs("affine", 0, slope=1)) is None

    def test_built_slalom(self):
        reals = [constant_seq(4), fs("constant", 2, i3=9), constant_seq(0)]
        slalom = build_localizing_slalom(reals, 5)
        for f in reals:
            m = localizes(slalom.phi, f)
            assert m is not None and m <= len(slalom.sigma)

    def test_width_overflow(self):
        with pytest.raises(ValueError):
            build_localizing_slalom([constant_seq(i) for i in range(4)], 3)

    def test_singleton_tails(self):
        slalom = build_localizing_slalom([constant_seq(3)], 2)
        assert slalom.phi.rule.value == frozenset({3})

    def test_localizes_matches_a_window(self):
        rng = random.Random("localizes")
        verdicts = {"none": 0, "zero": 0, "later": 0}
        for _ in range(5_000):
            f = number_seq(rng, rng.randrange(6))
            phi = set_seq(rng, rng.randrange(5))
            if rng.random() < 0.5 and f.rule.slope == 0:
                tail = phi.rule.value | {f.rule.value}
                phi = FinSeq(Rule("constant", tail), phi.exceptions)
            bad = [n for n in range(WINDOW) if f.at(n) not in phi.at(n)]
            # a miss at the window's end is a rule miss, which never stops
            want = None if bad and bad[-1] == WINDOW - 1 else (bad[-1] + 1 if bad else 0)
            assert localizes(phi, f) == want, (phi, f)
            verdicts["none" if want is None else "zero" if want == 0 else "later"] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_localization_check_raises(self, monkeypatch):
        monkeypatch.setattr(suslin, "localizes", lambda phi, f: None)
        with pytest.raises(ContractViolation):
            build_localizing_slalom([constant_seq(3)], 2)


class TestFfpSuite:
    @pytest.mark.parametrize("mode", list(PosetMode))
    def test_all_modes_pass(self, mode):
        results = ffp_axiom_suite(mode, 25, 7)
        for clause in results:
            assert clause.passed, (mode, clause.name, clause.witness)

    def test_broken_leq_caught(self):
        def permissive(p, q):
            return p.s.contains(q.s) and p.words >= q.words

        results = ffp_axiom_suite(PosetMode.COFINITARY, 25, 7, leq_override=permissive)
        failed = [c for c in results if not c.passed]
        assert failed and all(c.witness for c in failed)

    def test_deterministic(self):
        a = ffp_axiom_suite(PosetMode.ADP, 20, 3)
        b = ffp_axiom_suite(PosetMode.ADP, 20, 3)
        assert [(c.name, c.passed, c.checks) for c in a] == [
            (c.name, c.passed, c.checks) for c in b
        ]

    def test_leq_override_is_keyword_only(self):
        # a fourth positional argument binds to no override
        with pytest.raises(TypeError):
            ffp_axiom_suite(PosetMode.ADP, 1, 3, leq)


def _digest(report) -> str:
    payload = report if isinstance(report, dict) else report.to_json()
    return hashlib.sha256(encode_report(payload)).hexdigest()


class TestGoldenReports:
    """Digests of the trial and ffp-suite reports, recorded before the
    sequence algebra read one probe set; they pin every byte, the loc n = 1
    failure seeds included."""

    @pytest.mark.parametrize(
        "poset, n, seed, digest",
        [
            ("hechler", 1, 3, "bc8ed8da57fcf0e49c4e025edfb3eefca12354f88cb975a1a5b2da0a552f572c"),
            ("hechler", 1, 1009, "84dd6a22d5d2dcdc7360c4367faee253b25a784c8cbce6c6080775fb50925463"),
            ("hechler", 2, 3, "bd7cb84b9ed183c6583f5e19d24540d921220a9f33f71be112330611d381f976"),
            ("hechler", 2, 1009, "6f298b5ec69bd9d61c697d12d43c0885f6077f26a99772da56d9dbce4e0d68e2"),
            ("loc", 1, 3, "9ccf8c7d4b462224cfce8f775dbd618f3e822478492a4280ccf8c55960cdc344"),
            ("loc", 1, 1009, "01171ec375ba2f595e4891a27e24b0660d6fdb253056ec7ecf4bbac26888c3c2"),
            ("loc", 2, 3, "e93a77c5d55031f379499e4e44da5ea29b58ce3653da21973609ea34dc1f2657"),
            ("loc", 2, 1009, "9cfdce73a2c6da5be48d94e48c438c87c6f921284afb8cc8f0910dfa7e218b31"),
        ],
    )
    def test_trial(self, poset, n, seed, digest):
        report = n_suslin_trial(poset, n, 2000, seed)
        assert report.failures > 0 if (poset, n) == ("loc", 1) else report.failures == 0
        assert _digest(report) == digest

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("cofinitary", "a84db5a05659380ac4879ddeac37729f0a23b32fcac90cc78617fe991738dbf0"),
            ("adp", "26fada032aa7dee6bcce8f1b855becafbdf44b614a41e8316209f72832e3e793"),
            ("edf", "a0a1b8dfecab67dbabdeb314605c924178c83a3aa6d4e5f36435bc9a7f263332"),
            ("mad", "d4726122e445e0acd4795d28c0535c5e2f0d93cb05fbaa3b79acb5e86d62184b"),
        ],
    )
    def test_ffp_suite(self, mode, digest):
        results = ffp_axiom_suite(PosetMode(mode), 100, 3)
        payload = {
            "schema": "1",
            "mode": mode,
            "samples": 100,
            "seed": 3,
            "clauses": [r.to_json() for r in results],
        }
        assert _digest(payload) == digest

    @pytest.mark.parametrize(
        "mode, seed, digest",
        [
            ("cofinitary", 3, "24cfbd0d37ee98c9554d424fd27d9c7a2f24c142f48130dee34276f980a08b2f"),
            ("adp", 3, "e5a5f0363265cc4db603cc1cf84d417ce35221162ffcf947159979217620da9e"),
            ("edf", 3, "1f5990c73b5dc2f96d26b8fcc7c0c1c1441aca4ada0ecdc49f6abf126088bb21"),
            ("mad", 3, "2e1149d2065de2da0b1bcea2d3dc5d01d633ec34e4ddfc78b087ee5fa3fc9fa5"),
            ("cofinitary", 1009, "9610a09208a86de4ed9c8a11a338b4d1e4c9fa5d8e4ca1a8cc9f95186d5b4f94"),
            ("adp", 1009, "fa3cef944700cf78e779f14531cd27fef4eef8cf1de33cecf09813b05c0ec872"),
            ("edf", 1009, "ed829e7db53e482cfc1cbffb1a0e6698f9a9adf0296e14d6d68dbd73b6242939"),
            ("mad", 1009, "424369fe2e753c5bdc6327ab2d32e1888f7e44ca03e45267140e47332b2212fa"),
        ],
    )
    def test_ffp_suite_comparisons(self, mode, seed, digest):
        """A report records only pass/checks per clause, so its digest cannot
        show that the sampled conditions changed.  This pins every order
        comparison the suite makes: both conditions and the verdict."""
        calls = []

        def recording_leq(p, q):
            verdict = leq(p, q)
            calls.append((p.to_json(), q.to_json(), verdict))
            return verdict

        results = ffp_axiom_suite(PosetMode(mode), 100, seed, leq_override=recording_leq)
        assert all(r.passed for r in results)
        blob = json.dumps(calls, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
