import hashlib
import json
import os
import random

import pytest

from cofinitary import suslin
from cofinitary.writer import encode_report
from cofinitary.extension import ContractViolation
from cofinitary.poset import PosetMode, leq
from cofinitary.suslin import (
    Incompatible,
    Undecidable,
    dom_meet,
    ffp_axiom_suite,
    loc_meet,
    n_suslin_trial,
    _dom,
    _dom_le,
    _extend_dom,
    _extend_loc,
    _le,
    _loc,
    _loc_le,
    _max,
    _random_dom_pair,
    _random_loc_pair,
    _random_number_seq,
    _random_set_seq,
    _subset,
    _union,
    _with,
)
import suslin_reference
from suslin_reference import FinSeq, Rule, finseq, plain_localizes


def _contains(s, t) -> bool:
    """Every pair of the assignment t is a pair of s."""
    return all(pm.pairs <= s.get(g).pairs for g, pm in t.table.items())


# The brute-force window.  The random sequences hold exceptions below 12,
# rule values below 8 and slopes below 3, so past 12 only the rules speak and
# two rules that cross have crossed; a window of 64 sees every difference.
WINDOW = 64


def at(k, i):
    """Entry i of the kernel sequence k = (slope, value, exc)."""
    a, b, e = k
    return e[i] if i in e else a * i + b if a else b


def seq(value, slope=0, **exceptions):
    """The kernel sequence slope*i + value with the exceptions given as
    i3=9 (index 3 holds 9), less those the rule produces."""
    return _with((slope, value, {}), ((int(k[1:]), v) for k, v in exceptions.items()))


def loc_cond(sigma, phi):
    """The slalom condition with prefix sigma and tail phi pinned to it."""
    pref = tuple(frozenset(s) for s in sigma)
    return _loc(pref, _with(phi, enumerate(pref)))


def dom_cond(stem, f):
    """The dominating pair with stem and tail f pinned to it."""
    stem = tuple(stem)
    return _dom(stem, _with(f, enumerate(stem)))


def build_localizing_slalom(reals, width_budget: int) -> tuple:
    """A condition whose slalom swallows every input sequence from its
    commitment point on; inputs must be eventually constant."""
    if len(reals) > width_budget:
        raise ValueError(f"{len(reals)} sequences exceed the width budget {width_budget}")
    if any(f[0] != 0 for f in reals):
        raise ValueError("only eventually constant sequences are representable")
    settle = max([max(f[2], default=-1) + 1 for f in reals], default=0)
    width = max(width_budget, len(reals), 1)
    sigma = [suslin._pad(sorted({at(f, i) for f in reals})[:i], i) for i in range(width)]
    exc = {i: frozenset(at(f, i) for f in reals) for i in range(width, max(settle, width))}
    out = loc_cond(sigma, _with((0, frozenset(f[1] for f in reals), {}), exc.items()))
    for i, slot in enumerate(out[0]):
        values = {at(f, i) for f in reals}
        if len(values) <= i and not values <= slot:
            raise ContractViolation(f"committed slot {i} misses an input's value")
    for f in reals:
        m = suslin_reference.plain_localizes(out[1], f)
        if m is None or m > width:
            raise ContractViolation("built slalom fails to localize an input")
    return out


class TestFinSeq:
    """The kernel's sequences, checked against a brute-force window, and the
    oracle's FinSeq and Rule (tests/suslin_reference.py)."""

    def test_exceptions_override(self):
        f = seq(5, i3=9)
        assert f == (0, 5, {3: 9})
        assert at(f, 3) == 9 and at(f, 4) == 5

    def test_affine(self):
        # an entry the rule produces is no exception
        f = seq(2, slope=3, i4=14)
        assert f == (3, 2, {})
        assert at(f, 0) == 2 and at(f, 4) == 14

    def test_json_roundtrip(self):
        for f in (finseq(seq(5, i3=9)), finseq(seq(2, slope=3)),
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
        # the canonical exceptions tuple, which alone decides equality, and
        # with the kernel sequence the FinSeq was made from
        rng = random.Random(2)
        for _ in range(500):
            k = _random_number_seq(rng, rng.randrange(4))
            f = finseq(k)
            for i in range(-2, 14):
                scanned = next((v for j, v in f.exceptions if j == i), f.rule.at(i))
                assert f.at(i) == scanned
                assert i < 0 or f.at(i) == at(k, i)
            assert f.settle_index() == max((j + 1 for j, _ in f.exceptions), default=0)
            twin = FinSeq(f.rule, tuple(reversed(f.exceptions)) + ((99, f.rule.at(99)),))
            assert twin == f and hash(twin) == hash(f)
            assert FinSeq.from_json(f.to_json()) == f

    def test_seq_le_decides_affine(self):
        assert _le(seq(3), seq(3, slope=1))
        assert not _le(seq(3, slope=1), seq(3))
        assert not _le(seq(0, slope=2), seq(50, slope=1))

    def test_seq_le_sees_a_rule_gap_between_exceptions(self):
        # 0 and 10 are exceptions of g; at 1 its rule gives 1 < 5
        f, g = seq(5), seq(0, slope=1, i0=100, i10=100)
        assert at(f, 1) > at(g, 1)
        assert not _le(f, g)
        assert _le(f, seq(5, slope=1, i0=100, i10=100))

    def test_seq_le_matches_a_window(self):
        rng = random.Random("seq-le")
        verdicts = {True: 0, False: 0}
        for _ in range(20_000):
            f = _random_number_seq(rng, rng.randrange(6))
            g = _random_number_seq(rng, rng.randrange(6))
            want = all(at(f, i) <= at(g, i) for i in range(WINDOW))
            assert _le(f, g) == want, (f, g)
            verdicts[want] += 1
        assert min(verdicts.values()) > 2000, verdicts

    def test_set_algebra_matches_a_window(self):
        rng = random.Random("set-seqs")
        verdicts = {True: 0, False: 0}
        for _ in range(5_000):
            width = rng.randrange(5)
            f, g = _random_set_seq(rng, width), _random_set_seq(rng, width)
            want = all(at(f, i) <= at(g, i) for i in range(WINDOW))
            assert _subset(f, g) == want, (f, g)
            verdicts[want] += 1
            u = _union(f, g)
            assert all(at(u, i) == at(f, i) | at(g, i) for i in range(WINDOW)), (f, g)
        assert min(verdicts.values()) > 500, verdicts

    def test_seq_max_matches_a_window(self):
        rng = random.Random("seq-max")
        for _ in range(5_000):
            f = _random_number_seq(rng, rng.randrange(6))
            g = _random_number_seq(rng, rng.randrange(6))
            m = _max(f, g)
            assert all(at(m, i) == max(at(f, i), at(g, i)) for i in range(WINDOW)), (f, g)

    def test_loc_width_check_matches_a_window(self):
        rng = random.Random("loc-width")
        verdicts = {True: 0, False: 0}
        for _ in range(5_000):
            width = rng.randrange(4)
            sigma = tuple(frozenset(rng.sample(range(12), i)) for i in range(width))
            phi = _random_set_seq(rng, width + 1)
            pinned = _with(phi, enumerate(sigma))
            want = all(len(at(pinned, i)) <= width for i in range(WINDOW))
            try:
                _loc(sigma, pinned)
                got = True
            except ValueError:
                got = False
            assert got == want, (sigma, phi)
            verdicts[want] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_seq_max_representable(self):
        f, g = seq(0, slope=2), seq(50, slope=1)
        m = _max(f, g)
        for i in range(120):
            assert at(m, i) == max(at(f, i), at(g, i)), i

    def test_seq_union(self):
        f = seq(frozenset({1}), i2=frozenset({5}))
        g = seq(frozenset({2}))
        u = _union(f, g)
        assert at(u, 2) == {5, 2} and at(u, 10) == {1, 2}
        assert _subset(f, u) and _subset(g, u)

    def test_seq_max_rejects_set_sequences(self):
        # a pointwise maximum of sets is no union: {1} and {2} have none
        with pytest.raises(Undecidable):
            _max(seq(frozenset({1})), seq(frozenset({2})))


class TestLocPoset:
    def test_reflexive(self):
        p = loc_cond([set(), {4}], seq(frozenset({4, 5})))
        assert _loc_le(p, p)

    def test_extension(self):
        q = loc_cond([set()], seq(frozenset({7})))
        p = loc_cond([set(), {7}], seq(frozenset({7, 8})))
        assert _loc_le(p, q)
        assert not _loc_le(q, p)

    def test_width_invariant_enforced(self):
        with pytest.raises(ValueError):
            loc_cond([set()], seq(frozenset({1, 2, 3})))

    def test_prefix_size_enforced(self):
        with pytest.raises(ValueError):
            _loc((frozenset({1, 2}),), seq(frozenset()))

    def test_pinning_toggle(self):
        # the tail must equal the prefix on the committed slots: a tail that
        # strictly contains the prefix is rejected
        sigma = (frozenset(), frozenset({4}))
        tail = seq(frozenset({4, 5}))
        with pytest.raises(ValueError):
            _loc(sigma, tail)
        assert _loc(sigma, _with(tail, enumerate(sigma)))[0] == sigma

    @pytest.mark.parametrize(
        "phi",
        [seq(3), seq(0, slope=1), seq(frozenset(), i2=5)],
        ids=["number", "affine", "number-exception"],
    )
    def test_number_tail_rejected(self, phi):
        with pytest.raises(ValueError, match="finite sets"):
            _loc((), phi)

    def test_preorder_sampled(self):
        rng = random.Random(3)
        for _ in range(1000):
            p, q = _random_loc_pair(rng)
            r = _extend_loc(rng, p)
            assert _loc_le(p, p) and _loc_le(q, q)
            assert _loc_le(p, q) and _loc_le(r, p)
            assert _loc_le(r, q)  # transitivity along the chain

    def test_extension_order_check_raises(self, monkeypatch):
        monkeypatch.setattr(suslin, "_loc_le", lambda p, q: False)
        with pytest.raises(ContractViolation):
            _extend_loc(random.Random(1), ((frozenset(),), (0, frozenset(), {})))

    def test_leq_matches_horizon_scan(self):
        rng = random.Random(5)
        for _ in range(300):
            p, q = _random_loc_pair(rng)
            want = len(p[0]) >= len(q[0]) and p[0][: len(q[0])] == q[0]
            want = want and all(at(q[1], i) <= at(p[1], i) for i in range(2000))
            assert _loc_le(p, q) == want

    def test_meet_identity(self):
        p = loc_cond([set(), {4}], seq(frozenset({4})))
        assert loc_meet(p, p) == p

    def test_meet_width_violation(self):
        # doubling the commitment does not help when a new slot needs more
        # values than it holds: slot 1 of the union is {1, 2}
        p = loc_cond([set()], seq(frozenset({1})))
        q = loc_cond([set()], seq(frozenset({2})))
        assert loc_meet(p, q) == Incompatible("slalom prefix slot 1 has size 2, wants 1")
        # a union of width 4 over 3 committed slots fits after committing to 6
        sigma = [set(), {6}, {0, 4}]
        p = loc_cond(sigma, seq(frozenset({4, 6, 7}), i3=frozenset({4})))
        q = loc_cond(sigma, seq(frozenset({4, 5})))
        met = loc_meet(p, q)
        assert not isinstance(met, Incompatible) and len(met[0]) == 6
        assert _loc_le(met, p) and _loc_le(met, q)


class TestDomPoset:
    def test_extension(self):
        q = dom_cond([3], seq(1))
        p = dom_cond([3, 5], seq(2))
        assert _dom_le(p, q)
        assert not _dom_le(q, p)

    def test_stem_pinning(self):
        with pytest.raises(ValueError, match="does not pin the stem at 0"):
            _dom((3, 1), seq(0))
        c = dom_cond([3, 1], seq(0))
        assert at(c[1], 0) == 3 and at(c[1], 1) == 1

    def test_meet_is_pointwise_max(self):
        p = dom_cond([2, 4], seq(3))
        sib = _dom((2,), seq(2, i0=2))
        met = dom_meet(p, sib)
        assert not isinstance(met, Incompatible)
        assert met[0] == p[0]
        for i in range(40):
            assert at(met[1], i) == max(at(p[1], i), at(sib[1], i))

    def test_incomparable_stems(self):
        a = dom_cond([1], seq(0))
        b = dom_cond([2], seq(0))
        assert isinstance(dom_meet(a, b), Incompatible)

    def test_preorder_sampled(self):
        rng = random.Random(7)
        for _ in range(1000):
            p, q = _random_dom_pair(rng)
            r = _extend_dom(rng, p)
            assert _dom_le(p, p) and _dom_le(p, q)
            assert _dom_le(r, p) and _dom_le(r, q)

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



    @pytest.mark.parametrize("poset, meet", [("hechler", "dom_meet"), ("loc", "loc_meet")])
    def test_the_trials_run_the_named_meets(self, monkeypatch, poset, meet):
        # the tracer counts suslin.dom_meet and suslin.loc_meet, so those must
        # be the meets a trial calls: a meet that never meets fails them all
        monkeypatch.setattr(suslin, meet, lambda p, q: Incompatible("patched"))
        assert suslin._trial_failures(poset, 2, 3, 0, 50) == list(range(50))


class TestLocalizes:
    def test_pad_keeps_need_then_fills_least_free(self):
        assert suslin._pad([5, 2], 4) == frozenset({0, 1, 2, 5})
        assert suslin._pad({0, 2}, 4) == frozenset({0, 1, 2, 3})
        assert suslin._pad((), 3) == frozenset({0, 1, 2})
        assert suslin._pad({7, 9}, 2) == frozenset({7, 9})
        assert suslin._pad({7, 9, 11}, 2) == frozenset({7, 9, 11})

    def test_constant_tails(self):
        phi = seq(frozenset({0, 1}), i0=frozenset())
        f = seq(0, i0=7, i1=0)
        m = plain_localizes(phi, f)
        assert m == 1

    def test_escaping_tail(self):
        phi = seq(frozenset({0, 1}))
        assert plain_localizes(phi, seq(9)) is None
        assert plain_localizes(phi, seq(0, slope=1)) is None

    def test_built_slalom(self):
        reals = [seq(4), seq(2, i3=9), seq(0)]
        slalom = build_localizing_slalom(reals, 5)
        for f in reals:
            m = plain_localizes(slalom[1], f)
            assert m is not None and m <= len(slalom[0])

    def test_width_overflow(self):
        with pytest.raises(ValueError):
            build_localizing_slalom([seq(i) for i in range(4)], 3)

    def test_singleton_tails(self):
        slalom = build_localizing_slalom([seq(3)], 2)
        assert slalom[1][1] == frozenset({3})

    def test_localizes_matches_a_window(self):
        rng = random.Random("localizes")
        verdicts = {"none": 0, "zero": 0, "later": 0}
        for _ in range(5_000):
            f = _random_number_seq(rng, rng.randrange(6))
            phi = _random_set_seq(rng, rng.randrange(5))
            if rng.random() < 0.5 and f[0] == 0:
                phi = _with((0, phi[1] | {f[1]}, {}), phi[2].items())
            bad = [n for n in range(WINDOW) if at(f, n) not in at(phi, n)]
            # a miss at the window's end is a rule miss, which never stops
            want = None if bad and bad[-1] == WINDOW - 1 else (bad[-1] + 1 if bad else 0)
            assert plain_localizes(phi, f) == want, (phi, f)
            verdicts["none" if want is None else "zero" if want == 0 else "later"] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_localization_check_raises(self, monkeypatch):
        monkeypatch.setattr(suslin_reference, "plain_localizes", lambda phi, f: None)
        with pytest.raises(ContractViolation):
            build_localizing_slalom([seq(3)], 2)


class TestFfpSuite:
    @pytest.mark.parametrize("mode", list(PosetMode))
    def test_all_modes_pass(self, mode):
        results = ffp_axiom_suite(mode, 25, 7)
        for clause in results:
            assert clause.passed, (mode, clause.name, clause.witness)

    def test_broken_leq_caught(self):
        def permissive(p, q):
            return _contains(p.s, q.s) and p.words >= q.words

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
            ("cofinitary", 3, "dce66bf401fe95d701b66d7f51409c54b67eeb48e00c830706aef0ced1847a57"),
            ("adp", 3, "2ad4a02c758b28aa5a37ad979bfb4d70960c3589b626923ee868e8a2e616e952"),
            ("edf", 3, "c064b65eb185ea640574a18c6d1d87db55caa054da3bfbd1fa41eb73989d18f0"),
            ("mad", 3, "08b913c0aa580ffaa602993a6f361bf73c4333cede78e5677de47c27b9be0abc"),
            ("cofinitary", 1009, "31a9cc10a5bb3f16971e849f88ac83778f9c7ce84bbdc4f2d0962fe642e143f6"),
            ("adp", 1009, "04022135dc000732eb89aacb2336cb3f05932b68deca49f3771d5ebc23f74e3a"),
            ("edf", 1009, "545355fa15691b2ce2c9c237d40f0117815e4f51f93be9b07013dae593f20f1b"),
            ("mad", 1009, "107164b70a463275bc21fedf70ca877f9669114323216646611b326fd6efb1bc"),
        ],
    )
    def test_ffp_suite_comparisons(self, mode, seed, digest, monkeypatch):
        """A report records only pass/checks per clause, so its digest cannot
        show that the sampled conditions changed.  This pins every order
        comparison the suite makes: both conditions and the verdict.  One
        CPU keeps every sample in this process, where the recording leq
        runs; a forked chunk's comparisons would not be recorded."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls = []

        def recording_leq(p, q):
            verdict = leq(p, q)
            calls.append((p.to_json(), q.to_json(), verdict))
            return verdict

        results = ffp_axiom_suite(PosetMode(mode), 100, seed, leq_override=recording_leq)
        assert all(r.passed for r in results)
        blob = json.dumps(calls, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
