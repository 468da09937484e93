import random

import pytest

from cofinitary.evaluation import Assignment, GroundPermutation, PartialMap, _zshift_pow, zshift
from cofinitary import extension, poset
from cofinitary.extension import (
    CertificateError,
    ContractViolation,
    PointPhase,
    canonical_extension,
    cover_extend,
    domain_extend,
    hit_search,
    hit_threshold,
    mad_set_point,
    range_extend,
    strong_reduction,
)
from cofinitary.poset import Condition, PosetMode, leq, strong_restrict, validate
from cofinitary.sampling import sample_condition, sample_extension
from cofinitary.words import Word, parse_word, power, reduced_words, single


def _admits(cert, m: int) -> bool:
    """The certificate leaves m, a natural, free."""
    return m >= 0 and m not in cert.forbidden


def pmap(*pairs):
    return PartialMap(frozenset(pairs))


def cond(pairs_by_gen, words, mode=PosetMode.COFINITARY):
    return Condition(
        Assignment({g: pmap(*ps) for g, ps in pairs_by_gen.items()}),
        frozenset(parse_word(t) for t in words),
        mode,
    )


def scan_soundness(p, gen, n, limit):
    """Every admitted m below the limit must yield a valid extension."""
    ext = domain_extend(p, gen, n)
    admitted = failing = 0
    for m in range(limit):
        candidate = Condition(p.s.with_pair(gen, n, m), p.words, p.mode)
        good = not validate(candidate) and leq(candidate, p)
        if _admits(ext.certificate, m):
            admitted += 1
            assert good, f"admitted m={m} fails"
        elif good:
            failing += 0  # over-approximation is allowed
    assert admitted > 0
    return ext


class TestDomainExtend:
    def test_forbidden_superset_example(self):
        p = cond({0: [(5, 7)]}, ["g0"])
        ext = scan_soundness(p, 0, 0, 20)
        assert {0, 7} <= ext.certificate.forbidden

    def test_empty_condition_nothing_forbidden(self):
        ext = domain_extend(cond({}, []), 0, 0)
        assert ext.certificate.forbidden == frozenset()
        assert ext.choose() == 0

    def test_already_defined_rejected(self):
        p = cond({0: [(5, 7)]}, [])
        with pytest.raises(ValueError):
            domain_extend(p, 0, 5)

    def test_sampled_certificate_soundness(self):
        rng = random.Random(41)
        for _ in range(60):
            p = sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2],
                                 max_pairs=3, max_words=3, value_range=12)
            gen = rng.choice([0, 1, 2])
            n = rng.randrange(30)
            if n in p.s.get(gen).domain():
                continue
            scan_soundness(p, gen, n, 60)

    def test_chooser_floor(self):
        p = cond({0: [(5, 7)]}, ["g0"])
        ext = domain_extend(p, 0, 0)
        m = ext.choose(floor=10)
        assert m >= 10

    def test_chooser_ceiling(self):
        p = cond({}, ["g0"])
        ext = domain_extend(p, 0, 0)
        with pytest.raises(CertificateError):
            # everything below the ceiling is forbidden only if ceiling < least
            ext.choose(floor=5, ceiling=3)


class TestRangeExtend:
    def test_mirror_of_domain(self):
        p = cond({0: [(5, 7)]}, ["g0"])
        ext = range_extend(p, 0, 0)
        for n in range(40):
            if _admits(ext.certificate, n):
                c = Condition(p.s.with_pair(0, n, 0), p.words, p.mode)
                assert not validate(c) and leq(c, p), n

    def test_empty_condition(self):
        ext = range_extend(cond({}, []), 0, 3)
        assert ext.certificate.forbidden == frozenset()

    def test_duality_with_inverted_condition(self):
        # range certificate for p equals the domain certificate of the mirror
        p = cond({0: [(5, 7), (1, 2)]}, ["g0^2"])
        mirror = cond({0: [(7, 5), (2, 1)]}, ["g0^-2"])
        a = range_extend(p, 0, 0).certificate
        b = domain_extend(mirror, 0, 0).certificate
        assert a.forbidden == b.forbidden

    def test_functional_modes_rejected(self):
        with pytest.raises(ValueError):
            range_extend(cond({}, [], PosetMode.EDF), 0, 0)
        with pytest.raises(ValueError):
            range_extend(cond({}, [], PosetMode.MAD), 0, 0)


class TestCoverExtend:
    def test_domain_cover(self):
        p = cond({}, [])
        t = cover_extend(p, single(0), {0, 1, 2}, set())
        assert t.get(0).domain() >= {0, 1, 2}
        values = [t.get(0).fwd[i] for i in (0, 1, 2)]
        assert len(set(values)) == 3

    def test_empty_targets(self):
        p = cond({0: [(0, 1)]}, ["g0"])
        assert cover_extend(p, single(0), set(), set()).table == {}

    def test_cover_keeps_order(self):
        p = cond({0: [(0, 9)]}, ["g0^2 g1"])
        t = cover_extend(p, parse_word("g0 g1"), {3, 4}, {6})
        merged = Condition(p.s.union(t), p.words, p.mode)
        assert leq(merged, p)

    def test_stuck_walk_is_a_contract_violation(self, monkeypatch):
        # a step that adds nothing leaves the walk undefined forever
        monkeypatch.setattr(extension.PointPhase, "domain", lambda self, gen, n: 0)
        with pytest.raises(ContractViolation, match="cover walk stuck"):
            cover_extend(cond({}, []), single(0), {0}, set())

    def test_foreign_generator_is_a_contract_violation(self, monkeypatch):
        domain = extension.PointPhase.domain

        def leaky(self, gen, n):
            value = domain(self, gen, n)
            assert self.try_pair(9, 0, 0) is None  # a pair kept on g9
            return value

        monkeypatch.setattr(extension.PointPhase, "domain", leaky)
        with pytest.raises(ContractViolation, match=r"foreign generators \[9\]"):
            cover_extend(cond({}, []), single(0), {0}, set())


def split_reference(w, keep):
    """Every (u_block, v_right, v_left) of w's alternating split, empty u
    blocks included: the kept gap before, between and after the maximal
    dropped runs, each with the runs either side.  The runs are found by
    testing every interval."""
    letters, end = w.letters, len(w.letters)
    dropped = [i for i in range(end) if letters[i].gen not in keep]
    runs = [
        (a, b)
        for a in range(end)
        for b in range(a + 1, end + 1)
        if all(i in dropped for i in range(a, b))
        and (a == 0 or a - 1 not in dropped)
        and (b == end or b not in dropped)
    ]
    edges = [(0, 0), *runs, (end, end)]
    return [
        (Word(letters[left_end:right_start]), Word(letters[right_start:right_end]),
         Word(letters[left_start:left_end]))
        for (left_start, left_end), (right_start, right_end) in zip(edges, edges[1:])
    ]


class TestStrongReduction:
    def test_pair_blocks_match_the_split(self):
        # every reduced word of length <= 5 over 3 generators, every keep set:
        # the blocks are the split's nonempty kept blocks, in order
        keeps = [frozenset(k for k in range(3) if mask >> k & 1) for mask in range(8)]
        for w in reduced_words([0, 1, 2], 5):
            for keep in keeps:
                want = [block for block in split_reference(w, keep) if block[0]]
                assert extension._pair_blocks(w, keep) == want, (w, keep)

    def test_pure_inside_is_fixed_point(self):
        p = cond({0: [(0, 1)]}, ["g0"])
        red = strong_reduction(p, {0})
        assert red == p

    def test_order_check_raises(self, intercept):
        # the reduction's own order check is its only leq call here; it is a
        # raise, not an assert, so it holds under -O too
        calls = []
        intercept(extension, poset, leq=lambda *args: calls.append(args) and False)
        p = cond({0: [(0, 1)]}, ["g0"])
        with pytest.raises(ContractViolation, match="strong restriction"):
            strong_reduction(p, {0})
        assert len(calls) == 1

    def test_absorbs_outside_range(self):
        p = cond({0: [(0, 1)], 2: [(1, 2)]}, ["g0 g2"])
        red = strong_reduction(p, {0})
        assert red.s.get(0).domain() >= {2}  # range of the dropped part
        assert red.words == frozenset()
        assert leq(red, strong_restrict(p, {0}))

    def test_sampled_contract(self):
        rng = random.Random(43)
        for _ in range(60):
            p = sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2],
                                 max_pairs=3, max_words=2, value_range=10,
                                 word_len=3)
            keep = frozenset(rng.sample([0, 1, 2], rng.randrange(4)))
            red = strong_reduction(p, keep)
            assert leq(red, strong_restrict(p, keep))
            t = sample_extension(rng, red, avoid=p.occurring() - keep)
            both = canonical_extension(p, t, keep)
            assert leq(both, p) and leq(both, t)

    @pytest.mark.parametrize("mode", [PosetMode.ADP, PosetMode.EDF, PosetMode.MAD])
    def test_variant_contract(self, mode):
        rng = random.Random(47)
        for _ in range(40):
            p = sample_condition(rng, mode, [0, 1, 2], max_pairs=3, max_words=2)
            keep = frozenset(rng.sample([0, 1, 2], rng.randrange(4)))
            red = strong_reduction(p, keep)
            assert leq(red, strong_restrict(p, keep))
            t = sample_extension(rng, red, avoid=p.occurring() - keep)
            both = canonical_extension(p, t, keep)
            assert leq(both, p) and leq(both, t)


class TestCanonicalExtension:
    def test_reduction_itself(self):
        p = cond({0: [(0, 1)], 2: [(1, 2)]}, ["g0 g2"])
        red = strong_reduction(p, {0})
        both = canonical_extension(p, red, {0})
        assert leq(both, p) and leq(both, red)

    def test_occurrence_clash_rejected(self):
        p = cond({0: [(0, 1)], 2: [(1, 2)]}, ["g0 g2"])
        red = strong_reduction(p, {0})
        clashing = Condition(red.s.with_pair(2, 30, 31), red.words, red.mode)
        with pytest.raises(ValueError):
            canonical_extension(p, clashing, {0})

    def test_non_extension_rejected(self):
        p = cond({0: [(0, 1), (2, 3)]}, ["g0"])
        stranger = cond({0: [(9, 9)]}, ["g0"])
        with pytest.raises(ValueError):
            canonical_extension(p, stranger, {0})


def hit_kept(p, gen, sigma, n):
    """The condition a point phase over p closes to once its hit step keeps
    (gen, n, sigma(n)), or None when the step refuses n."""
    phase = PointPhase(p)
    if phase.hit(gen, sigma, n, 1) is None:
        assert phase.close() is p  # a refused pair is not kept
        return None
    q = phase.close()
    assert (n, sigma.apply(n)) in q.s.get(gen) and leq(q, p)
    return q


class TestHit:
    def test_single_letter_every_point(self):
        sigma = zshift()
        p = cond({}, ["g0"])
        for n in range(50):
            assert isinstance(hit_kept(p, 0, sigma, n), Condition)
        assert hit_threshold(p, 0, sigma) == 0

    def test_square_every_point(self):
        sigma = zshift()
        p = cond({}, ["g0^2"])
        for n in range(50):
            assert isinstance(hit_kept(p, 0, sigma, n), Condition)

    def test_preconditions(self):
        # a point gen already maps, or whose image already has a preimage,
        # is skipped, not refused
        sigma = zshift()
        p = cond({0: [(1, 5)]}, ["g0"])
        assert hit_kept(p, 0, sigma, 1) is None  # already in the domain
        taken = sigma.unapply(5)
        assert hit_kept(p, 0, sigma, taken) is None  # image already taken
        assert PointPhase(p).hit(0, sigma, 1, 2) == 2
        assert PointPhase(p).hit(0, sigma, taken, 2) == taken + 1

    def test_search_within_window(self):
        rng = random.Random(53)
        sigma = zshift()
        for _ in range(60):
            p = sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2],
                                 max_pairs=4, max_words=4, value_range=24,
                                 word_len=3)
            gen = rng.choice([0, 1, 2])
            for start in (0, 13, 50):
                n = hit_search(p, gen, sigma, start, 64)
                assert isinstance(n, int), (p.to_json(), gen, start)
                assert n >= start

    def test_threshold_accepts_everything_beyond(self):
        sigma = zshift()
        p = cond({0: [(3, 5), (8, 2)]}, ["g0^2", "g0^-3"])
        bound = hit_threshold(p, 0, sigma)
        assert bound is not None
        for n in range(bound, bound + 40):
            assert isinstance(hit_kept(p, 0, sigma, n), Condition), n

    def test_threshold_none_for_mixed_words(self):
        sigma = zshift()
        p = cond({}, ["g0 g1"])
        assert hit_threshold(p, 0, sigma) is None

    def test_rejection_reported(self):
        # identity target: hitting g0 at n gives the pair (n, n), a fixed point
        e = GroundPermutation(lambda n: n, lambda n: n, shift=0, name="identity")
        p = cond({}, ["g0"])
        assert hit_kept(p, 0, e, 4) is None
        assert hit_search(p, 0, e, 0, 16) is None
        assert hit_threshold(p, 0, e) is None
        # with no side word on g0 the identity is bounded by g0's pairs alone
        assert hit_threshold(cond({0: [(3, 5)]}, ["g1"]), 0, e) == 6

    @pytest.mark.parametrize("k", [-2, -1, 1, 2])
    def test_threshold_exact_for_shift_powers(self, k):
        """Under zshift^k, every n from the threshold on is accepted, on
        sampled conditions whose side words are powers of one generator."""
        sigma = GroundPermutation(_zshift_pow(k), _zshift_pow(-k), shift=k, name=f"zshift^{k}")
        rng = random.Random(71 + k)
        powers = [power(g, j) for g in range(3) for j in (-3, -2, -1, 1, 2, 3)]
        for _ in range(80):
            phase = extension.PointPhase(
                poset.add_words(Condition(), frozenset(rng.sample(powers, rng.randrange(4))))
            )
            for _ in range(rng.randrange(8)):
                g, n = rng.randrange(3), rng.randrange(24)
                phase.domain(g, n, lambda: rng.randrange(24))
            p = phase.close()
            gen = rng.randrange(3)
            bound = hit_threshold(p, gen, sigma)
            assert bound is not None, p.to_json()
            for n in range(bound, bound + 40):
                assert isinstance(hit_kept(p, gen, sigma, n), Condition), (p.to_json(), gen, n)


class TestMadSetPoint:
    def test_prefers_one(self):
        p = cond({}, ["g0", "g1"], PosetMode.MAD)
        p = mad_set_point(p, 0, 3)
        assert p.s.get(0).fwd[3] == 1

    def test_avoids_frozen_intersection(self):
        p = cond({1: [(3, 1)]}, ["g0", "g1"], PosetMode.MAD)
        p = mad_set_point(p, 0, 3)
        assert p.s.get(0).fwd[3] == 0

    def test_unfrozen_letter_free(self):
        p = cond({1: [(3, 1)]}, ["g1"], PosetMode.MAD)
        p = mad_set_point(p, 0, 3)
        assert p.s.get(0).fwd[3] == 1
