"""Differential tests for the step-local build paths.

Each fast path is checked against the code it replaced.  The pair rules
of poset.leq are checked against the reference order of
tests/test_class_walk.py, which rebuilds every agreement set and 1-set on
each call.  Copied verbatim below are Extension.choose, which probed one
value at a time from the floor, and the PartialMap lookups, built from
the sorted pairs.  The derived facts kept on value types are checked
against a fresh computation: the assignment tables built without a
re-sort, the partial-injection fact, the strong reduction kept on a
condition and the pair set of a map a closed phase made from its lookups.
Maps are grown and inverted through tests/copy_path.py, as the copy path
did.
"""

from __future__ import annotations

import gc
import random
import weakref
from dataclasses import FrozenInstanceError
from typing import Optional

import pytest

import copy_path
from copy_path import map_inverse, map_with_pair
from test_class_walk import reference_leq

from cofinitary.evaluation import Assignment, PartialMap
from cofinitary.extension import (
    CertificateError,
    ContractViolation,
    Extension,
    ExtensionCertificate,
    PointPhase,
    domain_extend,
    strong_reduction,
)
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, leq, pair_word
from cofinitary.sampling import sample_condition, sample_extension
from cofinitary.words import single


# -- the references: the replaced code, verbatim -------------------------------


def reference_choose(
    self: copy_path.Extension, floor: int = 0, ceiling: Optional[int] = None
) -> int:
    """Extension.choose before the one-step chooser, on the copy path."""
    m = max(floor, 0)
    while True:
        if ceiling is not None and m > ceiling:
            raise CertificateError(
                f"chooser exceeded ceiling {ceiling} for g{self.gen} at {self.point}"
            )
        if self.certificate.admits(m):
            if leq(self.apply(m), self.condition):
                return m
            raise ContractViolation(
                f"certificate admitted {m} for g{self.gen} at {self.point} "
                "but the extension fails the order check"
            )
        m += 1


def reference_fwd(pm: PartialMap) -> dict[int, int]:
    return dict(sorted(pm.pairs))


def reference_rev(pm: PartialMap) -> dict[int, int]:
    return {m: n for n, m in sorted(pm.pairs)}


# -- the order kernels ---------------------------------------------------------

GENS = [0, 1, 2, 3]
PAIR_MODES = [PosetMode.EDF, PosetMode.MAD]


def _values(mode: PosetMode) -> tuple[int, ...]:
    return DISCIPLINES[mode].values or tuple(range(4))


def _entries(rng: random.Random, mode: PosetMode) -> frozenset:
    if mode is PosetMode.MAD:
        return frozenset(single(g) for g in rng.sample(GENS, rng.randrange(len(GENS) + 1)))
    return frozenset(pair_word(*rng.sample(GENS, 2)) for _ in range(rng.randrange(5)))


def _raw_condition(rng: random.Random, mode: PosetMode) -> Condition:
    """Unvalidated material: small domains and value sets, so repeated
    points (non-functional maps), agreements and common 1-points are
    frequent."""
    table = {}
    for g in GENS:
        pairs = {(rng.randrange(6), rng.choice(_values(mode))) for _ in range(rng.randrange(6))}
        table[g] = PartialMap(frozenset(pairs))
    return Condition(Assignment(table), _entries(rng, mode), mode)


def _grown(rng: random.Random, q: Condition) -> Condition:
    """q with one to four pairs added, on one map or several, and sometimes
    more side words."""
    s = q.s
    for _ in range(rng.randint(1, 4)):
        s = s.with_pair(rng.choice(GENS), rng.randrange(8), rng.choice(_values(q.mode)))
    words = q.words | _entries(rng, q.mode) if rng.random() < 0.3 else q.words
    return Condition(s, words, q.mode)


def _dropped(rng: random.Random, c: Condition) -> Condition:
    """c without one of its pairs, or without one whole map."""
    g = rng.choice(list(c.s.table))
    if rng.random() < 0.5:
        return Condition(c.s.restrict(set(c.s.table) - {g}), c.words, c.mode)
    pm = c.s.get(g)
    table = dict(c.s.table)
    table[g] = PartialMap(pm.pairs - {rng.choice(sorted(pm.pairs))})
    return Condition(Assignment(table), c.words, c.mode)


@pytest.mark.parametrize("mode", PAIR_MODES, ids=lambda m: m.value)
def test_pair_kernels_match_reference_on_raw_material(mode):
    rng = random.Random(f"raw-{mode.value}")
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        q = _raw_condition(rng, mode)
        p = _grown(rng, q)
        pairs = [
            (p, q),
            (q, p),
            (_dropped(rng, p), q),  # p lost a pair or a whole map of q's
            (p, _grown(rng, q)),  # q holds pairs p lacks
        ]
        for a, b in pairs:
            expected = reference_leq(a, b)
            assert leq(a, b) == expected
            verdicts[expected] += 1
    # both verdicts are common, so a kernel that always answers one way fails
    assert min(verdicts.values()) > 300


def test_an_agreement_q_already_had_is_not_new():
    # Unvalidated edf maps: the frozen pair g0 g1^-1 agrees at 3 in q when
    # both maps hold (3, 1).  p adds (3, 2) to both, and a map's lookup
    # keeps the largest value at a repeated point, so they agree at 3 in p
    # too, at another value: not a new agreement.  Where q's maps disagree
    # at 3 it is one.
    words = frozenset({pair_word(0, 1)})
    for other, want in ((1, True), (0, False)):
        table = {0: PartialMap(frozenset({(3, 1)})), 1: PartialMap(frozenset({(3, other)}))}
        q = Condition(Assignment(table), words, PosetMode.EDF)
        p = Condition(q.s.with_pair(0, 3, 2).with_pair(1, 3, 2), words, PosetMode.EDF)
        assert reference_leq(p, q) is want
        assert leq(p, q) is want


@pytest.mark.parametrize("mode", PAIR_MODES, ids=lambda m: m.value)
def test_pair_kernels_match_reference_on_sampled_conditions(mode):
    rng = random.Random(f"sampled-{mode.value}")
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        base = sample_condition(rng, mode, GENS, max_pairs=6, max_words=4, value_range=10)
        ext = sample_extension(rng, base)
        other = sample_extension(rng, base)
        for a, b in [(ext, base), (base, ext), (ext, other), (other, ext)]:
            expected = reference_leq(a, b)
            assert leq(a, b) == expected
            verdicts[expected] += 1
        # one pair that may break the frozen law, on a frozen map when there is one
        frozen = sorted({w.letters[0].gen for w in ext.words} | {0})
        g = rng.choice(frozen)
        n = rng.randrange(12)
        if n not in ext.s.get(g).fwd:
            bad = Condition(ext.s.with_pair(g, n, rng.choice(_values(mode))), ext.words, mode)
            expected = reference_leq(bad, ext)
            assert leq(bad, ext) == expected
            verdicts[expected] += 1
    assert min(verdicts.values()) > 100


# -- the chooser ---------------------------------------------------------------


def _linear_least(cert: ExtensionCertificate, floor: int) -> int:
    m = max(floor, 0)
    while not cert.admits(m):
        m += 1
    return m


def test_least_admitted_matches_a_linear_scan():
    rng = random.Random("least")
    for _ in range(2000):
        top = rng.randrange(1, 60)
        density = rng.random()
        forbidden = {v for v in range(top) if rng.random() < density}
        if rng.random() < 0.3:  # a long forbidden run
            start = rng.randrange(top)
            forbidden |= set(range(start, start + rng.randrange(40)))
        cert = ExtensionCertificate.of(forbidden)
        bound = max(cert.forbidden, default=-1) + 1
        floors = [-3, -1, 0, rng.randrange(-5, top + 5), bound - 1, bound, bound + 2]
        for floor in floors:
            assert cert.least_admitted(floor) == _linear_least(cert, floor)


def _outcome(fn):
    try:
        return ("value", fn())
    except (CertificateError, ContractViolation) as err:
        return (type(err).__name__, str(err))


@pytest.mark.parametrize("mode", [PosetMode.COFINITARY, PosetMode.ADP, PosetMode.EDF])
def test_choose_matches_the_probing_chooser(mode):
    rng = random.Random(f"choose-{mode.value}")
    seen = set()
    for _ in range(150):
        p = sample_condition(rng, mode, [0, 1, 2], max_pairs=6, max_words=3, value_range=12)
        g = rng.choice([0, 1, 2])
        n = next(v for v in range(40) if v not in p.s.get(g).fwd)
        ext, ref = domain_extend(p, g, n), copy_path.domain_extend(p, g, n)
        assert ext.certificate == ref.certificate
        floor = rng.randrange(-4, 20)
        least = _linear_least(ext.certificate, floor)
        # at the ceiling, one past it, and unbounded
        for ceiling in (None, least, least - 1):
            got = _outcome(lambda: ext.choose(floor, ceiling))
            want = _outcome(lambda: reference_choose(ref, floor, ceiling))
            assert got == want
            seen.add(got[0])
    assert seen == {"value", "CertificateError"}


def test_choose_keeps_the_authoritative_order_check():
    # a certificate that admits a bad value: the identity on g0 with g0 frozen
    p = Condition(Assignment({0: PartialMap(frozenset({(0, 0)}))}), frozenset({single(0)}))
    cert = ExtensionCertificate.of({0})
    ext = Extension(PointPhase(p), 0, 1, cert, "domain")
    got = _outcome(lambda: ext.choose())
    assert got == _outcome(lambda: reference_choose(copy_path.Extension(p, 0, 1, cert, "domain")))
    assert got[0] == "ContractViolation"


# -- the map lookups ------------------------------------------------------------


def _check_lookups(pm: PartialMap) -> None:
    assert pm.fwd == reference_fwd(pm)
    assert pm.rev == reference_rev(pm)


@pytest.mark.parametrize("span", [4, 40], ids=["dense", "sparse"])
def test_with_pair_and_inverse_chains_keep_the_caches(span):
    """Small spans repeat keys and values (non-functional, non-injective
    maps); large spans keep most maps injective."""
    rng = random.Random(f"chain-{span}")
    for _ in range(300):
        pairs = {(rng.randrange(span), rng.randrange(span)) for _ in range(rng.randrange(4))}
        pm = PartialMap(frozenset(pairs))
        for _ in range(rng.randrange(1, 12)):
            if rng.random() < 0.25:
                before = pm
                pm = map_inverse(pm)
                assert pm.pairs == frozenset((m, n) for n, m in before.pairs)
            else:
                pm = map_with_pair(pm, rng.randrange(span), rng.randrange(span))
            if rng.random() < 0.2:
                _check_lookups(pm)
        _check_lookups(pm)


# -- tables built without a re-sort ---------------------------------------------


def _check_table(a: Assignment) -> None:
    """a's table is what the sorting constructor makes of it, key order
    included."""
    assert list(a.table.items()) == list(Assignment(dict(a.table)).table.items())


def test_assignment_steps_keep_the_table_clean():
    rng = random.Random("tables")
    inserted = 0
    for _ in range(300):
        gens = rng.sample(range(8), rng.randrange(4))
        a = Assignment({g: PartialMap(frozenset({(rng.randrange(9), g)})) for g in gens})
        for _ in range(rng.randrange(1, 12)):
            roll = rng.random()
            g = rng.randrange(8)
            if roll < 0.7:
                inserted += g not in a.table
                a = a.with_pair(g, rng.randrange(12), rng.randrange(12))
            else:
                a = a.restrict(rng.sample(range(8), rng.randrange(9)))
            _check_table(a)
    assert inserted > 300  # new generators land before, between and after old ones


# -- the partial-injection fact -------------------------------------------------


def _check_injection(pm: PartialMap) -> None:
    assert pm.injection == (pm.is_functional() and pm.is_injective())


def test_injection_fact_on_hand_built_maps():
    cases = {
        frozenset(): True,
        frozenset({(0, 1), (1, 2)}): True,
        frozenset({(0, 1), (0, 2)}): False,  # not functional
        frozenset({(0, 1), (2, 1)}): False,  # not injective
        frozenset({(0, 1), (0, 2), (3, 2)}): False,  # neither
    }
    for pairs, want in cases.items():
        pm = PartialMap(pairs)
        assert pm.injection is want
        _check_injection(pm)
        _check_injection(map_inverse(pm))


@pytest.mark.parametrize("span", [4, 40], ids=["dense", "sparse"])
def test_injection_fact_along_drawn_chains(span):
    rng = random.Random(f"inj-{span}")
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        pm = PartialMap(frozenset({(rng.randrange(span), rng.randrange(span)) for _ in range(3)}))
        for _ in range(rng.randrange(1, 10)):
            if rng.random() < 0.3:
                pm = map_inverse(pm)
            else:
                pm = map_with_pair(pm, rng.randrange(span), rng.randrange(span))
            if rng.random() < 0.5:  # check mid-chain too
                _check_injection(pm)
        _check_injection(pm)
        verdicts[pm.injection] += 1
    assert min(verdicts.values()) > 10, verdicts


# -- the strong reduction kept on a condition ------------------------------------

def _reduced(p: Condition, keep):
    try:
        return strong_reduction(p, keep).to_json()
    except (ValueError, CertificateError, ContractViolation) as err:
        return (type(err).__name__, str(err))


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_reduction_memo_matches_a_fresh_reduction(mode):
    """Each query on p must equal a reduction of a fresh copy of p, whatever
    p was asked before: a memo that ignores keep fails."""
    rng = random.Random(f"memo-{mode.value}")
    gens = [0, 1, 2, 3]
    differ = 0
    for _ in range(120):
        p = sample_condition(rng, mode, gens, max_pairs=5)
        a = frozenset(rng.sample(gens, rng.randrange(len(gens) + 1)))
        b = frozenset(rng.sample(gens, rng.randrange(len(gens) + 1)))
        c = Condition.from_json(p.to_json())
        fresh = {keep: _reduced(Condition(c.s, c.words, c.mode), keep) for keep in (a, b)}
        differ += fresh[a] != fresh[b]
        for keep in (a, a, b, a, a):
            assert _reduced(p, keep) == fresh[keep]
        if not isinstance(fresh[b], tuple):
            first = strong_reduction(p, set(b))  # any iterable keep
            assert strong_reduction(p, b) is first
    assert differ > 40


def _stepped(p: Condition, gen: int, n: int) -> Condition:
    """p with n added to gen's domain by a point phase of its own."""
    phase = PointPhase(p)
    phase.domain(gen, n)
    return phase.close()


def test_memos_keep_no_parent_alive():
    rng = random.Random("alive")
    for mode in PosetMode:
        p = sample_condition(rng, mode, [0, 1, 2])
        chain = [p]
        for n in range(30, 36):
            if n not in p.s.get(0).fwd:
                p = _stepped(p, 0, n)
                strong_reduction(p, {0, 1})
                p.occurring()
                chain.append(p)
        refs = [weakref.ref(c) for c in chain[:-1]]
        del chain
        gc.collect()
        assert all(r() is None for r in refs), mode



# -- maps made from lookups ------------------------------------------------------


def _eager(pm: PartialMap) -> PartialMap:
    """pm rebuilt from its pair set, with every fact built from the pairs."""
    return PartialMap(frozenset(pm.pairs))


def _check_against_eager(pm: PartialMap, pairs: frozenset, rng: random.Random) -> None:
    """pm holds exactly `pairs`, tracked apart from the map, and every fact
    of it agrees with a map built from them; the facts are read in a drawn
    order."""
    ref = PartialMap(pairs)
    reads = [
        lambda: pm.fwd == reference_fwd(ref),
        lambda: pm.rev == reference_rev(ref),
        lambda: pm.injection == ref.injection,
        lambda: pm.is_functional() == ref.is_functional(),
        lambda: pm.is_injective() == ref.is_injective(),
        lambda: len(pm) == len(pairs),
        lambda: all((pair in pm) == (pair in pairs) for pair in _probes(pairs)),
        lambda: pm == ref and ref == pm and hash(pm) == hash(ref),
        lambda: map_inverse(map_inverse(pm)) == ref,
        lambda: pm.pairs == pairs,
    ]
    rng.shuffle(reads)
    for read in reads:
        assert read()


def _probes(pairs: frozenset) -> list[tuple[int, int]]:
    """The pairs themselves and near misses: each key with another value."""
    return [*pairs, *((n, m + 1) for n, m in pairs), (99, 99)]


def _steps(rng: random.Random, mode: PosetMode, p: Condition):
    """A drawn chain of conditions from p in the mode: point steps and, in
    the injective modes, the range steps' mirrored maps (map_inverse)."""
    for _ in range(rng.randrange(1, 10)):
        yield p
        if DISCIPLINES[mode].injective and rng.random() < 0.25:
            yield copy_path.mirror(p, rng.choice(GENS))
        p = sample_extension(rng, p, steps=rng.randint(1, 3))
    yield p


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_lazy_maps_match_eager_maps_on_drawn_chains(mode):
    """The maps closed phases make (PartialMap.of_lookups) agree with maps
    built from their pair sets."""
    rng = random.Random(f"lazy-{mode.value}")
    for _ in range(60):
        start = sample_condition(rng, mode, GENS, max_pairs=4, value_range=12)
        for c in _steps(rng, mode, start):
            for pm in c.s.table.values():
                _check_against_eager(pm, _eager(pm).pairs, rng)


@pytest.mark.parametrize("span", [3, 6, 40], ids=["dense", "mixed", "sparse"])
def test_lazy_maps_match_a_tracked_pair_set(span):
    """Raw map_with_pair/map_inverse chains, pairs tracked beside the map: small
    spans repeat keys (a step that makes the map non-functional must keep
    the pair set) and values (non-injective maps invert by their pairs)."""
    rng = random.Random(f"tracked-{span}")
    kinds = {"functional": 0, "not functional": 0}
    for _ in range(400):
        pairs = frozenset()
        pm = PartialMap()
        for _ in range(rng.randrange(1, 14)):
            if rng.random() < 0.2:
                pm, pairs = map_inverse(pm), frozenset((m, n) for n, m in pairs)
            else:
                n, m = rng.randrange(span), rng.randrange(span)
                pm, pairs = map_with_pair(pm, n, m), pairs | {(n, m)}
            if rng.random() < 0.3:
                _check_against_eager(pm, pairs, rng)
        _check_against_eager(pm, pairs, rng)
        kinds["functional" if pm.is_functional() else "not functional"] += 1
    assert min(kinds.values()) > 40, kinds


def test_maps_refuse_assignment_and_deletion():
    for pm in (PartialMap(frozenset({(0, 1), (2, 1)})), PartialMap.of_lookups({0: 1, 2: 3})):
        for name in ("pairs", "fwd", "rev", "injection"):
            with pytest.raises(FrozenInstanceError):
                setattr(pm, name, getattr(pm, name))
            with pytest.raises(FrozenInstanceError):
                delattr(pm, name)
