"""Differential tests for the value summary.

Assignment.summary() is (V, gap): a new set of every domain and image value
of the maps, and the least natural outside V.  A point phase takes its
base's summary as its own when it opens and grows V in place, so it scans
the maps once.  The finite-word certificate {n} | V is read off it, and
the chooser's scan starts at gap.  Each is checked here against a fresh
scan: the summary after every way an assignment is made, and every
certificate a point phase makes in long builds and sampled conditions,
against ExtensionCertificate.of of the set it replaced, read off the
condition the phase's lookups stand for.

A phase builds V and gap on its first certificate, from its base's
summary and the pairs it has kept, so a phase that only searches for hits
builds neither.  Lazy phases are checked against phases that build them
when they open, step for step, on sampled conditions in every mode.

The checks catch these broken copies of the code: a phase step not
advancing gap past n or past m, and a summary that hands back one set
twice, which a phase would then grow under the assignment.
"""

from __future__ import annotations

import random

import pytest

from copy_path import mirror
from test_incremental_checks import ZSHIFT, follow_zshift
from test_step_local import _linear_least

from cofinitary import extension
from cofinitary.builder import build
from cofinitary.evaluation import Assignment, PartialMap
from cofinitary.extension import ExtensionCertificate, PointPhase, domain_extend, hit_search
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, add_words, side_index
from cofinitary.sampling import sample_condition, sample_extension
from cofinitary.words import Letter, single


def _fresh(s: Assignment) -> tuple[frozenset[int], int]:
    """(V, gap) by a scan of the pairs."""
    values = frozenset(v for pm in s.table.values() for pair in pm.pairs for v in pair)
    gap = 0
    while gap in values:
        gap += 1
    return values, gap


def _check(s: Assignment) -> None:
    assert s.summary() == _fresh(s)
    assert s.summary()[0] is not s.summary()[0]  # a new set each time


def _random_assignment(rng: random.Random, span: int) -> Assignment:
    return Assignment({
        g: PartialMap(frozenset(
            (rng.randrange(span), rng.randrange(span)) for _ in range(rng.randrange(5))
        ))
        for g in range(3)
    })


@pytest.mark.parametrize("span", [4, 40], ids=["dense", "sparse"])
def test_summary_matches_a_fresh_scan_along_chains(span):
    """Small spans repeat keys and values and fill [0, span), so gap moves
    past runs; large spans leave holes."""
    rng = random.Random(f"summary-{span}")
    for _ in range(300):
        s = _random_assignment(rng, span)
        for _ in range(rng.randrange(1, 14)):
            op = rng.random()
            if op < 0.7:
                s = s.with_pair(rng.randrange(3), rng.randrange(span), rng.randrange(span))
            elif op < 0.8:
                s = s.restrict(rng.sample(range(3), rng.randrange(4)))
            elif op < 0.9:
                s = s.union(_random_assignment(rng, span))
            else:
                s = Assignment.from_json(s.to_json())
            if rng.random() < 0.3:
                _check(s)
        _check(s)


def test_summary_of_edge_assignments():
    assert Assignment().summary() == (set(), 0)
    s = Assignment().with_pair(0, 0, 0)
    assert _fresh(s) == (frozenset({0}), 1)
    s = Assignment()
    for n, m in [(1, 3), (0, 2), (5, 4)]:  # gap stays, then jumps past a run
        s = s.with_pair(0, n, m)
        _check(s)
    assert s.summary()[1] == 6


def test_a_point_at_the_gap_is_stepped_over():
    # V = {0, 1, 3}, so gap = 2; n = 2 is forbidden too, and the least
    # admitted value is 4, one scan step past gap
    s = Assignment({0: PartialMap(frozenset({(0, 1), (1, 3)}))})
    p = add_words(Condition(s), [single(0)])
    cert = domain_extend(p, 0, 2).certificate
    assert cert.gap == 2
    _check_certificate(cert, frozenset({0, 1, 2, 3}))
    assert cert.least_admitted(0) == 4 and cert.least_admitted(3) == 4


# -- every certificate of a run ------------------------------------------------


def _forbidden_edf(p: Condition, gen: int, n: int) -> set[int]:
    # only a new agreement with a frozen partner at the new point is dangerous
    forb = set()
    for w in p.words:
        a, b = (letter.gen for letter in w.letters)
        if gen in (a, b):
            forb.add(p.s.get(b if a == gen else a).fwd.get(n))
    return forb - {None}


def _reference_forbidden(p: Condition, gen: int, n: int) -> frozenset[int]:
    """The set the certificate stood for before the summary: _forbidden_edf,
    the image of gen when no side word holds it, else {n} and a scan of
    every value of s."""
    if DISCIPLINES[p.mode].kernel == "agreement":
        return frozenset(_forbidden_edf(p, gen, n))
    tries = side_index("walk", p.words).tries
    if Letter(gen, 1) not in tries and Letter(gen, -1) not in tries:
        return frozenset(p.s.get(gen).rev)
    return _fresh(p.s)[0] | {n}


def _check_certificate(cert: ExtensionCertificate, want: frozenset[int]) -> None:
    ref = ExtensionCertificate.of(want)
    assert cert.forbidden == ref.forbidden
    assert all(v in cert.forbidden for v in range(cert.gap))
    bound = max(ref.forbidden, default=-1) + 1  # every value from here on is admitted
    rng = random.Random(bound)
    floors = {-3, -1, 0, cert.gap - 1, cert.gap, cert.gap + 1, bound - 1, bound,
              bound + 2, rng.randrange(-2, bound + 3)}
    for floor in floors:
        assert cert.least_admitted(floor) == _linear_least(ref, floor)


@pytest.fixture
def certificates(monkeypatch):
    """Every certificate a point phase makes (domain_extend's and
    range_extend's included), with the condition the phase's lookups stand
    for (a range step's mirror of it) and the arguments.  A certificate may
    read the phase's own value set, which its next step grows, so it is
    recorded over a copy."""
    made = []
    real = extension.PointPhase.certificate

    def recording(phase, gen, point, direction):
        cert = real(phase, gen, point, direction)
        gens = set(phase.base.s.table) | set(phase.fwd)
        table = {g: PartialMap(frozenset(phase.fwd[g].items())) for g in gens}
        p = Condition(Assignment(table), phase.base.words, phase.base.mode)
        if direction == "range":
            p = mirror(p, gen)
        kept = ExtensionCertificate(frozenset(cert.forbidden), cert.gap)
        made.append((p, gen, point, kept))
        return cert

    monkeypatch.setattr(extension.PointPhase, "certificate", recording)
    return made


def _check_all(made) -> int:
    """Checks every certificate; returns how many have a gap to start from."""
    for p, gen, n, cert in made:
        _check_certificate(cert, _reference_forbidden(p, gen, n))
    return sum(cert.gap > 0 for *_, cert in made)


def test_certificates_of_long_builds(certificates):
    runs = [
        lambda: build(PosetMode.COFINITARY, [0, 1], point_budget=200, word_budget=2, seed=3),
        lambda: build(
            PosetMode.ADP, [0, 1, 2], point_budget=100,
            word_budget=DISCIPLINES[PosetMode.ADP].word_budget, seed=3,
        ),
        lambda: build(
            PosetMode.EDF, [0, 1, 2], point_budget=40,
            word_budget=DISCIPLINES[PosetMode.EDF].word_budget, seed=3,
        ),
    ]
    for run in runs:
        run()
    assert {p.mode for p, *_ in certificates} == {
        PosetMode.COFINITARY, PosetMode.ADP, PosetMode.EDF
    }
    assert len(certificates) > 1000, len(certificates)
    assert _check_all(certificates) > 500


@pytest.mark.parametrize("case", ["empty", "zshift"])
def test_certificates_of_sampled_conditions(certificates, case):
    """Sampled conditions choose from random floors, below and above gap.
    In the zshift case each one then takes hit steps toward zshift and
    a few more point steps, whose certificates see maps that follow the
    shift at some points."""
    rng = random.Random(f"certificates-{case}")
    for _ in range(150):
        for mode in (PosetMode.COFINITARY, PosetMode.ADP):
            p = sample_condition(rng, mode, range(3), max_pairs=8, max_words=3)
            if case == "zshift":
                sample_extension(rng, follow_zshift(rng, p, range(3)), steps=3)
    assert len(certificates) > 800, len(certificates)
    assert _check_all(certificates) > 50


# -- the summary is built on the first certificate ------------------------------


class _Recording(PointPhase):
    """A phase that records each certificate it makes; an eager one builds
    V and gap when it opens."""

    def __init__(self, base: Condition, eager: bool) -> None:
        super().__init__(base)
        self.made = []
        self.kept_first = 0  # the pairs kept before the first certificate
        if eager and self.discipline.kernel == "walk":
            self.values, self.gap = base.s.summary()

    def certificate(self, gen, point, direction):
        if not self.made:
            self.kept_first = len(self.added)
        cert = super().certificate(gen, point, direction)
        self.made.append((gen, point, direction, frozenset(cert.forbidden), cert.gap))
        return cert


def _step(phase: PointPhase, op: tuple):
    """The outcome of one step: its value, or its refusal's type and text."""
    kind, gen, point, arg = op
    try:
        if kind == "hit":
            return phase.hit(gen, ZSHIFT, point, arg)
        if kind == "range":
            return phase.range(gen, point)
        return phase.domain(gen, point, lambda: arg)
    except (ValueError, extension.ContractViolation) as err:
        return type(err), str(err)


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_lazy_and_eager_summaries_make_the_same_certificates(mode):
    rng = random.Random(f"lazy-{mode.value}")
    late = 0  # lazy phases that built V after keeping pairs
    for _ in range(120):
        p = sample_condition(rng, mode, range(3), max_pairs=8, max_words=3)
        kinds = ["hit", "domain", "range"] if DISCIPLINES[mode].injective else ["hit", "domain"]
        ops = [
            (rng.choice(kinds), rng.randrange(3), rng.randrange(30), rng.randrange(40))
            for _ in range(rng.randrange(1, 10))
        ]
        lazy, eager = _Recording(p, eager=False), _Recording(p, eager=True)
        for op in ops:
            assert _step(lazy, op) == _step(eager, op), op
        assert lazy.made == eager.made
        assert lazy.added == eager.added
        assert lazy.close().s == eager.close().s
        late += lazy.kept_first > 0
    if DISCIPLINES[mode].kernel != "ones":  # MAD chooses by mad_value, not certificates
        assert late > 10, late


def test_a_hit_search_builds_no_summary(monkeypatch):
    calls = []
    real = Assignment.summary

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(Assignment, "summary", counting)
    rng = random.Random("hit-search")
    for _ in range(40):
        p = sample_condition(rng, PosetMode.COFINITARY, range(3), max_pairs=8, max_words=3)
        calls.clear()
        hit_search(p, rng.randrange(3), ZSHIFT, rng.randrange(20), 32)
        phase = PointPhase(p)
        phase.hit(rng.randrange(3), ZSHIFT, rng.randrange(20), 32)
        assert calls == []
        phase.domain(0, 100)
        assert len(calls) == 1
