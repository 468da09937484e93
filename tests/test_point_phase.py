"""The builder's transient point phase against the copy path it replaced.

builder.build extends one mutable set of lookups in place between freezes
(builder._PointPhase) and makes a Condition only where one is kept.  The
reference is test_group_freeze.reference_build, which steps through
point_step / range_extend / mad_set_point and builds a new condition per
pair.  Both must give the same report, goal log included, on drawn builds
of every mode, and abort on the same goal with the same message, the same
cause and equal partial reports when the chooser runs past its ceiling.
A kept condition must not change when the phase steps on, each step must
keep validate's rules and its order check, and the per-pair validation
must say what validate says about the grown map.
"""

from __future__ import annotations

import random

import pytest

from test_group_freeze import reference_build
from test_step_local import reference_leq

from cofinitary import builder, extension, poset
from cofinitary.builder import BuildError, build, hit_goal
from cofinitary.cli import encode_report
from cofinitary.evaluation import Assignment, PartialMap, zshift
from cofinitary.extension import ExtensionCertificate
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, leq, pair_problems, validate
from cofinitary.words import Letter, Word, single


def _draws(mode: PosetMode, count: int):
    """Drawn build arguments: 1-5 generators, up to 120 points, word
    budgets 1-3 where the shape takes one, and a seed."""
    rng = random.Random(f"draws-{mode.value}")
    for _ in range(count):
        yield dict(
            mode=mode,
            generators=sorted(rng.sample(range(7), rng.randint(1, 5))),
            point_budget=rng.randint(1, 120),
            word_budget=DISCIPLINES[mode].word_budget or rng.randint(1, 3),
            seed=rng.randrange(1000),
        )


def _same_report(new, old) -> None:
    assert new.goal_log == old.goal_log
    assert encode_report(new.to_json()) == encode_report(old.to_json())


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_drawn_builds_match_the_copy_path(mode):
    for kwargs in _draws(mode, 12):
        _same_report(build(**kwargs), reference_build(**kwargs))


def _abort(run, kwargs):
    with pytest.raises(BuildError) as err:
        run(**kwargs)
    return err.value


@pytest.mark.parametrize(
    "mode", [PosetMode.COFINITARY, PosetMode.ADP, PosetMode.EDF], ids=lambda m: m.value
)
def test_ceiling_aborts_match_the_copy_path(mode):
    # A ceiling a little above the points makes the chooser run past it
    # part way through; the edf certificate forbids the partners' values,
    # so a ceiling of 0 or 1 stops it.
    rng = random.Random(f"ceiling-{mode.value}")
    aborted = 0
    for kwargs in _draws(mode, 12):
        points = kwargs["point_budget"]
        if mode is PosetMode.EDF:
            kwargs["value_ceiling"] = rng.randint(0, 1)
        else:
            kwargs["value_ceiling"] = rng.randint(points, 3 * points + 4)
        try:
            report = build(**kwargs)
        except BuildError:
            new, old = _abort(build, kwargs), _abort(reference_build, kwargs)
            assert str(new) == str(old)
            assert type(new.__cause__) is type(old.__cause__) is extension.CertificateError
            assert str(new.__cause__) == str(old.__cause__)
            _same_report(new.partial, old.partial)
            aborted += 1
        else:
            _same_report(report, reference_build(**kwargs))
    assert aborted >= 4, aborted


def _state(c: Condition):
    """Everything a kept condition shows: its JSON and its maps' lookups."""
    return (
        encode_report(c.to_json()),
        {g: (dict(pm.fwd), dict(pm.rev)) for g, pm in c.s.table.items()},
    )


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_kept_conditions_do_not_change_as_the_build_steps_on(mode, monkeypatch):
    # Every condition a point phase hands over as it closes (at each
    # freeze, for the report, before a hit goal) is recorded as it was
    # made and compared after the build; the cofinitary build also meets
    # hit goals after its points.
    kept = []
    close = builder._PointPhase.close

    def recording(phase):
        c = close(phase)
        kept.append((c, _state(c)))
        return c

    monkeypatch.setattr(builder._PointPhase, "close", recording)
    goals = [hit_goal(0, zshift(), 10)] if mode is PosetMode.COFINITARY else []
    report = build(mode, [0, 1, 2], point_budget=40,
                   word_budget=DISCIPLINES[mode].word_budget or 2, seed=4, extra_goals=goals)
    assert len(kept) >= 2  # a freeze and the report
    for c, state in kept:
        assert _state(c) == state
    if goals:  # the hit stepped on from the last phase's condition
        assert report.final.s != kept[-1][0].s


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_a_closed_phase_hands_over_maps_that_later_phases_do_not_change(mode):
    # A chain of phases, one point each, as a build runs them between
    # freezes: each closes into a condition, and the next opens on it and
    # steps on.  Every condition keeps its maps, their lookups included; a
    # closed phase takes no step.
    gens = [0, 1, 2]
    cond = build(mode, gens, point_budget=12,
                 word_budget=DISCIPLINES[mode].word_budget or 2, seed=2).final
    chain = []
    for n in range(12, 30):
        phase = builder._PointPhase(cond, gens)
        for g in gens:
            fwd, rev = phase.fwd[g], phase.rev.get(g)
            if n not in fwd:
                phase.domain(g, n, None)
            if rev is not None and n not in rev:
                phase.range(g, n, None)
        cond = phase.close()
        chain.append((cond, _state(cond)))
        with pytest.raises((TypeError, AttributeError)):  # its lookups are gone
            phase.domain(0, n + 100, None)
    for c, state in chain:
        assert _state(c) == state
        for pm in c.s.table.values():
            assert pm.fwd == dict(sorted(pm.pairs))
            assert pm.rev == {m: k for k, m in sorted(pm.pairs)}
        assert validate(c) == []
    for earlier, later in zip(chain, chain[1:]):
        assert leq(later[0], earlier[0]) and later[1] != earlier[1]


# -- each step keeps its checks ------------------------------------------------


@pytest.mark.parametrize(
    "direction, problem", [("domain", "not injective"), ("range", "not functional")]
)
def test_an_admitted_value_the_map_holds_is_rejected_by_validation(
    direction, problem, monkeypatch
):
    # From point 5 on, the phase's certificates in one direction are
    # patched to admit 0, which g0's map (or g1's) already holds as a value
    # (domain) or a point (range): the step's validation must reject the
    # pair with validate's message before the order kernel reads the
    # lookups.
    real = builder._PointPhase.certificate

    def admits_0(phase, gen, point, way):
        if way == direction and point >= 5:
            return ExtensionCertificate(frozenset(), 0)
        return real(phase, gen, point, way)

    monkeypatch.setattr(builder._PointPhase, "certificate", admits_0)
    with pytest.raises(BuildError) as err:
        build(PosetMode.COFINITARY, [0, 1], point_budget=8, word_budget=1, seed=0)
    goal = str(err.value).split()[1]
    gen = goal[len(f"{direction}:g"):].split("@")[0]
    assert goal.startswith(f"{direction}:g") and goal.endswith("@5")
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.__cause__) == f"map for g{gen} is {problem}"
    assert validate(err.value.partial.final) == []


def test_a_mad_value_outside_the_value_set_is_rejected(monkeypatch):
    monkeypatch.setattr(extension, "mad_value", lambda *args: 2)
    with pytest.raises(BuildError) as err:
        build(PosetMode.MAD, [0, 1], point_budget=4, word_budget=1, seed=0)
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.__cause__) == "map for g0 takes values outside {0,1}: [2]"
    assert "domain:g0@0" in str(err.value)


@pytest.mark.parametrize("mode", [PosetMode.EDF, PosetMode.MAD], ids=lambda m: m.value)
def test_a_pair_kernel_catches_a_bad_value(mode, monkeypatch):
    # edf: the certificate is patched to admit a partner's value; mad: the
    # rule always says 1.  Either gives a frozen pair a new agreement or
    # common 1-point, which the order kernel must refuse.
    if mode is PosetMode.EDF:
        monkeypatch.setattr(ExtensionCertificate, "least_admitted", lambda self, floor=0: 0)
        want = "but the extension fails the order check"
    else:
        monkeypatch.setattr(extension, "mad_value", lambda *args: 1)
        want = extension.MAD_NOT_BELOW
    with pytest.raises(BuildError) as err:
        build(mode, [0, 1, 2], point_budget=30, word_budget=DISCIPLINES[mode].word_budget, seed=1)
    assert isinstance(err.value.__cause__, extension.ContractViolation)
    assert want in str(err.value.__cause__)
    partial = err.value.partial.final
    assert validate(partial) == []
    # the refused pair is not in the partial report
    goal = str(err.value).split()[1]
    gen, point = goal[len("domain:g"):].split("@")
    assert int(point) not in partial.s.get(int(gen)).fwd


# -- the per-pair validation ---------------------------------------------------


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_pair_problems_say_what_validate_says(mode):
    d = DISCIPLINES[mode]
    rng = random.Random(f"pair-problems-{mode.value}")
    values = d.values or tuple(range(8))
    found = 0
    for _ in range(400):
        pairs = {}
        for n in rng.sample(range(8), rng.randrange(6)):
            free = [v for v in values if not d.injective or v not in pairs.values()]
            if free:
                pairs[n] = rng.choice(free)
        pm = PartialMap(frozenset(pairs.items()))
        base = Condition(Assignment({3: pm}), frozenset(), mode)
        assert validate(base) == []
        n, m = rng.randrange(9), rng.choice(values + (9,))
        grown = Condition(base.s.with_pair(3, n, m), frozenset(), mode)
        rev = pm.rev if d.injective else None
        got = pair_problems(d, 3, pm.fwd, rev, n, m)
        assert got == validate(grown), (pairs, n, m)
        found += bool(got)
    assert found >= 50, found


def test_the_ones_kernel_counts_a_letter_frozen_twice():
    # g0 and g0^-1 are both read as the letter g0 by the ones kernel, so a
    # new (n, 1) on g0 meets g0 itself, as the all-pairs kernel found
    q = Condition(Assignment({0: PartialMap(frozenset({(0, 0)}))}),
                  frozenset({single(0), single(0, -1)}), PosetMode.MAD)
    for v in (0, 1):
        p = Condition(q.s.with_pair(0, 5, v), q.words, q.mode)
        assert leq(p, q) == reference_leq(p, q) == (v == 0)


def test_walk_kernel_is_leq_per_pair():
    # one pair at a time, walk_breaks answers what leq answers
    rng = random.Random("walk-kernel")
    words = frozenset({Word((Letter(0, 1), Letter(1, 1))), single(0), single(1, -1)})
    verdicts = set()
    for _ in range(300):
        pairs = {}
        for n in rng.sample(range(10), 6):
            free = [v for v in range(10) if v not in pairs.values()]
            pairs[n] = rng.choice(free)
        q = Condition(Assignment({0: PartialMap(frozenset(pairs.items()))}), words)
        g = rng.choice([0, 1])
        fwd, rev = q.s.get(g).fwd, q.s.get(g).rev
        n = rng.choice([k for k in range(10) if k not in fwd])
        m = rng.choice([v for v in range(10) if v not in rev])
        p = Condition(q.s.with_pair(g, n, m), words)
        steps = poset._Steps(p.s)
        broke = poset.walk_breaks(poset.side_index(words), steps, g, n, m)
        assert broke == (not leq(p, q))
        verdicts.add(broke)
    assert verdicts == {True, False}
