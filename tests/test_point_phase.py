"""The point phase against the copy path it replaced.

extension.PointPhase extends one mutable set of lookups in place and makes
a Condition only when it closes.  The builder steps one between freezes,
hit goals included; the samplers, cover_extend, strong_reduction and the
hit search each open one per call.  The reference is tests/copy_path.py,
which builds a new condition per pair, and test_group_freeze.reference_build,
the builder on it.  Drawn builds of every mode must give the same report,
goal log included, and abort on the same goal with the same message, the
same cause and equal partial reports when the chooser runs past its
ceiling.  Drawn sampler calls must give equal conditions and leave the
random generator in the same state; cover_extend, strong_reduction on
every drawn keep set, and hit_search and a kept hit step over the
hit-density window must give what the copy path gives.  A kept condition
must not change when the phase steps on, each step must keep validate's
rules and its order check, and the per-pair validation must say what
validate says about the grown map.
"""

from __future__ import annotations

import random

import pytest

import copy_path
from test_group_freeze import reference_build
from test_class_walk import reference_leq

from cofinitary import extension, poset, sampling
from cofinitary.builder import BuildError, build, hit_goal
from cofinitary.cli import encode_report
from cofinitary.evaluation import Assignment, GroundPermutation, PartialMap, zshift
from cofinitary.extension import ExtensionCertificate, PointPhase
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, leq, pair_problems, validate
from cofinitary.words import Letter, Word, reduced_words, single


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
    # freeze and for the report) is recorded as it was made and compared
    # after the build; the cofinitary build also meets a hit goal after its
    # points, a step of the phase the report closes.
    kept = []
    close = PointPhase.close

    def recording(phase):
        c = close(phase)
        kept.append((c, _state(c)))
        return c

    monkeypatch.setattr(PointPhase, "close", recording)
    goals = [hit_goal(0, zshift(), 10)] if mode is PosetMode.COFINITARY else []
    report = build(mode, [0, 1, 2], point_budget=40,
                   word_budget=DISCIPLINES[mode].word_budget or 2, seed=4, extra_goals=goals)
    assert len(kept) >= 2  # a freeze and the report
    for c, state in kept:
        assert _state(c) == state
    assert report.final is kept[-1][0]
    if goals:
        hit = report.goal_log[-1][2]
        assert (hit, zshift().apply(hit)) in report.final.s.get(0)


def test_hit_goals_step_the_open_phase(monkeypatch):
    # A hit goal is one step of the phase the points left open: a build
    # whose extra goals are two hit goals opens no more phases than the
    # same build without them, and meets both.
    opened = []
    init = PointPhase.__init__

    def counting(phase, base):
        opened.append(base)
        init(phase, base)

    monkeypatch.setattr(PointPhase, "__init__", counting)
    counts = []
    for goals in ((), (hit_goal(0, zshift(), 10), hit_goal(1, zshift(), 4))):
        opened.clear()
        report = build(PosetMode.COFINITARY, [0, 1], point_budget=30, word_budget=2, seed=3,
                       extra_goals=goals)
        counts.append(len(opened))
    assert counts[0] == counts[1] > 0
    hits = [witness for goal, _, witness in report.goal_log if goal.startswith("hit:")]
    assert len(hits) == 2 and None not in hits


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
        phase = PointPhase(cond)
        for g in gens:
            phase.domain(g, n)
            if DISCIPLINES[mode].injective:
                phase.range(g, n)
        cond = phase.close()
        chain.append((cond, _state(cond)))
        with pytest.raises((TypeError, AttributeError)):  # its lookups are gone
            phase.domain(0, n + 100)
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
    real = PointPhase.certificate

    def admits_0(phase, gen, point, way):
        if way == direction and point >= 5:
            return ExtensionCertificate(frozenset(), 0)
        return real(phase, gen, point, way)

    monkeypatch.setattr(PointPhase, "certificate", admits_0)
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
    # one pair at a time, the side-set index answers what leq answers
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
        broke = poset.side_index("walk", words).breaks(poset._Steps(p.s), g, n, m)
        assert broke == (not leq(p, q))
        verdicts.add(broke)
    assert verdicts == {True, False}


# -- the other callers against the copy path -----------------------------------


def _outcome(run):
    """What run gives, or the type and message of what it raises."""
    try:
        return run()
    except (ValueError, extension.CertificateError, extension.ContractViolation) as err:
        return type(err), str(err)


def _same(run, reference) -> None:
    got, want = _outcome(run), _outcome(reference)
    assert got == want
    if isinstance(got, Condition):
        assert encode_report(got.to_json()) == encode_report(want.to_json())


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_drawn_sampler_calls_match_the_copy_path(mode):
    # sample_condition, then sample_extension of what it gave, on twin
    # generators: equal conditions, and the same draws spent on each side
    rng = random.Random(f"samplers-{mode.value}")
    stepped = 0
    for _ in range(150):
        gens = sorted(rng.sample(range(6), rng.randint(1, 4)))
        kwargs = dict(
            max_pairs=rng.randint(0, 6), max_words=rng.randint(0, 4),
            value_range=rng.randint(1, 30), word_len=rng.randint(1, 3),
        )
        seed = rng.randrange(10**6)
        ours, theirs = sampling.Draws(seed), sampling.Draws(seed)  # as the suites draw
        p = sampling.sample_condition(ours, mode, gens, **kwargs)
        assert p == copy_path.sample_condition(theirs, mode, gens, **kwargs)
        assert ours.getstate() == theirs.getstate()
        avoid = rng.sample(gens, rng.randrange(len(gens) + 1))
        steps = rng.choice([None, 0, 1, 5])
        q = sampling.sample_extension(ours, p, avoid, steps)
        assert q == copy_path.sample_extension(theirs, p, avoid, steps)
        assert ours.getstate() == theirs.getstate()
        assert validate(q) == [] and leq(q, p)
        stepped += q != p
    assert stepped > 50, stepped


@pytest.mark.parametrize("mode", [PosetMode.COFINITARY, PosetMode.ADP], ids=lambda m: m.value)
def test_cover_extend_matches_the_copy_path(mode):
    rng = random.Random(f"cover-{mode.value}")
    words = reduced_words([0, 1, 2], 3, min_len=1)
    for _ in range(200):
        p = sampling.sample_condition(rng, mode, [0, 1, 2], max_pairs=5, value_range=12)
        w = rng.choice(words)
        dom = rng.sample(range(16), rng.randrange(4))
        ran = rng.sample(range(16), rng.randrange(4))
        _same(
            lambda: extension.cover_extend(p, w, dom, ran),
            lambda: copy_path.cover_extend(p, w, dom, ran),
        )


@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_strong_reduction_matches_the_copy_path_on_every_keep_set(mode):
    rng = random.Random(f"reduction-{mode.value}")
    gens = [0, 1, 2, 3]
    keeps = [frozenset(g for g in gens if mask >> g & 1) for mask in range(16)]
    padded = 0
    for _ in range(25):
        p = sampling.sample_condition(rng, mode, gens, max_pairs=5, max_words=4)
        for keep in keeps:
            fresh = Condition(p.s, p.words, p.mode)  # no reduction kept on it
            got = _outcome(lambda: extension.strong_reduction(fresh, keep))
            _same(lambda: got, lambda: copy_path.strong_reduction(p, keep))
            padded += isinstance(got, Condition) and got.s != p.s.restrict(keep)
    assert padded > 20, padded


def _hit_closed(cond: Condition, gen: int, target: GroundPermutation, start: int) -> Condition:
    """cond with the pair a point phase's hit step keeps in the window."""
    phase = PointPhase(cond)
    phase.hit(gen, target, start, 64)
    return phase.close()


def test_hit_search_matches_the_copy_path_over_the_hit_density_window():
    # the hit-density command's conditions and window (--generators 3
    # --words 4 --maxN 50 --window 64), and the identity target, which some
    # windows miss
    sigma = zshift()
    identity = GroundPermutation(lambda n: n, lambda n: n, shift=0, name="identity")
    rng = sampling.Draws(3)
    missed = 0
    for _ in range(25):
        cond = sampling.sample_condition(rng, PosetMode.COFINITARY, [0, 1, 2], max_words=4)
        gen = rng.randrange(3)
        for start in range(51):
            for target in (sigma, identity):
                found = extension.hit_search(cond, gen, target, start, 64)
                assert found == copy_path.hit_search(cond, gen, target, start, 64)
                missed += found is None
                if found is not None:
                    _same(
                        lambda: _hit_closed(cond, gen, target, start),
                        lambda: copy_path.hit_extend(cond, gen, target, found),
                    )
    assert missed > 25, missed


@pytest.mark.parametrize("case", ["cofinitary-taken", "edf-agrees", "mad-ones", "mad-two"])
def test_a_sampler_step_keeps_the_phase_checks(case, monkeypatch):
    # A patched rule admits 0 (cofinitary, edf) or decides 1 or 2 (mad) on
    # every point the sampler steps.  The step itself must refuse some pair,
    # before the phase closes: by validation (a value the map already
    # takes, a value outside {0, 1}) or by the order kernel (a new
    # agreement, a new common 1-point).
    mode = PosetMode(case.split("-")[0])
    if mode is PosetMode.MAD:
        value = 1 if case == "mad-ones" else 2
        monkeypatch.setattr(extension, "mad_value", lambda *args: value)
    else:
        monkeypatch.setattr(ExtensionCertificate, "least_admitted", lambda self, floor=0: 0)
    want = {
        "cofinitary-taken": (ValueError, "is not injective"),
        "edf-agrees": (extension.ContractViolation, "but the extension fails the order check"),
        "mad-ones": (extension.ContractViolation, extension.MAD_NOT_BELOW),
        "mad-two": (ValueError, "takes values outside {0,1}: [2]"),
    }[case]
    refused = []
    try_pair = PointPhase.try_pair

    def recording(phase, *args, **kwargs):
        refusal = try_pair(phase, *args, **kwargs)
        if refusal is not None:
            refused.append((type(refusal), str(refusal)))
        return refusal

    monkeypatch.setattr(PointPhase, "try_pair", recording)
    rng = random.Random(f"refused-{case}")
    for _ in range(60):
        try:
            sampling.sample_condition(rng, mode, [0, 1, 2], max_pairs=6, max_words=3)
        except (ValueError, extension.ContractViolation):
            pass
    assert any(kind is want[0] and want[1] in text for kind, text in refused), refused
