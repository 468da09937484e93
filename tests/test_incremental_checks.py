"""The incremental checks of a build step against the full ones.

add_words, extend_with and Extension.commit validate only what a step adds
when the condition they start from is known valid.  Each must raise
ValueError on exactly the inputs where a full validate of the result finds a
problem, with validate's message.
"""

import random
import re

import pytest

from cofinitary.evaluation import Assignment, EMPTY_GROUND, GroundRep, PartialMap, zshift
from cofinitary.extension import ContractViolation, domain_extend, extend_with
from cofinitary.poset import Condition, PosetMode, add_words, validate, validated
from cofinitary.sampling import sample_condition, sample_extra_words
from cofinitary.words import Word, parse_word, reduced_words, single

GROUNDS = {"no-ground": EMPTY_GROUND, "zshift": GroundRep({7: zshift()})}
GENS = [0, 1, 2]


def full_message(c):
    """validate's verdict on a fresh, unmarked copy of c."""
    bad = validate(Condition(c.s, c.words, c.mode, c.ground))
    return "; ".join(bad) if bad else None


def raised(step):
    try:
        step()
    except ValueError as err:
        return str(err)
    return None


def word_pool(ground):
    """Words of every shape: hat and non-hat, pair words, single letters,
    ambient letters and the empty word."""
    return reduced_words(GENS + sorted(ground.generators()), 3, min_len=1) + [Word()]


@pytest.mark.parametrize("ground_name", sorted(GROUNDS))
@pytest.mark.parametrize("mode", list(PosetMode))
class TestAgainstFullValidate:
    def test_add_words(self, mode, ground_name):
        ground = GROUNDS[ground_name]
        rng = random.Random(f"{mode.value}-{ground_name}-words")
        pool = word_pool(ground)
        raises = 0
        for _ in range(60):
            p = sample_condition(rng, mode, GENS, ground=ground)
            if rng.random() < 0.5:
                extra = sample_extra_words(rng, p)  # valid for the mode
            else:
                extra = rng.sample(pool, rng.randrange(1, 4))
            new = p.words | set(extra)
            expected = full_message(Condition(p.s, new, mode, ground))
            assert raised(lambda: add_words(p, new)) == expected
            raises += expected is not None
        assert 0 < raises < 60  # both outcomes were exercised

    def test_pair_path(self, mode, ground_name):
        ground = GROUNDS[ground_name]
        rng = random.Random(f"{mode.value}-{ground_name}-pairs")
        gens = GENS + sorted(ground.generators())
        raises = 0
        for _ in range(120):
            p = sample_condition(rng, mode, GENS, ground=ground)
            g, n, m = rng.choice(gens), rng.randrange(8), rng.randrange(8)
            out = Condition(p.s.with_pair(g, n, m), p.words, mode, ground)
            expected = full_message(out)
            assert raised(lambda: validated(p, out)) == expected
            try:
                got = raised(lambda: extend_with(p, g, n, m))
            except ContractViolation:
                got = None  # valid, but the pair breaks the order
            assert got == expected
            raises += expected is not None
        assert 0 < raises < 120


# MAD points are decided by mad_set_point, not by a chooser
@pytest.mark.parametrize("ground_name", sorted(GROUNDS))
@pytest.mark.parametrize("mode", [PosetMode.COFINITARY, PosetMode.ADP, PosetMode.EDF])
def test_commit_matches_extend_with(mode, ground_name):
    ground = GROUNDS[ground_name]
    rng = random.Random(f"{mode.value}-{ground_name}-commit")
    for _ in range(30):
        p = sample_condition(rng, mode, GENS, ground=ground)
        g, n = rng.choice(GENS), rng.randrange(30)
        if n in p.s.get(g).domain():
            continue
        ext = domain_extend(p, g, n)
        m = ext.choose(floor=rng.randrange(24))
        out = ext.commit(m)
        assert out == extend_with(p, g, n, m)
        assert validate(out) == []
        # a value the chooser did not return takes the full extend_with path
        other = rng.randrange(8)
        try:
            expected = extend_with(p, g, n, other)
        except (ValueError, ContractViolation) as err:
            with pytest.raises(type(err), match="^" + re.escape(str(err)) + "$"):
                ext.commit(other)
        else:
            assert ext.commit(other) == expected


def pmap(*pairs):
    return PartialMap(frozenset(pairs))


UNMARKED_INVALID = {
    # built directly, so never marked known valid
    "non-hat word": Condition(Assignment(), frozenset({parse_word("g0 g1 g0^-1")})),
    "non-injective map": Condition(
        Assignment({0: pmap((0, 1), (2, 1))}), frozenset({single(0)})
    ),
    "ambient MAD letter": Condition(
        Assignment(), frozenset({single(7)}), PosetMode.MAD, GROUNDS["zshift"]
    ),
}


@pytest.mark.parametrize("case", sorted(UNMARKED_INVALID))
def test_unmarked_invalid_conditions_get_the_full_check(case):
    p = UNMARKED_INVALID[case]
    expected = full_message(p)
    assert expected is not None
    assert raised(lambda: add_words(p, p.words | {single(1)})) == expected
    value = 1 if p.mode is PosetMode.MAD else 5
    out = Condition(p.s.with_pair(1, 3, value), p.words, p.mode, p.ground)
    assert raised(lambda: validated(p, out)) == expected
    assert raised(lambda: extend_with(p, 1, 3, value)) == expected


def test_known_valid_holds_only_for_its_ground():
    p = add_words(Condition(Assignment({0: pmap((0, 1))})), frozenset({single(1)}))
    ground = GroundRep({0: zshift()})
    out = Condition(p.s, p.words | {single(2)}, p.mode, ground)
    expected = full_message(out)
    assert expected == "g0 is an ambient generator but carries finite pairs"
    assert raised(lambda: validated(p, out)) == expected
