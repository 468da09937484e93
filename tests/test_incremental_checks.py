"""The incremental checks of a build step against the full ones.

add_words and extend_with (a point phase's one step) validate only what a
step adds when the condition they start from is known valid.  Each must
raise ValueError on exactly the inputs where a full validate of the result
finds a problem, with validate's message.  extend_with must also agree with
the copy path's chooser and commit (tests/copy_path.py).

Each check runs on sampled conditions ("no-ground") and, for the disciplines
that take hit goals' steps, on sampled conditions after a few hit steps
toward zshift ("zshift"), whose maps then follow the shift at some points.
"""

import random
import re

import pytest

import copy_path

from cofinitary.evaluation import Assignment, PartialMap, zshift
from cofinitary.extension import ContractViolation, PointPhase, domain_extend, extend_with
from cofinitary.poset import Condition, PosetMode, add_words, validate, validated
from cofinitary.sampling import sample_condition, sample_extra_words
from cofinitary.words import Word, parse_word, reduced_words, single

GENS = [0, 1, 2]
ZSHIFT = zshift()


def follow_zshift(rng: random.Random, p: Condition, gens=GENS, steps: int = 3) -> Condition:
    """p after up to `steps` hit steps toward zshift, each on a random
    generator from a random start, as the builder's hit goals take them
    (PointPhase.hit).  Each step closes its phase, which marks the result
    valid, so later steps from it take the incremental path."""
    for _ in range(steps):
        phase = PointPhase(p)
        phase.hit(rng.choice(gens), ZSHIFT, rng.randrange(24), 24)
        p = phase.close()
    return p


CASES = {"no-ground": lambda rng, p: p, "zshift": follow_zshift}


def cases(modes):
    """(mode, case) pairs, ids as "<mode>-<case>"; a MAD condition's values
    are 0 and 1, so no hit step toward zshift keeps one valid."""
    return [
        pytest.param(mode, case, id=f"{mode}-{case}")
        for case in CASES
        for mode in modes
        if case == "no-ground" or mode is not PosetMode.MAD
    ]


def full_message(c):
    """validate's verdict on a fresh, unmarked copy of c."""
    bad = validate(Condition(c.s, c.words, c.mode))
    return "; ".join(bad) if bad else None


def raised(step):
    try:
        step()
    except ValueError as err:
        return str(err)
    return None


def word_pool():
    """Words of every shape: hat and non-hat, pair words, single letters and
    the empty word."""
    return reduced_words(GENS, 3, min_len=1) + [Word()]


@pytest.mark.parametrize("mode, case", cases(PosetMode))
class TestAgainstFullValidate:
    def test_add_words(self, mode, case):
        rng = random.Random(f"{mode.value}-{case}-words")
        pool = word_pool()
        raises = 0
        for _ in range(60):
            p = CASES[case](rng, sample_condition(rng, mode, GENS))
            if rng.random() < 0.5:
                extra = sample_extra_words(rng, p)  # valid for the mode
            else:
                extra = rng.sample(pool, rng.randrange(1, 4))
            new = p.words | set(extra)
            expected = full_message(Condition(p.s, new, mode))
            assert raised(lambda: add_words(p, new)) == expected
            raises += expected is not None
        assert 0 < raises < 60  # both outcomes were exercised

    def test_pair_path(self, mode, case):
        rng = random.Random(f"{mode.value}-{case}-pairs")
        raises = 0
        for _ in range(120):
            p = CASES[case](rng, sample_condition(rng, mode, GENS))
            g, n, m = rng.choice(GENS), rng.randrange(8), rng.randrange(8)
            out = Condition(p.s.with_pair(g, n, m), p.words, mode)
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
@pytest.mark.parametrize(
    "mode, case", cases([PosetMode.COFINITARY, PosetMode.ADP, PosetMode.EDF])
)
def test_commit_matches_extend_with(mode, case):
    rng = random.Random(f"{mode.value}-{case}-commit")
    for _ in range(30):
        p = CASES[case](rng, sample_condition(rng, mode, GENS))
        g, n = rng.choice(GENS), rng.randrange(30)
        if n in p.s.get(g).domain():
            continue
        floor = rng.randrange(24)
        ref = copy_path.domain_extend(p, g, n)
        m = ref.choose(floor=floor)
        assert domain_extend(p, g, n).choose(floor=floor) == m
        out = ref.commit(m)
        assert out == extend_with(p, g, n, m)
        assert validate(out) == []
        # a value the chooser did not return
        other = rng.randrange(8)
        try:
            expected = ref.commit(other)
        except (ValueError, ContractViolation) as err:
            with pytest.raises(type(err), match="^" + re.escape(str(err)) + "$"):
                extend_with(p, g, n, other)
        else:
            assert extend_with(p, g, n, other) == expected


def pmap(*pairs):
    return PartialMap(frozenset(pairs))


UNMARKED_INVALID = {
    # built directly, so never marked known valid
    "non-hat word": Condition(Assignment(), frozenset({parse_word("g0 g1 g0^-1")})),
    "non-injective map": Condition(
        Assignment({0: pmap((0, 1), (2, 1))}), frozenset({single(0)})
    ),
}


@pytest.mark.parametrize("case", sorted(UNMARKED_INVALID))
def test_unmarked_invalid_conditions_get_the_full_check(case):
    p = UNMARKED_INVALID[case]
    expected = full_message(p)
    assert expected is not None
    assert raised(lambda: add_words(p, p.words | {single(1)})) == expected
    value = 1 if p.mode is PosetMode.MAD else 5
    out = Condition(p.s.with_pair(1, 3, value), p.words, p.mode)
    assert raised(lambda: validated(p, out)) == expected
    assert raised(lambda: extend_with(p, 1, 3, value)) == expected
