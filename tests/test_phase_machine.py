"""A state machine over the point phase, in every mode.

One condition is grown by a drawn chain of rules: point phases that take a
few domain steps (and range steps where maps are injective), add_words,
strong_reduction, canonical_extension of an extension of the reduction, and
merge_disjoint of a fresh assignment.  Each rule runs on the point phase
and on the copy path (tests/copy_path.py), which must give the same
condition.  After each rule the condition must be valid and extend the one
before it.
"""

from __future__ import annotations

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import copy_path

from cofinitary import sampling
from cofinitary.extension import PointPhase, canonical_extension, strong_reduction
from cofinitary.poset import (
    DISCIPLINES,
    Condition,
    PosetMode,
    add_words,
    leq,
    merge_disjoint,
    strong_restrict,
    validate,
)

GENS = [0, 1, 2]
_moves = st.lists(
    st.tuples(
        st.sampled_from(["domain", "range"]),
        st.sampled_from(GENS + [3]),  # g3 occurs nowhere at first
        st.integers(0, 20),  # the point
        st.integers(0, 24),  # the floor of a domain step
    ),
    min_size=1,
    max_size=6,
)


class PhaseMachine(RuleBasedStateMachine):
    mode = PosetMode.COFINITARY

    @initialize(seed=st.integers(0, 10**6))
    def start(self, seed):
        cond = sampling.sample_condition(random.Random(seed), self.mode, GENS, max_pairs=3)
        assert cond == copy_path.sample_condition(random.Random(seed), self.mode, GENS, max_pairs=3)
        self.cond = self.prev = cond
        self.reduction = None

    def _advance(self, cond: Condition) -> None:
        self.prev, self.cond = self.cond, cond
        self.reduction = None

    @invariant()
    def valid_and_below(self):
        assert validate(self.cond) == []
        assert leq(self.cond, self.prev)

    @rule(moves=_moves)
    def phase_steps(self, moves):
        injective = DISCIPLINES[self.mode].injective
        phase = PointPhase(self.cond)
        ref = self.cond
        for kind, gen, point, floor in moves:
            if kind == "range" and injective:
                phase.range(gen, point)
                if point not in ref.s.get(gen).rev:
                    ext = copy_path.range_extend(ref, gen, point)
                    ref = ext.commit(ext.choose())
            else:
                phase.domain(gen, point, lambda: floor)
                if point not in ref.s.get(gen).fwd:
                    ref = copy_path.point_step(ref, gen, point, lambda: floor)
        out = phase.close()
        assert out == ref
        self._advance(out)

    @rule(seed=st.integers(0, 10**6))
    def grow_side_set(self, seed):
        words = sampling.sample_extra_words(random.Random(seed), self.cond)
        self._advance(add_words(self.cond, self.cond.words | words))

    @rule(keep=st.sets(st.sampled_from(GENS)))
    def reduce(self, keep):
        red = strong_reduction(self.cond, keep)
        assert red == copy_path.strong_reduction(self.cond, keep)
        assert validate(red) == [] and leq(red, strong_restrict(self.cond, keep))
        self.reduction = (frozenset(keep), red)

    @precondition(lambda self: self.reduction is not None)
    @rule(seed=st.integers(0, 10**6))
    def merge_back(self, seed):
        keep, red = self.reduction
        avoid = self.cond.occurring() - keep
        t = sampling.sample_extension(random.Random(seed), red, avoid=avoid)
        assert t == copy_path.sample_extension(random.Random(seed), red, avoid=avoid)
        both = canonical_extension(self.cond, t, keep)
        assert leq(both, t)
        self._advance(both)

    @rule(seed=st.integers(0, 10**6))
    def merge_fresh(self, seed):
        t = sampling.sample_fresh_assignment(random.Random(seed), self.cond)
        self._advance(merge_disjoint(self.cond, t))


def _machine(mode: PosetMode):
    machine = type(f"PhaseMachine_{mode.value}", (PhaseMachine,), {"mode": mode})
    machine.TestCase.settings = settings(
        max_examples=40, stateful_step_count=10, deadline=None, derandomize=True
    )
    return machine.TestCase


TestCofinitary = _machine(PosetMode.COFINITARY)
TestAdp = _machine(PosetMode.ADP)
TestEdf = _machine(PosetMode.EDF)
TestMad = _machine(PosetMode.MAD)
