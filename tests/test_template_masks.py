"""Differential tests: the mask-family templates against the frozenset route
they replaced.

The reference below is the earlier frozenset implementation, copied verbatim
but for its witnesses, which name a set's elements by their labels in the
order (``_names``).  Its ``TemplateOrder`` stores the family as frozensets
of element ids, and ``_Masks``, ``check_axioms``, ``_trace_depths``,
``depth`` and ``restrict_template`` rebuild masks from those sets on every
call.  It reads
every family member by member, so it is also the reference for families held
as atoms (the surrogates, ``from_atoms``): it gets their enumerated members.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from cofinitary import cli
from cofinitary import templates as new
from cofinitary.templates import AxiomViolation, SurrogateParams, build_surrogate_template

# ---------------------------------------------------------------------------
# reference: the frozenset route, verbatim


@dataclass(frozen=True)
class TemplateOrder:
    """elements are opaque ids; order_key realizes the strict total order;
    ideals is the family; part0/part1 the two-sided split."""

    elements: frozenset[int]
    order_key: Mapping[int, tuple]
    ideals: frozenset[frozenset[int]]
    part0: frozenset[int]
    part1: frozenset[int]
    labels: Mapping[int, str] = field(default_factory=dict)
    generators: tuple[frozenset[int], ...] = ()  # union-generating atoms, if known

    def __post_init__(self) -> None:
        if self.part0 | self.part1 != self.elements or self.part0 & self.part1:
            raise ValueError("part0/part1 must partition the elements")
        keys = {self.order_key[x] for x in self.elements}
        if len(keys) != len(self.elements):
            raise ValueError("order keys must be distinct (strict total order)")

    def less(self, x: int, y: int) -> bool:
        return self.order_key[x] < self.order_key[y]

    def below(self, x: int) -> frozenset[int]:
        kx = self.order_key[x]
        return frozenset(y for y in self.elements if self.order_key[y] < kx)

    def sorted_elements(self) -> list[int]:
        return sorted(self.elements, key=lambda x: self.order_key[x])

    def label(self, x: int) -> str:
        return self.labels.get(x, str(x))

    def to_json(self, max_family: int = 2000) -> dict:
        els = self.sorted_elements()
        family = sorted(
            [sorted(self.label(x) for x in a) for a in self.ideals],
            key=lambda xs: (len(xs), xs),
        )
        out = {
            "elements": [self.label(x) for x in els],
            "less": "by-rank",
            "L0": sorted(self.label(x) for x in self.part0),
            "L1": sorted(self.label(x) for x in self.part1),
        }
        if len(family) <= max_family:
            out["I"] = family
        else:
            out["I"] = {"count": len(family), "omitted": True}
        return out



class _Masks:
    """Bitmask view of a template: element i of the sorted order is bit i."""

    def __init__(self, t: TemplateOrder) -> None:
        els = t.sorted_elements()
        self.index = {x: i for i, x in enumerate(els)}
        self.elements = els
        self.full = (1 << len(els)) - 1
        self.part0 = self._mask(t.part0)
        self.part1 = self._mask(t.part1)
        self.below = [(1 << i) - 1 for i in range(len(els))]  # below sorted elt i
        self.below0 = [b & self.part0 for b in self.below]
        self.ideal_masks = sorted(self._mask(a) for a in t.ideals)
        self.ideal_set = set(self.ideal_masks)

    def _mask(self, subset: Iterable[int]) -> int:
        m = 0
        for x in subset:
            m |= 1 << self.index[x]
        return m

    def unmask(self, m: int) -> frozenset[int]:
        return frozenset(x for x, i in self.index.items() if m >> i & 1)

    def closure_mask(self, m: int) -> int:
        while True:
            grown = m
            probe = m
            while probe:
                low = probe & -probe
                grown |= self.below0[low.bit_length() - 1]
                probe ^= low
            if grown == m:
                return m
            m = grown


def _names(t: TemplateOrder, mk: "_Masks", m: int) -> str:
    """The labels of mask m's elements, in the order; the copy below named
    a set by its sorted ids, sorted(mk.unmask(m))."""
    return f"[{', '.join(t.label(x) for i, x in enumerate(mk.elements) if m >> i & 1)}]"


def check_axioms(
    t: TemplateOrder, pair_budget: int = 4_000_000
) -> list[AxiomViolation]:
    """Exhaustive check of the five template clauses; first witnesses per
    violated clause.

    Clause 1 is checked pairwise when the family is small enough; for larger
    families generated by union atoms, union closure is certified by
    regenerating all atom unions and intersection closure by checking all
    atom pairs (distributivity covers the rest).  Families too large for
    either route are rejected loudly rather than checked approximately.
    """
    out: list[AxiomViolation] = []
    mk = _Masks(t)
    ideals = mk.ideal_masks
    family = mk.ideal_set
    if 0 not in family:
        out.append(AxiomViolation(1, "empty set missing from the family"))
    if mk.full not in family:
        out.append(AxiomViolation(1, "full set missing from the family"))
    if len(ideals) * len(ideals) <= pair_budget:
        for i, a in enumerate(ideals):
            stop = False
            for b in ideals[i + 1 :]:
                if a | b not in family:
                    out.append(
                        AxiomViolation(
                            1,
                            f"union of {_names(t, mk, a)} and "
                            f"{_names(t, mk, b)} missing",
                        )
                    )
                    stop = True
                    break
                if a & b not in family:
                    out.append(
                        AxiomViolation(
                            1,
                            f"intersection of {_names(t, mk, a)} and "
                            f"{_names(t, mk, b)} missing",
                        )
                    )
                    stop = True
                    break
            if stop:
                break
    elif t.generators:
        atom_masks = [mk._mask(a) for a in t.generators]
        regenerated = {0}
        for atom in atom_masks:
            regenerated |= {m | atom for m in regenerated}
        if not (family <= regenerated):
            out.append(AxiomViolation(1, "family exceeds the unions of its atoms"))
        if not (regenerated <= family):
            out.append(AxiomViolation(1, "family misses some union of its atoms"))
        # distributivity: (U atoms) n (U atoms) = U pairwise atom intersections
        for a, b in itertools.combinations_with_replacement(atom_masks, 2):
            if a & b not in family:
                out.append(
                    AxiomViolation(
                        1,
                        f"atom intersection {_names(t, mk, a & b)} missing",
                    )
                )
                break
    else:
        raise ValueError(
            f"family of {len(ideals)} sets is beyond the pairwise budget and carries "
            "no generating atoms; refusing to check clause 1 approximately"
        )
    # clause 2: every x < y with y in part1 lies in a member inside the cut of y
    sorted_els = mk.elements
    for yi, y in enumerate(sorted_els):
        if not (mk.part1 >> yi & 1):
            continue
        cut = mk.below[yi]
        covered = 0
        for a in ideals:
            if a | cut == cut:
                covered |= a
        missing = cut & ~covered
        if missing:
            x = mk.unmask(missing & -missing)
            out.append(
                AxiomViolation(
                    2,
                    f"no family member inside the cut of {t.label(y)} contains "
                    f"{t.label(next(iter(x)))}",
                )
            )
            break
    # clause 3: cuts of members at part1 non-members stay in the family
    done3 = False
    for a in ideals:
        if done3:
            break
        probe = mk.part1 & ~a
        while probe:
            low = probe & -probe
            xi = low.bit_length() - 1
            if a & mk.below[xi] not in family:
                out.append(
                    AxiomViolation(
                        3,
                        f"{_names(t, mk, a)} cut at {t.label(sorted_els[xi])} "
                        "leaves the family",
                    )
                )
                done3 = True
                break
            probe ^= low
    # clause 4: finite families are well-founded; scan for trace-set bugs
    traces = {a & mk.part1 for a in ideals}
    for tr in traces:
        if tr & ~mk.part1:
            out.append(AxiomViolation(4, "trace leaks part0 elements"))
            break
    # clause 5: members are closed
    for a in ideals:
        if mk.closure_mask(a) != a:
            out.append(AxiomViolation(5, f"{_names(t, mk, a)} is not closed"))
            break
    return out


def _trace_depths(mk: _Masks) -> dict[int, int]:
    traces = sorted({a & mk.part1 for a in mk.ideal_masks}, key=lambda m: (m.bit_count(), m))
    trace_set = set(traces)
    union_all = 0
    for tr in traces:
        union_all |= tr
    # fast path: the traces form the full powerset of their union
    if len(traces) == 1 << union_all.bit_count():
        return {tr: tr.bit_count() for tr in traces}
    depths: dict[int, int] = {}
    for tr in traces:
        best = 0
        for other in traces:
            if other == tr or other.bit_count() >= tr.bit_count():
                continue
            if other & ~tr:
                continue
            best = max(best, depths[other] + 1)
        depths[tr] = best
    return depths


def depth(t: TemplateOrder, subset: Iterable[int]) -> int:
    """Well-founded rank of a family member by strict inclusion of part1
    traces; members inside part0 have depth 0."""
    subset = frozenset(subset)
    if subset not in t.ideals:
        raise ValueError("depth is defined only on family members")
    mk = _Masks(t)
    return _trace_depths(mk)[mk._mask(subset) & mk.part1]


def rank(t: TemplateOrder) -> int:
    return depth(t, t.elements)


def restrict_template(t: TemplateOrder, subset: Iterable[int]) -> TemplateOrder:
    """The induced template on a subset: induced order, trace family, induced
    split.  When the subset is itself a family member, its rank equals its
    depth in the original (asserted)."""
    keep = frozenset(subset)
    if not keep <= t.elements:
        raise ValueError("restriction set must consist of elements")
    ideals = frozenset(frozenset(a & keep) for a in t.ideals)
    out = TemplateOrder(
        keep,
        {x: t.order_key[x] for x in keep},
        ideals,
        t.part0 & keep,
        t.part1 & keep,
        {x: t.label(x) for x in keep},
        tuple(frozenset(a & keep) for a in t.generators),
    )
    if keep in t.ideals:
        assert rank(out) == depth(t, keep)
    return out


# ---------------------------------------------------------------------------
# instances


def to_ref(t: new.TemplateOrder) -> TemplateOrder:
    mk = new._masks(t)
    atoms = tuple(mk.unmask(a) for a in t.atoms)
    return TemplateOrder(t.elements, t.order_key, t.ideals, t.part0, t.part1, t.labels, atoms)


def clauses(violations) -> set[int]:
    """The routes name the same clauses; their witnesses may differ."""
    return {v.clause for v in violations}


SURROGATES = {
    "2,3": SurrogateParams((2, 3), 2),
    "2,3 bounded-last": SurrogateParams((2, 3), 2, last_negative_full=False),
    "1,2/1": SurrogateParams((1, 2), 1),
    "2,3/3": SurrogateParams((2, 3), 3),
}


@pytest.fixture(scope="module")
def surrogates():
    out = {}
    for name, params in SURROGATES.items():
        t = build_surrogate_template(params).order
        out[name] = (t, to_ref(t))
    return out


def _random_parts(rng: random.Random, n: int):
    """n shuffled ids with a random order and split."""
    els = rng.sample(range(10 * n), n)
    order = rng.sample(els, n)
    pairs = [(x, y) for i, x in enumerate(order) for y in order[i + 1 :]]
    part0 = [x for x in els if rng.random() < 0.5]
    part1 = [x for x in els if x not in part0]
    return els, pairs, part0, part1


def _closed_union_family(rng, els, pairs, part0, part1):
    """A family that satisfies every clause: the prefixes of the order and
    the closures of up to three single elements, closed under unions and
    intersections (prefixes and closures are closed, and so are their unions
    and intersections)."""
    t = new.template_from_parts(els, pairs, [], part0, part1)
    sorted_els = t.sorted_elements()
    fam = {frozenset()}
    for i in range(len(sorted_els) + 1):
        fam.add(frozenset(sorted_els[:i]))
    for _ in range(rng.randrange(4)):
        x = rng.choice(sorted_els)
        fam.add(new.closure(t, {x}))
    while True:
        grown = set(fam)
        for a, b in itertools.combinations(fam, 2):
            grown.add(a | b)
            grown.add(a & b)
        if grown == fam:
            return fam
        fam = grown


def random_families(count: int, seed: int):
    """Templates over up to 6 elements: random families, families meeting
    every clause, and such families with one member added or removed."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randrange(1, 7)
        els, pairs, part0, part1 = _random_parts(rng, n)
        kind = k % 3
        if kind == 0:
            fam = {frozenset(x for x in els if rng.random() < 0.5) for _ in range(rng.randrange(8))}
            if rng.random() < 0.5:
                fam |= {frozenset(), frozenset(els)}
        else:
            fam = _closed_union_family(rng, els, pairs, part0, part1)
            if kind == 2:
                extra = frozenset(x for x in els if rng.random() < 0.5)
                if extra in fam and len(fam) > 2:
                    fam.discard(extra)
                else:
                    fam.add(extra)
        fam_lists = [sorted(a) for a in fam]
        rng.shuffle(fam_lists)
        out.append(new.template_from_parts(els, pairs, fam_lists, part0, part1))
    return out


RANDOM = random_families(600, seed=5)


def random_atom_families(count: int, seed: int):
    """Families held as atoms over up to 6 elements: a random part of the
    prefixes, singleton closures and part0 cones (whose unions meet every
    clause), and at times one random set or one atom without its closure
    padding."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        els, pairs, part0, part1 = _random_parts(rng, rng.randrange(1, 7))
        t = new.template_from_parts(els, pairs, [], part0, part1)
        order = t.sorted_elements()
        whole = [frozenset(order[:i]) for i in range(len(order) + 1)]
        whole += [new.closure(t, {x}) for x in order]
        whole += [frozenset(t.below(x) & t.part0) for x in order]
        atoms = [a for a in whole if rng.random() < 0.6]
        if rng.random() < 0.8:
            atoms.append(frozenset(els))
        if rng.random() < 0.3:
            atoms.append(frozenset(x for x in els if rng.random() < 0.5))
        if rng.random() < 0.2:
            atoms.append(frozenset({rng.choice(els)}))
        out.append(new.from_atoms(t, atoms, budget=1 << 12))
    return out


ATOMS = random_atom_families(400, seed=6)


# ---------------------------------------------------------------------------
# check_axioms


@pytest.mark.parametrize("name", list(SURROGATES))
def test_violations_equal_on_surrogates(surrogates, name):
    t, ref = surrogates[name]
    assert new.check_axioms(t) == check_axioms(ref) == []


@pytest.mark.parametrize("name", ["1,2/1", "2,3 bounded-last"])
def test_violations_equal_on_broken_surrogates(surrogates, name):
    # break a surrogate's atoms (drop three, strip one of its closure
    # padding, or add a random set): the atom route must name the clauses
    # that the reference names on the enumerated family
    t, _ = surrogates[name]
    rng = random.Random(11)
    mk = new._masks(t)
    atoms = [mk.unmask(a) for a in t.atoms]
    seen = set()
    for k in range(3 if t.family_size > 1000 else 24):
        broken = list(atoms)
        if k % 3 == 0:
            for a in rng.sample(broken, 3):
                broken.remove(a)
        elif k % 3 == 1:
            a = rng.choice([a for a in broken if a & t.part0 and a & t.part1])
            broken[broken.index(a)] = a - t.part0
        else:
            broken.append(frozenset(rng.sample(sorted(t.elements), 3)))
        b = new.from_atoms(t, broken, budget=1 << 16)
        got = new.check_axioms(b)
        assert clauses(got) == clauses(check_axioms(to_ref(b), pair_budget=1))
        seen |= clauses(got)
    # the explicit route on members dropped from the family: pairwise on the
    # small instance, refused beyond the pair budget on the large one
    members = sorted(new._unions(t.atoms, t.family_size))
    for _ in range(2 if len(members) > 1000 else 6):
        gone = set(rng.sample(members, 3))
        broken = new.TemplateOrder(
            t.elements, t.order_key, frozenset(members) - gone, t.part0, t.part1, t.labels
        )
        if len(members) > 1000:
            with pytest.raises(ValueError, match="beyond the pairwise budget"):
                new.check_axioms(broken)
            continue
        got = new.check_axioms(broken)
        assert got == check_axioms(to_ref(broken))
        assert 1 in clauses(got)
    assert seen


def test_violations_equal_on_random_families():
    broken = set()
    valid = 0
    for t in RANDOM:
        got = new.check_axioms(t)
        assert got == check_axioms(to_ref(t))
        broken |= {v.clause for v in got}
        valid += not got
    # the draws break every clause that a finite family can break, and pass
    assert broken == {1, 2, 3, 5}
    assert valid >= 150


def test_violations_equal_on_atom_families():
    broken = set()
    valid = 0
    alone = 0
    for t in ATOMS:
        got = new.check_axioms(t)
        assert clauses(got) == clauses(check_axioms(to_ref(t), pair_budget=1))
        broken |= clauses(got)
        valid += not got
        if not got:
            continue
        # drop each atom in turn, so that one atom is often the only witness
        mk = new._masks(t)
        for a in t.atoms:
            less = new.from_atoms(t, [mk.unmask(b) for b in t.atoms if b != a], 1 << 12)
            got = new.check_axioms(less)
            assert clauses(got) == clauses(check_axioms(to_ref(less), pair_budget=1))
            alone += 3 in clauses(got)
    assert broken == {1, 2, 3, 5}
    assert valid >= 100 and alone >= 50


def test_each_clause_alone_is_caught():
    # hand-built families that break exactly one clause each
    chain = [0, 1, 2]
    pairs = [(0, 1), (0, 2), (1, 2)]
    cases = {
        1: ([[], [0], [1], [0, 1, 2]], [0, 1], [2]),
        2: ([[], [0, 1]], [0], [1]),
        3: ([[], [0, 2], [0, 1], [0, 1, 2]], [], chain),
        5: ([[], [0], [1], [0, 1]], [0], [1]),
    }
    for clause, (fam, part0, part1) in cases.items():
        els = sorted(set(part0) | set(part1))
        t = new.template_from_parts(els, [p for p in pairs if set(p) <= set(els)], fam, part0, part1)
        got = new.check_axioms(t)
        assert got == check_axioms(to_ref(t))
        assert clause in {v.clause for v in got}
    # families given by their atoms; in the clause 3 case the smallest atom
    # is the only one whose cut leaves the family
    atom_cases = {
        1: ([[0, 1], [1, 2]], [], chain),
        2: ([[0, 1]], [0], [1]),
        3: ([[0, 2], [0, 1, 2]], [], chain),
        5: ([[1], [0, 1]], [0], [1]),
    }
    for clause, (atoms, part0, part1) in atom_cases.items():
        els = sorted(set(part0) | set(part1))
        t = new.template_from_parts(els, [p for p in pairs if set(p) <= set(els)], [], part0, part1)
        held = new.from_atoms(t, atoms, budget=100)
        got = clauses(new.check_axioms(held))
        assert got == clauses(check_axioms(to_ref(held), pair_budget=1))
        assert clause in got


# ---------------------------------------------------------------------------
# depth and rank


@pytest.mark.parametrize("name", list(SURROGATES))
def test_depths_equal_on_surrogates(surrogates, name):
    t, ref = surrogates[name]
    mk = _Masks(ref)
    ref_depths = _trace_depths(mk)
    for a in ref.ideals:
        assert new.depth(t, a) == ref_depths[mk._mask(a) & mk.part1]
    for a in sorted(ref.ideals, key=sorted)[:: max(1, len(ref.ideals) // 2)]:
        assert new.depth(t, a) == depth(ref, a)  # the reference's own entry point
    assert new.rank(t) == rank(ref)


def test_depths_equal_on_random_families():
    compared = 0
    for t in RANDOM:
        ref = to_ref(t)
        for a in ref.ideals:
            assert new.depth(t, a) == depth(ref, a)
            compared += 1
        if t.elements in ref.ideals:
            assert new.rank(t) == rank(ref)
    assert compared > 1000


def test_depths_equal_on_atom_families():
    compared = 0
    for t in ATOMS:
        ref = to_ref(t)
        assert len(new._unions(t.atoms, 1 << 12)) == t.family_size
        for a in ref.ideals:
            assert new.depth(t, a) == depth(ref, a)
            compared += 1
        if t.elements in ref.ideals:
            assert new.rank(t) == rank(ref)
    assert compared > 2000


def test_depth_rejects_non_members_like_the_reference():
    for t in RANDOM[:200] + ATOMS[:100]:
        ref = to_ref(t)
        for r in range(len(t.elements) + 1):
            for s in itertools.combinations(sorted(t.elements), r):
                if frozenset(s) not in ref.ideals:
                    with pytest.raises(ValueError):
                        new.depth(t, s)
                    with pytest.raises(ValueError):
                        depth(ref, s)


# ---------------------------------------------------------------------------
# restriction


def _restrictions_equal(t: new.TemplateOrder, keep) -> None:
    ref = to_ref(t)
    try:
        got = new.restrict_template(t, keep)
    except ValueError as err:  # only a family that breaks a clause fails the law
        assert str(err).startswith("not a template") and new.check_axioms(t)
        got = None
    try:
        want = restrict_template(ref, keep)
    except AssertionError:  # the reference's rank check, absent under python -O
        want = None
    if got is None:
        # the rank check fired; the reference's restriction breaks it too
        assert want is None or rank(want) != depth(ref, keep)
        return
    assert want is not None
    assert got.ideals == want.ideals
    assert got.elements == want.elements
    assert (got.part0, got.part1) == (want.part0, want.part1)
    if t.family is None:  # the atoms' traces generate the trace family
        assert got.family is None and got.family_size == len(want.ideals)
        assert clauses(new.check_axioms(got)) == clauses(check_axioms(want, pair_budget=1))
    else:
        assert new.check_axioms(got) == check_axioms(want)


@pytest.mark.parametrize("name", list(SURROGATES))
def test_restrictions_equal_on_surrogates(surrogates, name):
    t, ref = surrogates[name]
    rng = random.Random(3)
    members = sorted(ref.ideals, key=lambda a: (len(a), sorted(a)))
    samples = 2 if len(members) > 1000 else 20
    for a in rng.sample(members, samples):
        _restrictions_equal(t, a)
    els = sorted(t.elements)
    for _ in range(samples):
        _restrictions_equal(t, rng.sample(els, rng.randrange(len(els) + 1)))


def test_restrictions_equal_on_random_families():
    rng = random.Random(8)
    for t in RANDOM + ATOMS:
        els = sorted(t.elements)
        for a in to_ref(t).ideals:
            _restrictions_equal(t, a)
        _restrictions_equal(t, rng.sample(els, rng.randrange(len(els) + 1)))


def test_restriction_errors_tell_bad_input_from_a_bug(monkeypatch):
    # on these families the law fails only where a clause does: each failure
    # names the clause, and none is reported as a bug
    failed = restricted = 0
    for t in RANDOM:
        broken = new.check_axioms(t)
        for a in to_ref(t).ideals:
            restricted += 1
            try:
                new.restrict_template(t, a)
            except ValueError as err:
                v = broken[0]
                assert str(err) == f"not a template: clause {v.clause}: {v.detail}"
                failed += 1
    assert (failed, restricted) == (90, 2982)
    # on a template the law holds, so a mismatch can only be a bug
    valid = [t for t in RANDOM + ATOMS if not new.check_axioms(t)]
    monkeypatch.setattr(new, "rank", lambda t: -1)
    for t in valid[:20] + valid[-20:]:
        with pytest.raises(new.ContractError, match="differs from the member's depth"):
            new.restrict_template(t, t.elements)


# ---------------------------------------------------------------------------
# the one-step closure


def test_one_step_closure_equals_the_iterated_closure(surrogates):
    t, ref = surrogates["2,3"]
    mk, ref_mk = new._masks(t), _Masks(ref)
    for m in new._unions(t.atoms, t.family_size):
        assert mk.close(m) == ref_mk.closure_mask(m)
    rng = random.Random(4)
    for _ in range(10_000):
        m = rng.getrandbits(len(t.elements))
        assert mk.close(m) == ref_mk.closure_mask(m)
    for t in RANDOM:
        mk, ref_mk = new._masks(t), _Masks(to_ref(t))
        for m in range(mk.full + 1):
            assert mk.close(m) == ref_mk.closure_mask(m)
            assert new.closure(t, mk.unmask(m)) == mk.unmask(mk.close(m))


# ---------------------------------------------------------------------------
# the CLI path stores no frozenset members


def test_cli_template_never_decodes_the_family(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("the family was read member by member")

    # decoding, the sorted member list every member-wise walk starts from,
    # and the member-wise clause 3 loop
    monkeypatch.setattr(new.TemplateOrder, "ideals", property(refuse))
    monkeypatch.setattr(new._Masks, "members", property(refuse))
    monkeypatch.setattr(new, "_clause3_members", refuse)
    for extra in (["2,3"], ["2,3", "--bounded-last"], ["2,3,4"]):
        code = cli.main(
            ["template", "--omega1", "2", "--seed", "3",
             "--out", str(tmp_path / "t.json"), "--lambdas", *extra]
        )
        assert code == 0
    with pytest.raises(AssertionError):
        build_surrogate_template(SurrogateParams((2,), 1)).order.ideals
    with pytest.raises(AssertionError):
        new.check_axioms(new.template_from_parts([0], [], [[], [0]], [], [0]))


# ---------------------------------------------------------------------------
# the union count against the listing


@st.composite
def _atom_lists(draw):
    """Atoms over 10 elements, with empty, repeated and nested atoms, and
    triangles {x, y}, {y, z}, {x, z}, where no atom holds a private element,
    mixed in."""
    atoms = draw(st.lists(st.integers(0, (1 << 10) - 1), max_size=8))
    for kind in draw(st.lists(st.sampled_from(["empty", "repeat", "nested", "triangle"]), max_size=4)):
        if kind == "empty":
            atoms.append(0)
        elif kind == "triangle":
            x, y, z = (1 << i for i in draw(st.permutations(range(10)))[:3])
            atoms += [x | y, y | z, x | z]
        elif atoms:
            a = draw(st.sampled_from(atoms))
            atoms.append(a if kind == "repeat" else a & draw(st.integers(0, (1 << 10) - 1)))
    return draw(st.permutations(atoms))


def _counts_like_the_listing(atoms, listed) -> None:
    n = len(listed)
    for budget in (n - 1, n, n + 1):
        assert new._count_unions(atoms, budget) == (None if n > budget else n)


@settings(max_examples=400, deadline=None)
@given(_atom_lists())
def test_drawn_counts_equal_the_listing(atoms):
    _counts_like_the_listing(atoms, new._unions(atoms, 1 << 12))


@pytest.mark.parametrize(
    "atoms",
    [[], [0], [0, 0], [0b11, 0b110, 0b101], [0b11, 0b110, 0b101, 0b111], [0b1, 0b1, 0b11],
     [0b1111, 0b11, 0b1100, 0b110], [0b101, 0b1010, 0b1111, 0b10000]],
)
def test_named_counts_equal_the_listing(atoms):
    _counts_like_the_listing(atoms, new._unions(atoms, 1 << 12))


# every surrogate size the tests build, and the (2,4) one, whose family is
# past the cap
COUNTED = {
    "2/1": SurrogateParams((2,), 1),
    "1,2/1": SurrogateParams((1, 2), 1),
    "2,3": SurrogateParams((2, 3), 2),
    "2,3 bounded-last": SurrogateParams((2, 3), 2, last_negative_full=False),
    "2,3/3": SurrogateParams((2, 3), 3),
    "2,3,4": SurrogateParams((2, 3, 4), 2),
    "2,4": SurrogateParams((2, 4), 2),
}


@pytest.mark.parametrize("name", list(COUNTED))
def test_surrogate_counts_equal_the_listing(name):
    t = build_surrogate_template(COUNTED[name]).order
    listed = new._unions(t.atoms, 1 << 15)
    if listed is None:
        assert new._count_unions(t.atoms, 1 << 15) is None
        assert t.family_size is None or t.family_size > 1 << 15
    else:
        assert t.family_size == len(listed)
        _counts_like_the_listing(t.atoms, listed)


def test_long_chains_count_without_deep_recursion():
    chain = [(1 << i) - 1 for i in range(1, 3001)]
    assert new._count_unions(chain[::-1], 3001) == 3001
    assert new._count_unions(chain, 3000) is None
    # a chain with one element left out of each atom: no atom holds all the
    # lesser ones, so each step splits off one private atom
    gapped = [a & ~(1 << (i // 2)) for i, a in enumerate(chain[:200])]
    _counts_like_the_listing(gapped, new._unions(gapped, 1 << 16))
    # 3,000 disjoint atoms: each holds a private element, so their 2^3000
    # unions are past the budget before any split
    assert new._count_unions([1 << i for i in range(3000)], 1 << 20) is None


def test_cli_template_never_lists_the_atoms(monkeypatch, tmp_path):
    unions = new._unions
    listed: list[frozenset[int]] = []

    def spy(gens, budget):
        gens = list(gens)
        listed.append(frozenset(gens))
        return unions(gens, budget)

    for lambdas in ("2,3", "2,4", "2,3,4"):
        sizes = tuple(map(int, lambdas.split(",")))
        atoms = frozenset(build_surrogate_template(SurrogateParams(sizes, 2)).order.atoms)
        monkeypatch.setattr(new, "_unions", spy)
        argv = ["template", "--lambdas", lambdas, "--omega1", "2", "--out", str(tmp_path / "t.json")]
        assert cli.main(argv) == 0
        monkeypatch.setattr(new, "_unions", unions)
        assert atoms not in listed


def test_cli_template_peak_memory(tmp_path):
    argv = ["template", "--lambdas", "2,3", "--omega1", "2", "--seed", "3",
            "--out", str(tmp_path / "t.json")]
    assert cli.main(argv) == 0  # the imports and the parser, once per process
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
