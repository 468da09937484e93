"""Finite two-sided templates: a linear order with an ideal family and a
two-part split, the closure operator, the well-founded depth/rank, and the
classical template instantiated over small surrogate cardinals.

Families are bitmasks, bit i for the i-th element.  An explicit family is
read member by member; a union-generated one (``from_atoms``) is held as its
atoms and decided from them (proofs in the README design notes).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

MAX_FAMILY = 2000  # TemplateOrder.to_json lists a family of at most this many members


@dataclass(frozen=True)
class TemplateOrder:
    """elements are opaque ids; order_key realizes the strict total order;
    family holds the members as bitmasks, bit i standing for the i-th
    element in order_key order; part0/part1 the two-sided split.  atoms, if
    given, generate the family by unions; family is then None past budget."""

    elements: frozenset[int]
    order_key: Mapping[int, tuple]
    family: Optional[frozenset[int]]
    part0: frozenset[int]
    part1: frozenset[int]
    labels: Mapping[int, str] = field(default_factory=dict)
    atoms: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.part0 | self.part1 != self.elements or self.part0 & self.part1:
            raise ValueError("part0/part1 must partition the elements")
        keys = {self.order_key[x] for x in self.elements}
        if len(keys) != len(self.elements):
            raise ValueError("order keys must be distinct (strict total order)")
        object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms))))
        masks = self.atoms or self.family or (0,)
        if min(masks) < 0 or max(masks) >> len(self.elements):
            raise ValueError("family masks must name elements only")

    @property
    def ideals(self) -> frozenset[frozenset[int]]:
        """The family decoded to element sets."""
        if self.family is None:
            raise ValueError("family past its enumeration budget")
        return frozenset(map(_masks(self).unmask, self.family))

    def below(self, x: int) -> frozenset[int]:
        kx = self.order_key[x]
        return frozenset(y for y in self.elements if self.order_key[y] < kx)

    def sorted_elements(self) -> list[int]:
        return sorted(self.elements, key=lambda x: self.order_key[x])

    def label(self, x: int) -> str:
        return self.labels.get(x, str(x))

    def to_json(self) -> dict:
        """The template-file form; "by-rank": the elements are in order.  A
        family of more than MAX_FAMILY members is written as its count."""
        n = None if self.family is None else len(self.family)
        out = {
            "elements": [self.label(x) for x in self.sorted_elements()],
            "less": "by-rank",
            "L0": sorted(self.label(x) for x in self.part0),
            "L1": sorted(self.label(x) for x in self.part1),
            "I": {"count": n, "omitted": True},
        }
        if n is not None and n <= MAX_FAMILY:
            family = [sorted(map(self.label, a)) for a in self.ideals]
            out["I"] = sorted(family, key=lambda xs: (len(xs), xs))
        return out


def _encode(subset: Iterable[int], index: Mapping[int, int]) -> int:
    """The mask of subset, where index gives each element's bit."""
    m = 0
    for x in subset:
        i = index.get(x)
        if i is None:
            raise ValueError(f"{x!r} is not an element of the template")
        m |= 1 << i
    return m


def _union(masks: Iterable[int]) -> int:
    return reduce(or_, masks, 0)


def _unions(gens: Iterable[int], budget: int) -> Optional[frozenset[int]]:
    """All unions of gens (the empty one too), or None past budget."""
    out = {0}
    for g in gens:
        out |= {m | g for m in out}
        if len(out) > budget:
            return None
    return frozenset(out)


def template_from_parts(
    elements: Sequence[int],
    less_pairs: Iterable[tuple[int, int]],
    ideals: Iterable[Iterable[int]],
    part0: Iterable[int],
    part1: Iterable[int],
) -> TemplateOrder:
    """Build from an explicit strict order relation (must be total)."""
    els = list(elements)
    pairs = set(less_pairs)
    for x, y in itertools.combinations(els, 2):
        if ((x, y) in pairs) == ((y, x) in pairs):
            raise ValueError(f"order must compare {x} and {y} exactly one way")
    # a relation comparing each pair one way is a strict total order iff the
    # counts of elements below each element are 0, 1, ..., n - 1
    index = {x: sum((y, x) in pairs for y in els) for x in els}
    if sorted(index.values()) != list(range(len(els))):
        raise ValueError("order relation is not transitive")
    return TemplateOrder(
        frozenset(els),
        {x: (i,) for x, i in index.items()},
        frozenset(_encode(a, index) for a in ideals),
        frozenset(part0),
        frozenset(part1),
    )


def from_atoms(t: TemplateOrder, atoms: Iterable[Iterable[int]], budget: int) -> TemplateOrder:
    """t's order and split with the unions of the atoms as the family, held
    as the atoms and enumerated only within budget."""
    mk = _masks(t)
    masks = [mk.mask(a) for a in atoms]
    # k atoms whose traces are k single part1 elements give 2^k members
    singles = _union(m & mk.part1 for m in masks if (m & mk.part1).bit_count() == 1)
    family = None if 1 << singles.bit_count() > budget else _unions(masks, budget)
    return TemplateOrder(t.elements, t.order_key, family, t.part0, t.part1, t.labels, tuple(masks))


def closure(t: TemplateOrder, subset: Iterable[int]) -> frozenset[int]:
    """Least superset closed under adding every part0 element below a member.

    One step reaches it: every element added lies below the top member, so
    the top, and with it the added part0 cone, stays the same."""
    cur = frozenset(subset)
    if not cur:
        return cur
    top = max(cur, key=t.order_key.__getitem__)
    return cur | (t.below(top) & t.part0)


class AxiomViolation(NamedTuple):
    clause: int
    detail: str


class ContractError(RuntimeError):
    """A template broke a law of all templates: a bug, not bad input."""


class _Masks:
    """Bitmask view of a template: element i of the sorted order is bit i."""

    def __init__(self, t: TemplateOrder) -> None:
        els = t.sorted_elements()
        self.index = {x: i for i, x in enumerate(els)}
        self.elements = els
        self.full = (1 << len(els)) - 1
        self.part0 = self.mask(t.part0)
        self.part1 = self.mask(t.part1)
        self.below = [(1 << i) - 1 for i in range(len(els))]  # below sorted elt i
        self.below0 = [b & self.part0 for b in self.below]
        self.family = t.family
        self.atoms = t.atoms  # sorted by value, so by top element

    @cached_property
    def members(self) -> list[int]:
        """The explicit family, sorted: every member-wise walk."""
        return sorted(self.family)

    @cached_property
    def inside(self) -> list[list[int]]:
        """The atoms inside each atom, sorted."""
        return [[c for c in self.atoms if not c & ~a] for a in self.atoms]

    def member(self, m: int) -> bool:
        """A set is a union of atoms iff the atoms inside it cover it."""
        if not self.atoms:
            return m in self.family
        return _union(a for a in self.atoms if not a & ~m) == m

    @cached_property
    def depths(self) -> Optional[dict[int, int]]:
        """Each part1 trace's depth; None when each part1 element of an atom
        is an atom's whole trace: the traces, the unions of the atoms'
        traces, are then a powerset, where depth is size."""
        if self.atoms:
            gens = {a & self.part1 for a in self.atoms}
            if _union(g for g in gens if g.bit_count() == 1) == _union(gens):
                return None
            traces = _unions(gens, 2_000)  # the recursion below is quadratic
            if traces is None:
                raise ValueError("more than 2,000 part1 traces to rank")
        else:
            traces = {a & self.part1 for a in self.members}
        depths: dict[int, int] = {}
        for tr in sorted(traces, key=lambda m: (m.bit_count(), m)):
            depths[tr] = max((depths[o] + 1 for o in depths if o != tr and not o & ~tr), default=0)
        return depths

    def mask(self, subset: Iterable[int]) -> int:
        return _encode(subset, self.index)

    def unmask(self, m: int) -> frozenset[int]:
        out = []
        while m:
            low = m & -m
            out.append(self.elements[low.bit_length() - 1])
            m ^= low
        return frozenset(out)

    def close(self, m: int) -> int:
        """The closure of m: m and the part0 cone below its top (``closure``
        proves that one step reaches it)."""
        return m | self.below0[m.bit_length() - 1] if m else 0


def _masks(t: TemplateOrder) -> _Masks:
    """t's mask view, built on first use and kept on t."""
    mk = getattr(t, "_mask_view", None)
    if mk is None:
        mk = _Masks(t)
        object.__setattr__(t, "_mask_view", mk)
    return mk


def check_axioms(t: TemplateOrder, pair_budget: int = 4_000_000) -> list[AxiomViolation]:
    """Exhaustive check of the five template clauses; first witnesses per
    violated clause.  An explicit family is read member by member, and one
    beyond pair_budget pairs is refused rather than checked approximately."""
    mk = _masks(t)
    gens = mk.atoms or mk.members
    out = [
        AxiomViolation(1, f"{name} set missing from the family")
        for name, m in (("empty", 0), ("full", mk.full))
        if not mk.member(m)
    ]
    out += _clause1_atoms(mk) if mk.atoms else _clause1_members(mk, pair_budget)
    # clause 2: every x < y with y in part1 lies in a member inside the cut of y.
    # The sets inside the cut of the i-th element are those below 1 << i.
    covered = inside = 0
    for yi, y in enumerate(mk.elements):
        while inside < len(gens) and gens[inside] >> yi == 0:
            covered |= gens[inside]
            inside += 1
        missing = mk.below[yi] & ~covered
        if mk.part1 >> yi & 1 and missing:
            x = mk.elements[(missing & -missing).bit_length() - 1]
            detail = f"no family member inside the cut of {t.label(y)} contains {t.label(x)}"
            out.append(AxiomViolation(2, detail))
            break
    out += _clause3_atoms(t, mk) if mk.atoms else _clause3_members(t, mk)
    # clause 4 (part1 traces are well-founded under strict inclusion) holds
    # for every finite family
    # clause 5: members are closed
    for a in gens:
        if mk.close(a) != a:
            out.append(AxiomViolation(5, f"{sorted(mk.unmask(a))} is not closed"))
            break
    return out


def _clause1_members(mk: _Masks, pair_budget: int) -> list[AxiomViolation]:
    if len(mk.members) ** 2 > pair_budget:
        raise ValueError(
            f"family of {len(mk.members)} sets is beyond the pairwise budget; "
            "refusing to check clause 1 approximately"
        )
    for a, b in itertools.combinations(mk.members, 2):
        for m, what in ((a | b, "union"), (a & b, "intersection")):
            if m not in mk.family:
                detail = f"{what} of {sorted(mk.unmask(a))} and {sorted(mk.unmask(b))} missing"
                return [AxiomViolation(1, detail)]
    return []


def _clause1_atoms(mk: _Masks) -> list[AxiomViolation]:
    known = set(mk.atoms)  # and the meets found to be members
    for i, a in enumerate(mk.atoms):
        for b in mk.atoms[i + 1 :]:
            m = a & b
            if m not in known:
                if _union(c for c in mk.inside[i] if not c & ~b) != m:
                    where = f"{sorted(mk.unmask(a))} and {sorted(mk.unmask(b))}"
                    return [AxiomViolation(1, f"intersection of atoms {where} missing")]
                known.add(m)
    return []


def _clause3_members(t: TemplateOrder, mk: _Masks) -> list[AxiomViolation]:
    """Cuts of members at part1 non-members stay in the family (a cut above
    a member's top is the member)."""
    for a in mk.members:
        probe = mk.part1 & ~a & mk.below[a.bit_length() - 1] if a else 0
        while probe:
            low = probe & -probe
            if a & (low - 1) not in t.family:
                return [_cut_leaves(t, mk, a, low)]
            probe ^= low
    return []


def _clause3_atoms(t: TemplateOrder, mk: _Masks) -> list[AxiomViolation]:
    """The same on each atom: the atoms inside its cut below x are a prefix
    of the atoms inside it."""
    for a, inside in zip(mk.atoms, mk.inside):
        probe = mk.part1 & ~a & mk.below[a.bit_length() - 1] if a else 0
        covered = k = 0
        while probe:
            low = probe & -probe
            while k < len(inside) and inside[k] < low:
                covered |= inside[k]
                k += 1
            if covered != a & (low - 1):
                return [_cut_leaves(t, mk, a, low)]
            probe ^= low
    return []


def _cut_leaves(t: TemplateOrder, mk: _Masks, a: int, low: int) -> AxiomViolation:
    x = mk.elements[low.bit_length() - 1]
    return AxiomViolation(3, f"{sorted(mk.unmask(a))} cut at {t.label(x)} leaves the family")


def depth(t: TemplateOrder, subset: Iterable[int]) -> int:
    """Well-founded rank of a family member by strict inclusion of part1
    traces; members inside part0 have depth 0."""
    mk = _masks(t)
    m = mk.mask(subset)
    if not mk.member(m):
        raise ValueError("depth is defined only on family members")
    trace = m & mk.part1
    return trace.bit_count() if mk.depths is None else mk.depths[trace]


def rank(t: TemplateOrder) -> int:
    return depth(t, t.elements)


def _bit_runs(keep: int) -> list[tuple[int, int, int]]:
    """The maximal runs of set bits of keep, low to high, as (shift, width
    mask, destination): the runs packed together from bit 0 up."""
    runs = []
    dest = 0
    while keep:
        shift = (keep & -keep).bit_length() - 1
        r = keep >> shift
        width = ((r + 1) & ~r) - 1  # the run's trailing ones
        runs.append((shift, width, dest))
        keep ^= width << shift
        dest += width.bit_length()
    return runs


def _compress(m: int, runs: Sequence[tuple[int, int, int]]) -> int:
    """The bits of m inside the runs, packed as the runs are."""
    out = 0
    for shift, width, dest in runs:
        out |= (m >> shift & width) << dest
    return out


def restrict_template(t: TemplateOrder, subset: Iterable[int]) -> TemplateOrder:
    """The induced template on a subset: induced order, trace family (and
    atoms), induced split.  If the subset is a member and t a template, the
    restriction's rank is the member's depth; a mismatch raises ValueError
    naming a clause t breaks, else ContractError."""
    keep = frozenset(subset)
    if not keep <= t.elements:
        raise ValueError("restriction set must consist of elements")
    mk = _masks(t)
    keep_mask = mk.mask(keep)
    runs = _bit_runs(keep_mask)
    traces = None if t.family is None else {a & keep_mask for a in t.family}
    out = TemplateOrder(
        keep,
        {x: t.order_key[x] for x in keep},
        None if traces is None else frozenset(_compress(m, runs) for m in traces),
        t.part0 & keep,
        t.part1 & keep,
        {x: t.label(x) for x in keep},
        tuple(_compress(a & keep_mask, runs) for a in mk.atoms),
    )
    if mk.member(keep_mask):
        got, want = rank(out), depth(t, keep)
        if got != want:
            broken = check_axioms(t)
            if broken:
                raise ValueError(f"not a template: clause {broken[0].clause}: {broken[0].detail}")
            raise ContractError(f"restriction rank {got} differs from the member's depth {want}")
    return out


# ---------------------------------------------------------------------------
# the surrogate-cardinal instance


@dataclass(frozen=True)
class SurrogateParams:
    """Finite stand-ins for the increasing cardinal sequence.

    level_sizes: strictly increasing sizes; the union scale is the last one.
    club_classes: number of partition classes on the negative copies; a
    value's class is value % club_classes, the same at every level, so the
    per-level partitions are coherent.
    last_negative_full: at the final slot after a negative entry, a negative
    value may range over the whole union copy (the literal reading); when
    off it is bounded by the slot's level.
    """

    level_sizes: tuple[int, ...]
    club_classes: int
    last_negative_full: bool = True
    element_cap: int = 5000  # positions: more are refused
    family_cap: int = 400_000  # members: more are not enumerated

    def __post_init__(self) -> None:
        if not self.level_sizes or any(s < 1 for s in self.level_sizes):
            raise ValueError("level sizes must be positive")
        if list(self.level_sizes) != sorted(set(self.level_sizes)):
            raise ValueError("level sizes must be strictly increasing")
        if self.club_classes < 1:
            raise ValueError("need at least one partition class")

    @property
    def top(self) -> int:
        return self.level_sizes[-1]

    @property
    def levels(self) -> int:
        return len(self.level_sizes)


@dataclass(frozen=True)
class SignedValue:
    value: int
    positive: bool

    def key(self) -> tuple:
        # negatives precede positives; negatives carry the reverse order
        return (1, self.value) if self.positive else (0, -self.value)

    def __str__(self) -> str:
        return str(self.value) if self.positive else f"-{self.value}"


_END = (0.5,)  # sorts after every negative key and before every positive key


@dataclass(frozen=True)
class SurrogatePosition:
    seq: tuple[SignedValue, ...]

    def key(self) -> tuple:
        return tuple(sv.key() for sv in self.seq) + (_END,)

    def __str__(self) -> str:
        return "(" + ", ".join(str(sv) for sv in self.seq) + ")"


def position_wellformed(pos: SurrogatePosition, params: SurrogateParams) -> bool:
    seq = pos.seq
    if not seq or len(seq) - 1 > params.levels:
        return False
    if not (seq[0].positive and seq[0].value < params.level_sizes[0]):
        return False
    n = len(seq)
    for i in range(1, n - 1):
        if i >= params.levels or seq[i].value >= params.level_sizes[i]:
            return False
    if n >= 2:
        last = seq[n - 1]
        # a final value ranges over the union copy when its sign repeats the
        # previous entry's (negatives only in the literal reading)
        free = last.positive == seq[n - 2].positive and (last.positive or params.last_negative_full)
        if free:
            return last.value < params.top
        return n - 1 < params.levels and last.value < params.level_sizes[n - 1]
    return True


def enumerate_positions(params: SurrogateParams) -> list[SurrogatePosition]:
    """All well-formed positions in increasing order.  Prefixes of
    well-formed positions are well-formed (the interior rule is stricter than
    every final-slot rule), so breadth-first extension is complete."""
    out: list[SurrogatePosition] = []
    values = [SignedValue(v, s) for v in range(params.top) for s in (True, False)]
    frontier = [SurrogatePosition((SignedValue(v, True),)) for v in range(params.level_sizes[0])]
    while frontier:
        nxt: list[SurrogatePosition] = []
        for pos in frontier:
            out.append(pos)
            seq = pos.seq
            n = len(seq)
            # the old final slot becomes interior and must obey the interior rule
            if n >= 2 and (n - 1 >= params.levels or seq[-1].value >= params.level_sizes[n - 1]):
                continue
            for sv in values:
                ext = SurrogatePosition(seq + (sv,))
                if position_wellformed(ext, params):
                    nxt.append(ext)
        if len(out) + len(nxt) > params.element_cap:
            raise ValueError(
                f"element count exceeds the cap {params.element_cap}; "
                "shrink the parameters or raise element_cap"
            )
        frontier = nxt
    return sorted(out, key=SurrogatePosition.key)


def position_in_part1(pos: SurrogatePosition, params: SurrogateParams) -> bool:
    i = len(pos.seq) - 1
    return i == 0 or (i < params.levels and pos.seq[i].value < params.level_sizes[i])


def is_relevant(pos: SurrogatePosition, params: SurrogateParams) -> bool:
    """Odd length at least 3, alternating positive/negative entries, final
    entry a small class index, and strictly decreasing partition classes at
    the predecessors of small even entries."""
    seq = pos.seq
    n = len(seq)
    classes = params.club_classes
    if n < 3 or n % 2 == 0 or not position_in_part1(pos, params):
        return False
    if any(sv.positive != (i % 2 == 0) for i, sv in enumerate(seq)):
        return False
    if seq[n - 1].value >= classes:
        return False
    small_even = [i for i in range(2, n, 2) if seq[i].value < classes]
    for a, b in itertools.combinations(small_even, 2):
        if seq[a - 1].value % classes <= seq[b - 1].value % classes:
            return False
    return True


def interval_finder(
    positions: Sequence[SurrogatePosition],
) -> Callable[[SurrogatePosition], frozenset[int]]:
    """The half-open interval from the truncation of a position up to it, as
    indices into the sorted position list: its keys are computed once, and
    each interval's ends are found by bisection."""
    keys = [p.key() for p in positions]

    def interval(pos: SurrogatePosition) -> frozenset[int]:
        lo = bisect_left(keys, SurrogatePosition(pos.seq[:-1]).key())
        return frozenset(range(lo, bisect_left(keys, pos.key(), lo)))

    return interval


class SurrogateTemplate(NamedTuple):
    params: SurrogateParams
    positions: list[SurrogatePosition]
    order: TemplateOrder
    relevant_ids: frozenset[int]
    atom_provenance: dict[str, frozenset[int]]


def build_surrogate_template(params: SurrogateParams) -> SurrogateTemplate:
    """Positions, order, split and the ideal family, held as its atoms: the
    members are enumerated only within params.family_cap."""
    positions = enumerate_positions(params)
    ids = list(range(len(positions)))
    key = {i: positions[i].key() for i in ids}
    part1 = frozenset(i for i in ids if position_in_part1(positions[i], params))
    part0 = frozenset(ids) - part1
    labels = {i: str(positions[i]) for i in ids}

    # the order and split, for the closures and the atom masks
    proto = TemplateOrder(frozenset(ids), key, frozenset({0}), part0, part1, labels)

    relevant = frozenset(i for i in ids if is_relevant(positions[i], params))
    atoms: dict[str, frozenset[int]] = {}
    # initial cuts at length-1 heads, plus the everything-cut
    for v in range(params.level_sizes[0]):
        head = SurrogatePosition((SignedValue(v, True),)).key()
        atoms[f"cut:{v}"] = frozenset(i for i in ids if key[i] < head)
    atoms["cut:top"] = frozenset(ids)
    interval = interval_finder(positions)
    for i in sorted(relevant):
        atoms[f"interval:{labels[i]}"] = closure(proto, interval(positions[i]))
    for i in sorted(part1):
        atoms[f"point:{labels[i]}"] = closure(proto, {i})
        atoms[f"cone0:{labels[i]}"] = frozenset(proto.below(i) & part0)

    order = from_atoms(proto, [atoms[name] for name in sorted(atoms)], params.family_cap)
    return SurrogateTemplate(params, positions, order, relevant, atoms)
