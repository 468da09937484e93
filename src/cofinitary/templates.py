"""Finite two-sided templates: a linear order with an ideal family and a
two-part split, the closure operator, the well-founded depth/rank, and the
classical template instantiated over small surrogate cardinals.

The ideal family of a surrogate instance is generated from a finite atom list
(initial cuts, closed intervals, singleton closures, lower part-0 cones) by
taking all finite unions.  Every family is stored as integer bitmasks, bit i
standing for the i-th element of the order, and the axiom checks, depth and
rank run on those masks, so that families with tens of thousands of members
stay checkable exactly: union closure over all pairs follows from
completeness of the union generation, and intersection closure over all
pairs reduces by distributivity to intersections of generating atoms, which
are checked exhaustively.  ``TemplateOrder.ideals`` decodes the masks to
element sets on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class TemplateOrder:
    """elements are opaque ids; order_key realizes the strict total order;
    family holds the members as bitmasks, bit i standing for the i-th
    element in order_key order; part0/part1 the two-sided split."""

    elements: frozenset[int]
    order_key: Mapping[int, tuple]
    family: frozenset[int]
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
        if self.family and (min(self.family) < 0 or max(self.family) >> len(self.elements)):
            raise ValueError("family masks must name elements only")

    @property
    def ideals(self) -> frozenset[frozenset[int]]:
        """The family decoded to element sets."""
        mk = _masks(self)
        return frozenset(mk.unmask(m) for m in self.family)

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


def _encode(subset: Iterable[int], index: Mapping[int, int]) -> int:
    """The mask of subset, where index gives each element's bit."""
    m = 0
    for x in subset:
        i = index.get(x)
        if i is None:
            raise ValueError(f"{x!r} is not an element of the template")
        m |= 1 << i
    return m


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
    index: dict[int, int] = {}
    remaining = set(els)
    while remaining:
        minimal = [x for x in sorted(remaining) if not any((y, x) in pairs for y in remaining)]
        if len(minimal) != 1:
            raise ValueError(f"order relation is not strict total: minimal set {minimal}")
        index[minimal[0]] = len(index)
        remaining.remove(minimal[0])
    return TemplateOrder(
        frozenset(els),
        {x: (i,) for x, i in index.items()},
        frozenset(_encode(a, index) for a in ideals),
        frozenset(part0),
        frozenset(part1),
    )


def closure(t: TemplateOrder, subset: Iterable[int]) -> frozenset[int]:
    """Least superset closed under adding every part0 element below a member.

    One step reaches it: every element added lies below the top member, so
    the top, and with it the added part0 cone, stays the same."""
    cur = frozenset(subset)
    if not cur:
        return cur
    top = max(cur, key=t.order_key.__getitem__)
    return cur | (t.below(top) & t.part0)


@dataclass(frozen=True)
class AxiomViolation:
    clause: int
    detail: str


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
        self.members = sorted(t.family)
        self.depths: Optional[dict[int, int]] = None  # trace -> depth, on first use

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
        """The closure of m in one step.  Closing adds below0[i] for each
        member i; these prefix cones nest, so one step adds below0[top(m)],
        whose bits lie below top(m) and so never raise it."""
        return m | self.below0[m.bit_length() - 1] if m else 0


def _masks(t: TemplateOrder) -> _Masks:
    """t's mask view, built on first use and kept on t."""
    mk = getattr(t, "_mask_view", None)
    if mk is None:
        mk = _Masks(t)
        object.__setattr__(t, "_mask_view", mk)
    return mk


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
    mk = _masks(t)
    ideals = mk.members
    family = t.family
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
                            f"union of {sorted(mk.unmask(a))} and "
                            f"{sorted(mk.unmask(b))} missing",
                        )
                    )
                    stop = True
                    break
                if a & b not in family:
                    out.append(
                        AxiomViolation(
                            1,
                            f"intersection of {sorted(mk.unmask(a))} and "
                            f"{sorted(mk.unmask(b))} missing",
                        )
                    )
                    stop = True
                    break
            if stop:
                break
    elif t.generators:
        atom_masks = [mk.mask(a) for a in t.generators]
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
                        f"atom intersection {sorted(mk.unmask(a & b))} missing",
                    )
                )
                break
    else:
        raise ValueError(
            f"family of {len(ideals)} sets is beyond the pairwise budget and carries "
            "no generating atoms; refusing to check clause 1 approximately"
        )
    # clause 2: every x < y with y in part1 lies in a member inside the cut of y.
    # A member lies inside the cut of the i-th element iff it is below 1 << i,
    # so the members inside the cuts grow as a prefix of the sorted members.
    sorted_els = mk.elements
    covered = 0
    inside = 0
    for yi, y in enumerate(sorted_els):
        while inside < len(ideals) and ideals[inside] >> yi == 0:
            covered |= ideals[inside]
            inside += 1
        if not (mk.part1 >> yi & 1):
            continue
        missing = mk.below[yi] & ~covered
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
    # clause 3: cuts of members at part1 non-members stay in the family (a cut
    # above a member's top element is the member itself, so it is skipped)
    done3 = False
    for a in ideals:
        if done3:
            break
        probe = mk.part1 & ~a & mk.below[a.bit_length() - 1] if a else 0
        while probe:
            low = probe & -probe
            xi = low.bit_length() - 1
            if a & mk.below[xi] not in family:
                out.append(
                    AxiomViolation(
                        3,
                        f"{sorted(mk.unmask(a))} cut at {t.label(sorted_els[xi])} "
                        "leaves the family",
                    )
                )
                done3 = True
                break
            probe ^= low
    # clause 4 (the part1 traces are well-founded under strict inclusion)
    # holds for every finite family: a strictly shrinking chain of traces is
    # no longer than the family
    # clause 5: members are closed
    for a in ideals:
        if mk.close(a) != a:
            out.append(AxiomViolation(5, f"{sorted(mk.unmask(a))} is not closed"))
            break
    return out


def _trace_depths(mk: _Masks) -> dict[int, int]:
    """The depth of each part1 trace, computed once per mask view."""
    if mk.depths is None:
        traces = sorted({a & mk.part1 for a in mk.members}, key=lambda m: (m.bit_count(), m))
        union_all = 0
        for tr in traces:
            union_all |= tr
        # fast path: the traces form the full powerset of their union
        if len(traces) == 1 << union_all.bit_count():
            mk.depths = {tr: tr.bit_count() for tr in traces}
        else:
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
            mk.depths = depths
    return mk.depths


def depth(t: TemplateOrder, subset: Iterable[int]) -> int:
    """Well-founded rank of a family member by strict inclusion of part1
    traces; members inside part0 have depth 0."""
    mk = _masks(t)
    m = mk.mask(subset)
    if m not in t.family:
        raise ValueError("depth is defined only on family members")
    return _trace_depths(mk)[m & mk.part1]


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
    """The induced template on a subset: induced order, trace family, induced
    split.  When the subset is itself a family member and t meets the
    clauses, the restriction's rank equals the member's depth in t.  This is
    checked, and a mismatch raises ValueError; families that break the
    clauses can show one."""
    keep = frozenset(subset)
    if not keep <= t.elements:
        raise ValueError("restriction set must consist of elements")
    mk = _masks(t)
    keep_mask = mk.mask(keep)
    runs = _bit_runs(keep_mask)
    out = TemplateOrder(
        keep,
        {x: t.order_key[x] for x in keep},
        frozenset(_compress(m, runs) for m in {a & keep_mask for a in t.family}),
        t.part0 & keep,
        t.part1 & keep,
        {x: t.label(x) for x in keep},
        tuple(frozenset(a & keep) for a in t.generators),
    )
    if keep_mask in t.family:
        got, want = rank(out), depth(t, keep)
        if got != want:
            raise ValueError(f"restriction rank {got} differs from the member's depth {want}")
    return out


# ---------------------------------------------------------------------------
# the surrogate-cardinal instance


@dataclass(frozen=True)
class SurrogateParams:
    """Finite stand-ins for the increasing cardinal sequence.

    level_sizes: strictly increasing sizes; the union scale is the last one.
    club_classes: number of partition classes on the negative copies.
    partition: class label for every value below the top scale; per-level
    partitions are its restrictions, hence coherent across levels.
    last_negative_full: at the final slot after a negative entry, a negative
    value may range over the whole union copy (the literal reading); when
    off it is bounded by the slot's level.
    """

    level_sizes: tuple[int, ...]
    club_classes: int
    partition: tuple[int, ...] = ()
    last_negative_full: bool = True
    element_cap: int = 5000
    family_cap: int = 400_000

    def __post_init__(self) -> None:
        if not self.level_sizes or any(s < 1 for s in self.level_sizes):
            raise ValueError("level sizes must be positive")
        if list(self.level_sizes) != sorted(set(self.level_sizes)):
            raise ValueError("level sizes must be strictly increasing")
        if self.club_classes < 1:
            raise ValueError("need at least one partition class")
        if not self.partition:
            object.__setattr__(
                self,
                "partition",
                tuple(v % self.club_classes for v in range(self.level_sizes[-1])),
            )
        if len(self.partition) != self.level_sizes[-1]:
            raise ValueError("partition must label every value below the top scale")
        if any(not (0 <= c < self.club_classes) for c in self.partition):
            raise ValueError("partition labels out of range")

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

    def __len__(self) -> int:
        return len(self.seq)

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
        bounded = n - 1 < params.levels and last.value < params.level_sizes[n - 1]
        free = last.value < params.top
        if seq[n - 2].positive:
            ok = free if last.positive else bounded
        else:
            if last.positive:
                ok = bounded
            else:
                ok = free if params.last_negative_full else bounded
        if not ok:
            return False
    return True


def enumerate_positions(params: SurrogateParams) -> list[SurrogatePosition]:
    """All well-formed positions in increasing order.

    Prefixes of well-formed positions are well-formed (the interior rule is
    stricter than every final-slot rule), so breadth-first extension of valid
    positions is complete.
    """
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
    if len(pos.seq) == 1:
        return True
    i = len(pos.seq) - 1
    return i < params.levels and pos.seq[i].value < params.level_sizes[i]


def is_relevant(pos: SurrogatePosition, params: SurrogateParams) -> bool:
    """Odd length at least 3, alternating positive/negative entries, final
    entry a small class index, and strictly decreasing partition classes at
    the predecessors of small even entries."""
    seq = pos.seq
    n = len(seq)
    if n < 3 or n % 2 == 0:
        return False
    if not position_in_part1(pos, params):
        return False
    for i, sv in enumerate(seq):
        if i % 2 == 0 and not sv.positive:
            return False
        if i % 2 == 1 and sv.positive:
            return False
    if seq[n - 1].value >= params.club_classes:
        return False
    small_even = [
        i
        for i in range(2, n, 2)
        if seq[i].value < params.club_classes
    ]
    for a, b in itertools.combinations(small_even, 2):
        if params.partition[seq[a - 1].value] <= params.partition[seq[b - 1].value]:
            return False
    return True


def interval_of(
    pos: SurrogatePosition, positions: Sequence[SurrogatePosition]
) -> frozenset[int]:
    """The half-open interval from the truncation of pos up to pos, as indices
    into the sorted position list."""
    trunc = SurrogatePosition(pos.seq[:-1])
    lo, hi = trunc.key(), pos.key()
    return frozenset(i for i, p in enumerate(positions) if lo <= p.key() < hi)


@dataclass
class SurrogateTemplate:
    params: SurrogateParams
    positions: list[SurrogatePosition]
    order: TemplateOrder
    relevant_ids: frozenset[int]
    atom_provenance: dict[str, frozenset[int]]


def build_surrogate_template(params: SurrogateParams) -> SurrogateTemplate:
    """Positions, order, split and the union-generated ideal family."""
    positions = enumerate_positions(params)
    n = len(positions)
    ids = list(range(n))
    key = {i: positions[i].key() for i in ids}
    part1 = frozenset(i for i in ids if position_in_part1(positions[i], params))
    part0 = frozenset(ids) - part1
    labels = {i: str(positions[i]) for i in ids}

    # temporary order object for closure computations
    proto = TemplateOrder(frozenset(ids), key, frozenset({0}), part0, part1, labels)

    relevant = frozenset(i for i in ids if is_relevant(positions[i], params))
    atoms: dict[str, frozenset[int]] = {}
    # initial cuts at length-1 heads, plus the everything-cut
    for v in range(params.level_sizes[0]):
        head = SurrogatePosition((SignedValue(v, True),)).key()
        atoms[f"cut:{v}"] = frozenset(i for i in ids if key[i] < head)
    atoms["cut:top"] = frozenset(ids)
    for i in sorted(relevant):
        atoms[f"interval:{labels[i]}"] = closure(proto, interval_of(positions[i], positions))
    for i in sorted(part1):
        atoms[f"point:{labels[i]}"] = closure(proto, {i})
        atoms[f"cone0:{labels[i]}"] = frozenset(proto.below(i) & part0)

    # all unions of atoms
    masks = {name: 0 for name in atoms}
    for name, a in atoms.items():
        m = 0
        for x in a:
            m |= 1 << x
        masks[name] = m
    family = {0}
    for name in sorted(masks):
        family |= {m | masks[name] for m in family}
        if len(family) > params.family_cap:
            raise ValueError(
                f"ideal family exceeds the cap {params.family_cap}; "
                "shrink the parameters or raise family_cap"
            )
    order = TemplateOrder(
        frozenset(ids),
        key,
        frozenset(family),  # the ids are the sorted positions, so bit i is id i
        part0,
        part1,
        labels,
        tuple(atoms[name] for name in sorted(atoms)),
    )
    return SurrogateTemplate(params, positions, order, relevant, atoms)
