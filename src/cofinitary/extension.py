"""Certified extension machinery for conditions.

A new pair (gen, n, ?) has a finite forbidden set of values: every value
outside it yields an extension (no frozen word gains a fixed point).  Each
discipline's rule (walk_certificate, agreement_certificate, mad_value) and
the chooser's ceiling (least_within) are functions of plain lookups.  When
a frozen word holds the generator, the forbidden set is {n} together with
the values V of s: every walk from those values stays among them.  The
certificate reads it off the value summary (V, gap), so no step scans V.
It may over-approximate; the order check on every chosen value is
authoritative.

PointPhase is the one point step.  It opens on a condition and its side
set's index (poset.side_index), copies a generator's lookups the first time
it reads them (the order rule reads the others off the condition's maps)
and extends its copies in place: each step runs the discipline's rule, the
ceiling, validate's rules on the new pair (poset.pair_problems) and the
order rule leq asks per added pair (poset.SideIndex.breaks), then sets one
key per lookup and grows V.  V is built on the phase's first certificate,
so a phase that only searches for hits builds none.  hit is the hitting
lemma's step: the first point of a window where a pair agreeing with a
target permutation is kept.  close makes the one Condition.  The builder
steps a phase between freezes, hit goals among its steps; the samplers,
cover_extend, strong_reduction (one phase per reduction) and hit_search
each open one per call; hit-density opens one per condition and asks it,
keeping no pair, for every start.
domain_extend, range_extend, Extension.choose, extend_with and
mad_set_point are thin entries over a phase, kept for the benchmark tracer.

cover_extend forces a word's evaluation to cover given finite sets;
strong_reduction restricts a condition to a sub-alphabet padded so that
extensions built on the sub-alphabet merge back losslessly
(canonical_extension).  PointPhase.hit / hit_search realize the density
of "agree with a target permutation beyond N" extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, filterfalse, groupby
from typing import AbstractSet, Callable, Collection, Iterable, Mapping, Optional

from . import evaluation, poset
from .evaluation import Assignment, GroundPermutation, PartialMap, eval_domain
from .poset import DISCIPLINES, Condition
from .words import Letter, Word, invert, occurrences


class CertificateError(Exception):
    """The chooser's least admitted value lies above its ceiling."""


class ContractViolation(Exception):
    """An extension contract that should hold by construction failed;
    indicates an implementation bug and is surfaced loudly."""


@dataclass(frozen=True)
class ExtensionCertificate:
    """Finite forbidden set; every natural outside it is admitted, so the
    admitted set is cofinite.  gap is a natural with [0, gap) inside the
    forbidden set (0 claims nothing).  least_admitted finds the least
    admitted value at or above a floor without probing values one at a time.
    """

    forbidden: AbstractSet[int]
    gap: int = 0

    def least_admitted(self, floor: int = 0) -> int:
        """The least admitted value >= floor, by one scan in C that stops at
        the first value outside F.  Every value below gap is forbidden, so
        the scan starts at max(floor, gap); of the |F| + 1 naturals from
        there on, at most |F| are forbidden, so it ends within them.  When
        gap is F's least admitted value and floor <= gap, the first probe
        ends it."""
        return next(filterfalse(self.forbidden.__contains__, count(max(floor, self.gap))))

    @staticmethod
    def of(values: Iterable[int]) -> "ExtensionCertificate":
        return ExtensionCertificate(frozenset(values))


def walk_certificate(
    tries: Mapping[Letter, dict], gen: int, image: Collection[int], n: int,
    values: AbstractSet[int], gap: int,
) -> ExtensionCertificate:
    """The certificate for (gen, n, ?) in the walk disciplines, from the
    side-set index, gen's image and the value summary (V, gap) of the maps.
    When no side word holds gen, F is the image, so the map stays
    injective.  Otherwise F = {n} | V, since every walk from those values
    stays among them: [0, gap) lies in V, so the chooser's scan starts at
    gap, and F is V itself when n is in V.  No step scans V.  V is a point
    phase's own set, which the certificate reads as it stands: the phase
    reads its certificate before its next step grows V."""
    if (gen, 1) not in tries and (gen, -1) not in tries:
        return ExtensionCertificate.of(image)
    return ExtensionCertificate(values if n in values else values | {n}, gap)


def agreement_certificate(
    partner_lookups: Iterable[Mapping[int, int]], n: int
) -> ExtensionCertificate:
    """The certificate for (gen, n, ?) in the agreement discipline: only a
    new agreement with a frozen partner at the new point is dangerous, so F
    is the partners' values at n (the side-set index names them)."""
    values = (fb.get(n) for fb in partner_lookups)
    return ExtensionCertificate.of(v for v in values if v is not None)


def mad_value(
    gen: int, n: int, frozen: Collection[int], lookup: Callable[[int], Mapping[int, int]]
) -> int:
    """The value a MAD point step decides for gen at n: 1 when gen is no frozen
    letter or no other frozen letter already holds 1 there, else 0.
    `frozen` holds the frozen letters' generators (the keys of the side-set
    index's partners) and `lookup` gives a generator's fwd."""
    if gen in frozen and any(lookup(b).get(n) == 1 for b in frozen if b != gen):
        return 0
    return 1


def least_within(
    cert: ExtensionCertificate, gen: int, point: int, floor: int, ceiling: Optional[int]
) -> int:
    """The certificate's least admitted value >= floor; CertificateError
    when it lies above ceiling."""
    m = cert.least_admitted(floor)
    if ceiling is not None and m > ceiling:
        raise CertificateError(f"chooser exceeded ceiling {ceiling} for g{gen} at {point}")
    return m


def not_below(gen: int, point: int, m: int) -> ContractViolation:
    """The error of an admitted value whose extension fails the order check."""
    return ContractViolation(
        f"certificate admitted {m} for g{gen} at {point} but the extension fails the order check"
    )


MAD_NOT_BELOW = "MAD point decision broke intersection freezing"


class _Copies(dict):
    """gen -> a point phase's own copy of one lookup of base's map for gen
    (fwd for sign 1, rev for sign -1), made on first use; from then on the
    phase's lookup for that letter (steps) reads the copy."""

    def __init__(self, base: Condition, sign: int, steps: dict) -> None:
        super().__init__()
        self.base, self.sign, self.steps = base, sign, steps

    def __missing__(self, gen: int) -> dict[int, int]:
        pm = self.base.s.get(gen)
        copy = self[gen] = dict(pm.fwd if self.sign == 1 else pm.rev)
        self.steps[Letter(gen, self.sign)] = copy.get
        return copy


class PointPhase:
    """A condition extended in place, one checked pair per step (see the
    module docstring).  A step keeps its pair only once every check
    passes; a refused pair leaves the lookups as they were."""

    def __init__(self, base: Condition) -> None:
        self.base = base
        self.discipline = d = DISCIPLINES[base.mode]
        self.steps = poset._Steps(base.s)  # the lookup per letter, base's until copied
        # fwd and rev (rev only where maps are injective) per generator,
        # copied from base's maps, which the phase never changes
        self.fwd = _Copies(base, 1, self.steps)
        self.rev = _Copies(base, -1, self.steps) if d.injective else None
        self.added: list[tuple[int, int, int]] = []  # the kept pairs (gen, n, m)
        self.index = poset.side_index(d.kernel, base.words)  # fixed: no step grows the side set
        # V and gap (a walk's), built on the first certificate: a phase that
        # only searches for hits reads none
        self.values: Optional[set[int]] = None
        self.gap = 0

    def certificate(self, gen: int, point: int, direction: str) -> ExtensionCertificate:
        """The certificate for a new pair of gen at the fixed coordinate
        point ("domain": n, "range": m), read off base's side set and the
        lookups."""
        index = self.index
        if index.kernel == "agreement":
            return agreement_certificate([self.fwd[h] for h in index.partners.get(gen, ())], point)
        image = self.rev[gen] if direction == "domain" else self.fwd[gen]  # its keys
        if self.values is None:
            self.values, self.gap = self.base.s.summary()  # the phase's own set
            for _, n, m in self.added:
                self._grow(n, m)
        return walk_certificate(index.tries, gen, image, point, self.values, self.gap)

    def _grow(self, n: int, m: int) -> None:
        values = self.values
        values.add(n)
        values.add(m)
        while self.gap in values:
            self.gap += 1

    def domain(
        self, gen: int, n: int,
        floor: Optional[Callable[[], int]] = None, ceiling: Optional[int] = None,
    ) -> int:
        """n's value under gen: the one it has, else a new one, kept.  A
        finite value set (MAD) decides it by mad_value; otherwise it is the
        least admitted value >= floor() (0 without a floor) up to ceiling.
        floor is called only when a value is chosen, so a caller may draw
        it at random without spending a draw on MAD points or decided
        points."""
        value = self.fwd[gen].get(n)
        if value is None:
            if self.discipline.values is not None:
                value = mad_value(gen, n, self.index.partners, self.fwd.__getitem__)
            else:
                cert = self.certificate(gen, n, "domain")
                value = least_within(cert, gen, n, 0 if floor is None else floor(), ceiling)
            refusal = self.try_pair(gen, n, value)
            if refusal is not None:
                raise refusal
        return value

    def range(self, gen: int, m: int, ceiling: Optional[int] = None) -> int:
        """m's preimage under gen: the one it has, else the least admitted
        one up to ceiling, kept."""
        if self.rev is None:
            raise ValueError(f"range extension undefined for {self.base.mode.value} conditions")
        n = self.rev[gen].get(m)
        if n is None:
            n = least_within(self.certificate(gen, m, "range"), gen, m, 0, ceiling)
            refusal = self.try_pair(gen, n, m, True, "range")
            if refusal is not None:
                raise refusal
        return n

    def try_pair(
        self, gen: int, n: int, m: int, keep: bool = True, direction: str = "domain"
    ) -> Optional[Exception]:
        """None when the pair (n, m) on gen passes validate's rules on the
        grown map (poset.pair_problems), checked first, and the order
        rule (SideIndex.breaks); then it is kept if keep is set, recorded in
        `added`, with V grown once built.  Otherwise the lookups stay as they were and
        the refusal comes back: a ValueError with validate's message, or
        the rule's ContractViolation for a step in the direction ("domain":
        n fixed, "range": m fixed).  The pair must be new: the rule reads it
        as gen's first value at n, so it is asked without old lookups."""
        fwd = self.fwd[gen]
        d = self.discipline
        rev = None if self.rev is None else self.rev[gen]
        problems = poset.pair_problems(d, gen, fwd, rev, n, m)
        if problems:
            return ValueError("; ".join(problems))
        fwd[n] = m
        if rev is not None:
            rev[m] = n
        refusal = None
        if self.index.breaks(self.steps, gen, n, m):
            refusal = (
                ContractViolation(MAD_NOT_BELOW) if d.values is not None
                else not_below(gen, n, m) if direction == "domain" else not_below(gen, m, n)
            )
        elif keep:
            self.added.append((gen, n, m))
            if self.values is not None:
                self._grow(n, m)
            return None
        del fwd[n]
        if rev is not None:
            del rev[m]
        return refusal

    def hit(
        self, gen: int, sigma: GroundPermutation, start: int, window: int, keep: bool = True
    ) -> Optional[int]:
        """The first n in [start, start + window) where gen has no value,
        sigma(n) has no preimage and try_pair accepts (n, sigma(n)), with
        the pair kept if keep is set; None when there is none.  Where the
        phase keeps no rev (edf, mad), the preimages are read off base's
        map."""
        fwd = self.fwd[gen]
        rev = self.base.s.get(gen).rev if self.rev is None else self.rev[gen]
        for n in range(start, start + window):
            if n in fwd:
                continue
            m = sigma.apply(n)
            if m not in rev and self.try_pair(gen, n, m, keep) is None:
                return n
        return None

    def close(self) -> Condition:
        """The condition the lookups stand for, validated against base:
        base itself when no pair was kept; otherwise base's maps, the same
        objects, where no kept pair touched a generator, and the phase's
        lookups, handed over, where one did.  The phase ends here, so no
        step changes a handed-over lookup: a later phase copies it."""
        fwd, rev = self.fwd, self.rev
        self.fwd = self.rev = None  # the phase is over
        base = self.base
        if not self.added:
            return base
        table = dict(base.s.table)
        for g in {g for g, _, _ in self.added}:
            table[g] = PartialMap.of_lookups(fwd[g], None if rev is None else rev[g])
        s = Assignment._of_clean(dict(sorted(table.items())))
        return poset.validated(base, Condition(s, base.words, base.mode))


# -- thin entries over the phase -------------------------------------------------
# domain_extend, range_extend, Extension.choose, extend_with and mad_set_point
# are kept because perfbench/tracing.py wraps them by name; no code here steps
# through them.


@dataclass(frozen=True)
class Extension:
    """A certificate plus a deterministic chooser for one new pair of the
    condition a point phase was opened on."""

    phase: PointPhase
    gen: int
    point: int  # the fixed coordinate: n for domain, m for range
    certificate: ExtensionCertificate
    direction: str  # "domain" | "range"

    def choose(self, floor: int = 0, ceiling: Optional[int] = None) -> int:
        """Least admitted value >= floor; CertificateError when it lies
        above ceiling.  The phase's checks run on the resulting pair, which
        it does not keep.  Kept because perfbench/tracing.py wraps it by
        name."""
        m = least_within(self.certificate, self.gen, self.point, floor, ceiling)
        pair = (self.point, m) if self.direction == "domain" else (m, self.point)
        refusal = self.phase.try_pair(self.gen, *pair, keep=False, direction=self.direction)
        if refusal is not None:
            raise refusal
        return m


def domain_extend(p: Condition, gen: int, n: int) -> Extension:
    """Certificate and chooser for adding (gen, n, m): cofinitely many m keep
    the extension below p.  Kept because perfbench/tracing.py wraps it by
    name."""
    if n in p.s.get(gen).fwd:
        raise ValueError(f"{n} already in the domain of g{gen}")
    if DISCIPLINES[p.mode].values is not None:
        raise ValueError("use mad_set_point for MAD conditions")
    phase = PointPhase(p)
    return Extension(phase, gen, n, phase.certificate(gen, n, "domain"), "domain")


def range_extend(p: Condition, gen: int, m: int) -> Extension:
    """Certificate and chooser for adding (gen, n, m) with m fixed.  Kept
    because perfbench/tracing.py wraps it by name."""
    if m in p.s.get(gen).rev:
        raise ValueError(f"{m} already in the range of g{gen}")
    if not DISCIPLINES[p.mode].injective:
        raise ValueError(f"range extension undefined for {p.mode.value} conditions")
    phase = PointPhase(p)
    return Extension(phase, gen, m, phase.certificate(gen, m, "range"), "range")


def extend_with(p: Condition, gen: int, n: int, m: int) -> Condition:
    """p with the pair (gen, n, m) adjoined; validated and order-checked.
    Kept because perfbench/tracing.py wraps it by name."""
    phase = PointPhase(p)
    refusal = None if phase.fwd[gen].get(n) == m else phase.try_pair(gen, n, m)
    if isinstance(refusal, ContractViolation):
        raise ContractViolation(f"adding (g{gen}, {n}, {m}) does not extend the condition")
    if refusal is not None:
        raise refusal
    return phase.close()


def mad_set_point(p: Condition, gen: int, n: int) -> Condition:
    """Decide the point n for gen: 1 when no frozen partner already holds 1
    there, else 0.  Kept because perfbench/tracing.py wraps it by name."""
    if n in p.s.get(gen).fwd:
        raise ValueError(f"{n} already decided for g{gen}")
    phase = PointPhase(p)
    phase.domain(gen, n)
    return phase.close()


# -- covers, reductions and hits ---------------------------------------------------


def _cover(
    phase: PointPhase, w: Word, cover_domain: Iterable[int], cover_range: Iterable[int]
) -> None:
    """Step the phase until the evaluation of w is defined on all of
    cover_domain and onto all of cover_range: a walk that fails at a letter
    gets the pair it lacks there, by a domain step for g and a range step
    for g^-1.  A walk of k letters needs at most k steps."""
    for target_word, targets in ((w, cover_domain), (invert(w), cover_range)):
        applied = target_word.letters[::-1]
        for c in sorted(set(targets)):
            for _ in range(len(applied) + 1):
                v = c
                for letter in applied:  # the walk from c, to the letter it lacks
                    nxt = phase.steps[letter](v)
                    if nxt is None:
                        break
                    v = nxt
                else:
                    break  # the walk is defined
                if letter.sign == 1:
                    phase.domain(letter.gen, v)
                else:
                    phase.range(letter.gen, v)
            else:
                raise ContractViolation("cover walk stuck")


def cover_extend(
    p: Condition,
    w: Word,
    cover_domain: Iterable[int],
    cover_range: Iterable[int],
) -> Assignment:
    """An assignment t over the generators of w with (s u t, F) <= p,
    the evaluation of w defined on all of cover_domain and onto all of
    cover_range: the pairs a point phase over p adds.  It takes range
    steps, so it is defined in the injective modes only."""
    if not DISCIPLINES[p.mode].injective:
        raise ValueError(f"cover extension undefined for {p.mode.value} conditions")
    phase = PointPhase(p)
    _cover(phase, w, cover_domain, cover_range)
    extra_gens = {g for g, _, _ in phase.added} - occurrences(w)
    if extra_gens:
        raise ContractViolation(f"cover touched foreign generators {sorted(extra_gens)}")
    table: dict[int, set[tuple[int, int]]] = {}
    for g, a, b in phase.added:
        table.setdefault(g, set()).add((a, b))
    return Assignment({g: PartialMap(frozenset(ps)) for g, ps in table.items()})


def _pair_blocks(w: Word, keep: frozenset[int]) -> list[tuple[Word, Word, Word]]:
    """(u_block, v_right, v_left) for each run u_block of kept letters in w,
    with the runs of dropped letters either side of it; v_right / v_left
    are empty at the word ends."""
    runs = [(kept, Word(tuple(run))) for kept, run in groupby(w.letters, lambda l: l.gen in keep)]
    empty = Word()
    return [
        (u, runs[i + 1][1] if i + 1 < len(runs) else empty, runs[i - 1][1] if i else empty)
        for i, (kept, u) in enumerate(runs)
        if kept
    ]


def strong_reduction(p: Condition, keep: Iterable[int]) -> Condition:
    """The condition (t0, F restricted to the kept alphabet) with t0 padded so
    that any extension built over the kept alphabet, with new occurrences
    disjoint from the rest of p, merges back losslessly.  The padding (0s,
    agreement points or walk covers) steps one point phase over p.

    The result is kept on p with its keep, and handed back for the same
    keep: canonical_extension reduces the p its caller has just reduced."""
    keep = frozenset(keep)
    memo = p._reduction
    if memo is not None and memo[0] == keep:
        return memo[1]
    base = poset.strong_restrict(p, keep)
    kernel = DISCIPLINES[p.mode].kernel
    phase = PointPhase(p)
    if kernel == "ones":
        # a kept frozen letter takes 0 where a dropped one holds 1
        frozen = {w.letters[0].gen for w in p.words}
        hot = sorted({n for b in frozen - keep for n, v in p.s.get(b).pairs if v == 1})
        for a in sorted(frozen & keep):
            fwd = phase.fwd[a]
            for n in hot:
                if n not in fwd and phase.try_pair(a, n, 0) is not None:
                    raise ContractViolation(f"padding g{a} with 0 at {n} was refused")
    else:
        for w in p.sorted_words():
            if kernel == "agreement":
                a, b = w.letters[0].gen, w.letters[1].gen
                if (a in keep) != (b in keep):  # pad the kept one where the other is defined
                    c, d = (a, b) if a in keep else (b, a)
                    for n in sorted(p.s.get(d).fwd):  # a decided point is skipped
                        phase.domain(c, n)
            elif not occurrences(w) <= keep:
                for u_block, v_right, v_left in _pair_blocks(w, keep):
                    need_dom = evaluation.eval_range(v_right, p.s) if v_right else frozenset()
                    need_ran = eval_domain(v_left, p.s) if v_left else frozenset()
                    _cover(phase, u_block, need_dom, need_ran)
    out = base.with_s(phase.close().s.restrict(keep))
    if not poset.leq(out, base):
        raise ContractViolation("reduction must extend the strong restriction")
    object.__setattr__(p, "_reduction", (keep, out))
    return out


def canonical_extension(p: Condition, t: Condition, keep: Iterable[int]) -> Condition:
    """The union of p and an extension t of p's strong reduction on `keep`,
    checked to extend both; a t of another mode raises ValueError (leq)."""
    keep = frozenset(keep)
    red = strong_reduction(p, keep)
    if not poset.leq(t, red):
        raise ValueError("t does not extend the strong reduction")
    clash = t.occurring() & (p.occurring() - keep)
    if clash:
        raise ValueError(f"occurrence disjointness violated on {sorted(clash)}")
    out = Condition(p.s.union(t.s), p.words | t.words, p.mode)
    bad = poset.validate(out)
    if bad:
        raise ContractViolation("; ".join(bad))
    if not poset.leq(out, p):
        raise ContractViolation("canonical extension does not extend the base condition")
    if not poset.leq(out, t):
        raise ContractViolation("canonical extension does not extend the side condition")
    return out


def hit_threshold(p: Condition, gen: int, sigma: GroundPermutation) -> Optional[int]:
    """Exact acceptance threshold: every n >= threshold is accepted by
    PointPhase.hit.  Computable when sigma is a power of the shift and every
    side word containing gen is a power of gen; a nonzero power of the
    shift fixes no natural, so then only the pairs of gen bound it.  The
    identity (shift 0) has one only when no side word holds gen."""
    if sigma.shift is None:
        return None
    pm = p.s.get(gen)
    bound = 0
    for n in pm.domain():
        bound = max(bound, n + 1)
    for m in pm.image():
        bound = max(bound, sigma.unapply(m) + 1)
    for w in p.words:
        occ = occurrences(w)
        if gen in occ and (occ != {gen} or sigma.shift == 0):
            return None
    return bound


def hit_search(
    p: Condition,
    gen: int,
    sigma: GroundPermutation,
    start: int,
    window: int,
) -> Optional[int]:
    """First n in [start, start + window) whose hit pair a point phase over
    p accepts (PointPhase.hit), or None when there is none; the phase keeps
    none of them.  Kept as a function because perfbench/tracing.py wraps it
    by name; hit-density asks one phase per condition for all its starts
    instead, since a phase that keeps no pair answers each as this does."""
    return PointPhase(p).hit(gen, sigma, start, window, keep=False)
