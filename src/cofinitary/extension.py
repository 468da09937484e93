"""Certified extension machinery for conditions.

domain_extend / range_extend compute a finite forbidden set of values such
that every value outside it yields an extension of the condition (no frozen
word gains a fixed point), together with a deterministic chooser.  When a
frozen word holds the generator, the forbidden set is {n} together with the
values of s: every walk from those values stays among them.  That set, its
bound and where the chooser's scan starts are read off the value summary
each assignment carries from step to step (Assignment.summary), so a step
scans no value set.  The forbidden set may over-approximate; the extension
order check is re-run on every chosen value and is authoritative.  Each
discipline's rule (walk_certificate, agreement_certificate, mad_value) and
the chooser's ceiling (least_within) are functions of plain lookups, which
the builder's point phase calls on its own mutable maps as well.

cover_extend forces a word's evaluation to cover given finite sets;
strong_reduction restricts a condition to a sub-alphabet padded so that
extensions built on the sub-alphabet merge back losslessly
(canonical_extension).  hit_extend / hit_search realize the density of
"agree with a target permutation beyond N" extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, filterfalse, groupby
from typing import AbstractSet, Callable, Collection, Iterable, Mapping, Optional, Union

from . import evaluation, poset
from .evaluation import Assignment, GroundPermutation, PartialMap, eval_domain
from .poset import DISCIPLINES, Condition, side_index, validated
from .words import Letter, Word, invert, occurrences


class CertificateError(Exception):
    """The chooser's least admitted value lies above its ceiling."""


class ContractViolation(Exception):
    """An extension contract that should hold by construction failed;
    indicates an implementation bug and is surfaced loudly."""


@dataclass(frozen=True)
class Rejected:
    reason: str


class NotFound:
    def __repr__(self) -> str:  # pragma: no cover
        return "NotFound"


NOT_FOUND = NotFound()


@dataclass(frozen=True)
class ExtensionCertificate:
    """Finite forbidden set; every natural outside it is admitted.

    bound is the least value above the whole forbidden set, witnessing that
    the admitted set is cofinite.  gap is a natural with [0, gap) inside the
    forbidden set (0 claims nothing).  least_admitted finds the least
    admitted value at or above a floor without probing values one at a time.
    """

    forbidden: AbstractSet[int]
    bound: int
    gap: int = 0

    def admits(self, m: int) -> bool:
        return m >= 0 and m not in self.forbidden

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
        forb = frozenset(values)
        return ExtensionCertificate(forb, max(forb, default=-1) + 1)


def walk_certificate(
    tries: Mapping[Letter, dict],
    gen: int,
    image: Callable[[], Collection[int]],
    n: int,
    summary: Callable[[], tuple[AbstractSet[int], int, int]],
) -> ExtensionCertificate:
    """The certificate for (gen, n, ?) in the walk disciplines, from the
    side-set index, gen's image and the value summary (V, gap, top) of the
    maps (Assignment.summary); each of the last two is read only where the
    rule needs it.  When no side word holds gen, F is the image, so the map
    stays injective.  Otherwise F = {n} | V, since every walk
    from those values stays among them: bound is max(top, n) + 1, [0, gap)
    lies in V, so the chooser's scan starts at gap, and F is V itself when n
    is in V.  No step scans V.  V may be the caller's own set, which the
    certificate then reads as it stands: the builder's point phase reads
    its certificate before its next step grows V."""
    if (gen, 1) not in tries and (gen, -1) not in tries:
        return ExtensionCertificate.of(image())
    values, gap, top = summary()
    return ExtensionCertificate(values if n in values else values | {n}, max(top, n) + 1, gap)


def agreement_certificate(
    partner_lookups: Iterable[Mapping[int, int]], n: int
) -> ExtensionCertificate:
    """The certificate for (gen, n, ?) in the agreement discipline: only a
    new agreement with a frozen partner at the new point is dangerous, so F
    is the partners' values at n (poset.partners names them)."""
    values = (fb.get(n) for fb in partner_lookups)
    return ExtensionCertificate.of(v for v in values if v is not None)


def mad_value(
    gen: int, n: int, frozen: Collection[int], lookup: Callable[[int], Mapping[int, int]]
) -> int:
    """The value mad_set_point decides for gen at n: 1 when gen is no frozen
    letter or no other frozen letter already holds 1 there, else 0.
    `lookup` gives a generator's fwd."""
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


def extend_with(p: Condition, gen: int, n: int, m: int) -> Condition:
    """p with the pair (gen, n, m) adjoined; validated and order-checked."""
    out = validated(p, p.with_s(p.s.with_pair(gen, n, m)))
    if not poset.leq(out, p):
        raise ContractViolation(
            f"adding (g{gen}, {n}, {m}) does not extend the condition"
        )
    return out


@dataclass(frozen=True)
class Extension:
    """A certificate plus a deterministic chooser for one new pair."""

    condition: Condition
    gen: int
    point: int  # the fixed coordinate: n for domain, m for range
    certificate: ExtensionCertificate
    direction: str  # "domain" | "range"

    def choose(self, floor: int = 0, ceiling: Optional[int] = None) -> int:
        """Least admitted value >= floor, found in one step by
        ExtensionCertificate.least_admitted; CertificateError when it lies
        above ceiling.  The resulting extension is re-checked against the
        extension order before being trusted."""
        m = least_within(self.certificate, self.gen, self.point, floor, ceiling)
        out = self._apply(m)
        if not poset.leq(out, self.condition):
            raise not_below(self.gen, self.point, m)
        # commit hands this condition back without a second leq
        object.__setattr__(self, "_checked", (m, out))
        return m

    def commit(self, value: int) -> Condition:
        """The condition extended by value, validated and order-checked.

        For the value choose last returned, its order check stands and only
        the new pair is validated; any other value goes through extend_with.
        """
        checked = getattr(self, "_checked", None)
        if checked is None or checked[0] != value:
            return extend_with(self.condition, self.gen, *self._pair(value))
        return validated(self.condition, checked[1])

    def _pair(self, value: int) -> tuple[int, int]:
        return (self.point, value) if self.direction == "domain" else (value, self.point)

    def _apply(self, value: int) -> Condition:
        p = self.condition
        return p.with_s(p.s.with_pair(self.gen, *self._pair(value)))


def domain_extend(p: Condition, gen: int, n: int) -> Extension:
    """Certificate and chooser for adding (gen, n, m): cofinitely many m keep
    the extension below p."""
    if n in p.s.get(gen).fwd:
        raise ValueError(f"{n} already in the domain of g{gen}")
    if DISCIPLINES[p.mode].values is not None:
        raise ValueError("use mad_set_point for MAD conditions")
    return Extension(p, gen, n, certificate(p, gen, n), "domain")


def certificate(p: Condition, gen: int, n: int) -> ExtensionCertificate:
    """The certificate for (gen, n, ?) over p: its discipline's rule read off
    p's side-set index or pair partners and p's maps."""
    if DISCIPLINES[p.mode].kernel == "agreement":
        partners = poset.partners(p.words).get(gen, ())
        return agreement_certificate([p.s.get(h).fwd for h in partners], n)
    return walk_certificate(side_index(p.words), gen, p.s.get(gen).image, n, p.s.summary)


def _mirror(p: Condition, gen: int) -> Condition:
    """Invert gen's map.  Of the side words, the certificate reads a single
    fact, whether one holds gen; flipping gen's sign in them would not
    change it, so the mirror keeps p's side set, and with it p's cached
    side-set index.  Inverting keeps the values of s, so the mirror shares
    its value summary (Assignment.with_inverse)."""
    return p.with_s(p.s.with_inverse(gen))


def range_extend(p: Condition, gen: int, m: int) -> Extension:
    """Certificate and chooser for adding (gen, n, m) with m fixed."""
    if m in p.s.get(gen).rev:
        raise ValueError(f"{m} already in the range of g{gen}")
    if not DISCIPLINES[p.mode].injective:
        raise ValueError(f"range extension undefined for {p.mode.value} conditions")
    ext = domain_extend(_mirror(p, gen), gen, m)
    return Extension(p, gen, m, ext.certificate, "range")


def mad_set_point(p: Condition, gen: int, n: int) -> Condition:
    """Decide the point n for gen: 1 when no frozen partner already holds 1
    there, else 0."""
    if n in p.s.get(gen).fwd:
        raise ValueError(f"{n} already decided for g{gen}")
    frozen = {w.letters[0].gen for w in p.words}
    value = mad_value(gen, n, frozen, lambda b: p.s.get(b).fwd)
    out = p.with_s(p.s.with_pair(gen, n, value))
    if not poset.leq(out, p):
        raise ContractViolation(MAD_NOT_BELOW)
    return out


def point_step(
    p: Condition, gen: int, n: int,
    floor: Callable[[], int] = lambda: 0, ceiling: Optional[int] = None,
) -> Condition:
    """p with n added to the domain of gen, validated and order-checked.

    A finite value set (MAD) decides the value by mad_set_point's rule;
    otherwise it is the least admitted value >= floor() up to ceiling.
    floor is called only when a value is chosen, so a caller may draw it at
    random without spending a draw on decided points.
    """
    if DISCIPLINES[p.mode].values is not None:
        return mad_set_point(p, gen, n)
    ext = domain_extend(p, gen, n)
    return ext.commit(ext.choose(floor=floor(), ceiling=ceiling))


def cover_extend(
    p: Condition,
    w: Word,
    cover_domain: Iterable[int],
    cover_range: Iterable[int],
) -> Assignment:
    """An assignment t over the generators of w with (s u t, F) <= p,
    the evaluation of w defined on all of cover_domain and onto all of
    cover_range."""
    cur = p
    for target_word, targets in ((w, cover_domain), (invert(w), cover_range)):
        for c in sorted(set(targets)):
            guard = 0
            while evaluation.eval_word(target_word, cur.s, c) is None:
                guard += 1
                if guard > len(target_word.letters) + 1:
                    raise ContractViolation("cover walk stuck")
                v: Optional[int] = c
                letters = target_word.letters
                for idx in range(len(letters) - 1, -1, -1):
                    nxt = evaluation.apply_letter(letters[idx], v, cur.s)
                    if nxt is None:
                        letter = letters[idx]
                        if letter.sign == 1:
                            ext = domain_extend(cur, letter.gen, v)
                        else:
                            ext = range_extend(cur, letter.gen, v)
                        cur = ext.commit(ext.choose())
                        break
                    v = nxt
    added = cur.s.triples() - p.s.triples()
    extra_gens = {g for g, _, _ in added} - occurrences(w)
    if extra_gens:
        raise ContractViolation(f"cover touched foreign generators {sorted(extra_gens)}")
    table: dict[int, set[tuple[int, int]]] = {}
    for g, a, b in added:
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
    disjoint from the rest of p, merges back losslessly.

    The result is kept on p with its keep, and handed back for the same
    keep: canonical_extension reduces the p its caller has just reduced."""
    keep = frozenset(keep)
    memo = p._reduction
    if memo is not None and memo[0] == keep:
        return memo[1]
    base = poset.strong_restrict(p, keep)
    kernel = DISCIPLINES[p.mode].kernel
    if kernel == "ones":
        t0 = dict(p.s.restrict(keep).table)
        frozen = {w.letters[0].gen for w in p.words}
        inside = sorted(frozen & keep)
        outside = sorted(frozen - keep)
        hot = set()
        for b in outside:
            hot |= {n for n, v in p.s.get(b).pairs if v == 1}
        for a in inside:
            pairs = set(t0.get(a, PartialMap()).pairs)
            decided = {n for n, _ in pairs}
            for n in sorted(hot - decided):
                pairs.add((n, 0))
            if pairs:
                t0[a] = PartialMap(frozenset(pairs))
        out = base.with_s(Assignment(t0))
    elif kernel == "agreement":
        cur = p
        for w in p.sorted_words():
            a, b = w.letters[0].gen, w.letters[1].gen
            ins = [g for g in (a, b) if g in keep]
            outs = [g for g in (a, b) if g not in keep]
            if len(ins) != 1:
                continue
            c, d = ins[0], outs[0]
            for n in sorted(p.s.get(d).domain() - cur.s.get(c).domain()):
                cur = point_step(cur, c, n)
        out = base.with_s(cur.s.restrict(keep))
    else:
        cur = p
        for w in p.sorted_words():
            if occurrences(w) <= keep:
                continue
            for u_block, v_right, v_left in _pair_blocks(w, keep):
                need_dom = evaluation.eval_range(v_right, p.s) if v_right else frozenset()
                need_ran = eval_domain(v_left, p.s) if v_left else frozenset()
                t = cover_extend(cur, u_block, need_dom, need_ran)
                cur = cur.with_s(cur.s.union(t))
        out = base.with_s(cur.s.restrict(keep))
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


def hit_extend(
    p: Condition,
    gen: int,
    sigma: GroundPermutation,
    n: int,
) -> Union[Condition, Rejected]:
    """Adjoin the single pair (gen, n, sigma(n)); accepted exactly when the
    order check certifies the extension."""
    if n in p.s.get(gen).fwd:
        raise ValueError(f"{n} already in the domain of g{gen}")
    m = sigma.apply(n)
    if m in p.s.get(gen).rev:
        raise ValueError(f"sigma({n}) = {m} already in the range of g{gen}")
    out = p.with_s(p.s.with_pair(gen, n, m))
    if poset.leq(out, p):
        return out
    return Rejected(f"pair (g{gen}, {n}, {m}) adds a fixed point to a frozen word")


def hit_threshold(p: Condition, gen: int, sigma: GroundPermutation) -> Optional[int]:
    """Exact acceptance threshold: every n >= threshold is accepted by
    hit_extend.  Computable when sigma is a power of the shift and every
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
) -> Union[int, NotFound]:
    """First n in [start, start + window) whose hit extension is accepted."""
    for n in range(start, start + window):
        if n in p.s.get(gen).fwd:
            continue
        if sigma.apply(n) in p.s.get(gen).rev:
            continue
        if isinstance(hit_extend(p, gen, sigma, n), Condition):
            return n
    return NOT_FOUND
