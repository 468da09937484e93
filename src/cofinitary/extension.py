"""Certified extension machinery for conditions.

domain_extend / range_extend compute a finite forbidden set of values such
that every value outside it yields an extension of the condition (no frozen
word gains a fixed point), together with a deterministic chooser.  When a
frozen word holds the generator, the forbidden set is {n} together with the
values of s: every walk from those values stays among them.  That set, its
bound and where the chooser's scan starts are read off the value summary
each assignment carries from step to step (Assignment.summary), so a step
scans no value set.  The forbidden set may over-approximate; the extension
order check is re-run on every chosen value and is authoritative.

cover_extend forces a word's evaluation to cover given finite sets;
strong_reduction restricts a condition to a sub-alphabet padded so that
extensions built on the sub-alphabet merge back losslessly
(canonical_extension).  hit_extend / hit_search realize the density of
"agree with a target permutation beyond N" extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, filterfalse
from typing import Callable, Iterable, Optional, Union

from . import evaluation, poset
from .evaluation import Assignment, GroundPermutation, PartialMap, compose_shift_forms, eval_domain
from .poset import DISCIPLINES, Condition, side_index, validated
from .words import Word, invert, occurrences


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

    forbidden: frozenset[int]
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


def _word_modes_certificate(p: Condition, gen: int, n: int) -> ExtensionCertificate:
    """The certificate for (gen, n, ?) in the walk disciplines: F = {n} |
    V(s), read off the assignment's carried value summary, since every walk
    from those values stays among them.  bound is max(top, n) + 1, and
    [0, gap) lies in V, so the chooser's scan starts at gap.  No step scans
    V."""
    tries = side_index(p.words)
    if (gen, 1) not in tries and (gen, -1) not in tries:
        # no side word holds gen: keep the map injective
        return ExtensionCertificate.of(p.s.get(gen).rev)
    values, gap, top = p.s.summary()
    return ExtensionCertificate(values if n in values else values | {n}, max(top, n) + 1, gap)


def _forbidden_edf(p: Condition, gen: int, n: int) -> set[int]:
    # only a new agreement with a frozen partner at the new point is dangerous
    forb = set()
    for w in p.words:
        a, b = (letter.gen for letter in w.letters)
        if gen in (a, b):
            forb.add(p.s.get(b if a == gen else a).fwd.get(n))
    return forb - {None}


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
        m = self.certificate.least_admitted(floor)
        if ceiling is not None and m > ceiling:
            raise CertificateError(
                f"chooser exceeded ceiling {ceiling} for g{self.gen} at {self.point}"
            )
        out = self._apply(m)
        if not poset.leq(out, self.condition):
            raise ContractViolation(
                f"certificate admitted {m} for g{self.gen} at {self.point} "
                "but the extension fails the order check"
            )
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
    d = DISCIPLINES[p.mode]
    if d.values is not None:
        raise ValueError("use mad_set_point for MAD conditions")
    if d.kernel == "agreement":
        cert = ExtensionCertificate.of(_forbidden_edf(p, gen, n))
    else:
        cert = _word_modes_certificate(p, gen, n)
    return Extension(p, gen, n, cert, "domain")


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
    value = 1
    if gen in frozen:
        for b in sorted(frozen - {gen}):
            if p.s.get(b).fwd.get(n) == 1:
                value = 0
                break
    out = p.with_s(p.s.with_pair(gen, n, value))
    if not poset.leq(out, p):
        raise ContractViolation("MAD point decision broke intersection freezing")
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
    """(u_block, v_right, v_left) triples for the alternating split of w into
    kept-alphabet blocks u and dropped-alphabet blocks v.  v_right / v_left
    are empty at the word ends."""
    letters = w.letters
    outside = [i for i, l in enumerate(letters) if l.gen not in keep]
    if not outside:
        return []
    # group runs of adjacent outside positions
    groups: list[tuple[int, int]] = []
    start = prev = outside[0]
    for i in outside[1:]:
        if i == prev + 1:
            prev = i
        else:
            groups.append((start, prev))
            start = prev = i
    groups.append((start, prev))
    v_spans = [(a, b) for a, b in groups]
    blocks: list[tuple[Word, Word, Word]] = []
    bounds = [(-1, -1)] + v_spans + [(len(letters), len(letters))]
    for idx in range(len(bounds) - 1):
        left_span = bounds[idx]
        right_span = bounds[idx + 1]
        u_letters = letters[left_span[1] + 1 : right_span[0]]
        v_left = (
            Word(letters[left_span[0] : left_span[1] + 1]) if left_span[0] >= 0 else Word()
        )
        v_right = (
            Word(letters[right_span[0] : right_span[1] + 1])
            if right_span[0] < len(letters)
            else Word()
        )
        blocks.append((Word(u_letters), v_right, v_left))
    return blocks


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
                if not u_block:
                    continue
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
    sigma_gen: Optional[int] = None,
) -> Union[Condition, Rejected]:
    """Adjoin the single pair (gen, n, sigma(n)); accepted exactly when the
    order check certifies the extension."""
    if sigma_gen is not None:
        for w in p.words:
            if sigma_gen in occurrences(w):
                raise ValueError(f"side words mention the target generator g{sigma_gen}")
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
    hit_extend.  Computable when every side word containing gen is a pure
    power and sigma carries shift structure with nonzero net shift."""
    if sigma.shift_form is None:
        return None
    pm = p.s.get(gen)
    bound = 0
    for n in pm.domain():
        bound = max(bound, n + 1)
    for m in pm.image():
        bound = max(bound, sigma.unapply(m) + 1)
    for w in p.sorted_words():
        if gen not in occurrences(w):
            continue
        if occurrences(w) != {gen}:
            return None
        k = sum(l.sign for l in w.letters)
        net, exc = compose_shift_forms([(*sigma.shift_form, 1)] * abs(k))
        if k < 0:
            net, exc = -net, {m: n for n, m in exc.items()}
        if net == 0:
            return None
        fixed = sorted(x for x, y in exc.items() if y == x)
        for f in fixed:
            v = f
            for _ in range(abs(k) + 1):
                bound = max(bound, v + 1)
                v = sigma.apply(v)
    return bound


def hit_search(
    p: Condition,
    gen: int,
    sigma: GroundPermutation,
    start: int,
    window: int,
    sigma_gen: Optional[int] = None,
) -> Union[int, NotFound]:
    """First n in [start, start + window) whose hit extension is accepted."""
    for n in range(start, start + window):
        if n in p.s.get(gen).fwd:
            continue
        if sigma.apply(n) in p.s.get(gen).rev:
            continue
        if isinstance(hit_extend(p, gen, sigma, n, sigma_gen), Condition):
            return n
    return NOT_FOUND
