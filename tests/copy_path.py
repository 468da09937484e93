"""The copy path: the point step as it was before extension.PointPhase.

Every step made a new condition.  domain_extend read a certificate off the
condition, and range_extend read it off the mirror, the condition with the
generator's map inverted.  Extension.choose took the least admitted value
and checked the extended condition with leq; commit validated it.  The
samplers, cover_extend, strong_reduction and the hit search all stepped
this way.  Nothing in the package steps this way now; the differential
tests compare the point phase and its callers with this reference.  Apart
from what the phase removed (the carried value summary, the step record
and the commit memo), the code is the old code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from cofinitary import evaluation, poset
from cofinitary.evaluation import Assignment, GroundPermutation, PartialMap, eval_domain
from cofinitary.extension import (
    ContractViolation,
    ExtensionCertificate,
    MAD_NOT_BELOW,
    _pair_blocks,
    agreement_certificate,
    least_within,
    mad_value,
    not_below,
    walk_certificate,
)
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, side_index, validated
from cofinitary.sampling import _draw_entries
from cofinitary.words import Word, invert, occurrences, single


@dataclass(frozen=True)
class Rejected:
    """What hit_extend gives for a pair the order check refuses."""

    reason: str


# -- one map ------------------------------------------------------------------


def map_with_pair(pm: PartialMap, n: int, m: int) -> PartialMap:
    """pm with (n, m) added (PartialMap.with_pair)."""
    return PartialMap(pm.pairs | {(n, m)})


def map_inverse(pm: PartialMap) -> PartialMap:
    """pm with every pair flipped (PartialMap.inverse)."""
    return PartialMap(frozenset((m, n) for n, m in pm.pairs))


def triples(s: Assignment) -> frozenset[tuple[int, int, int]]:
    """Every pair of s with its generator (Assignment.triples)."""
    return frozenset((g, n, m) for g, pm in s.table.items() for n, m in pm.pairs)


# -- one step -------------------------------------------------------------------


def certificate(p: Condition, gen: int, n: int) -> ExtensionCertificate:
    """The certificate for (gen, n, ?) over p, read off p's side-set index
    (its tries or pair partners) and p's maps."""
    kernel = DISCIPLINES[p.mode].kernel
    index = side_index(kernel, p.words)
    if kernel == "agreement":
        partners = index.partners.get(gen, ())
        return agreement_certificate([p.s.get(h).fwd for h in partners], n)
    return walk_certificate(index.tries, gen, p.s.get(gen).image(), n, *p.s.summary())


def mirror(p: Condition, gen: int) -> Condition:
    """p with gen's map inverted and its side set kept: the certificate reads
    only whether a side word holds gen, which flipping gen's sign in them
    would not change."""
    table = dict(p.s.table)
    if gen in table:
        table[gen] = map_inverse(table[gen])
    return p.with_s(Assignment._of_clean(table))


def extend_with(p: Condition, gen: int, n: int, m: int) -> Condition:
    out = validated(p, p.with_s(p.s.with_pair(gen, n, m)))
    if not poset.leq(out, p):
        raise ContractViolation(f"adding (g{gen}, {n}, {m}) does not extend the condition")
    return out


@dataclass(frozen=True)
class Extension:
    condition: Condition
    gen: int
    point: int
    certificate: ExtensionCertificate
    direction: str

    def choose(self, floor: int = 0, ceiling: Optional[int] = None) -> int:
        m = least_within(self.certificate, self.gen, self.point, floor, ceiling)
        if not poset.leq(self.apply(m), self.condition):
            raise not_below(self.gen, self.point, m)
        return m

    def commit(self, value: int) -> Condition:
        return extend_with(self.condition, self.gen, *self.pair(value))

    def pair(self, value: int) -> tuple[int, int]:
        return (self.point, value) if self.direction == "domain" else (value, self.point)

    def apply(self, value: int) -> Condition:
        p = self.condition
        return p.with_s(p.s.with_pair(self.gen, *self.pair(value)))


def domain_extend(p: Condition, gen: int, n: int) -> Extension:
    if n in p.s.get(gen).fwd:
        raise ValueError(f"{n} already in the domain of g{gen}")
    if DISCIPLINES[p.mode].values is not None:
        raise ValueError("use mad_set_point for MAD conditions")
    return Extension(p, gen, n, certificate(p, gen, n), "domain")


def range_extend(p: Condition, gen: int, m: int) -> Extension:
    if m in p.s.get(gen).rev:
        raise ValueError(f"{m} already in the range of g{gen}")
    if not DISCIPLINES[p.mode].injective:
        raise ValueError(f"range extension undefined for {p.mode.value} conditions")
    ext = domain_extend(mirror(p, gen), gen, m)
    return Extension(p, gen, m, ext.certificate, "range")


def mad_set_point(p: Condition, gen: int, n: int) -> Condition:
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
    """p with n added to the domain of gen; floor is called only when a value
    is chosen."""
    if DISCIPLINES[p.mode].values is not None:
        return mad_set_point(p, gen, n)
    ext = domain_extend(p, gen, n)
    return ext.commit(ext.choose(floor=floor(), ceiling=ceiling))


# -- the callers ------------------------------------------------------------------


def sample_condition(
    rng: random.Random,
    mode: PosetMode,
    gens: Sequence[int],
    max_pairs: int = 4,
    max_words: int = 3,
    value_range: int = 24,
    word_len: int = 3,
) -> Condition:
    gens = list(gens)
    if DISCIPLINES[mode].shape == "letter":
        picked = rng.sample(gens, rng.randrange(min(max_words, len(gens)) + 1))
        words = {single(g) for g in picked}
    else:
        words = _draw_entries(rng, mode, gens, word_len, rng.randrange(max_words + 1))
    cond = poset.add_words(Condition(mode=mode), frozenset(words))
    for _ in range(rng.randrange(max_pairs + 1) * max(1, len(gens) // 2)):
        g = rng.choice(gens)
        n = rng.randrange(value_range)
        if n not in cond.s.get(g).fwd:
            cond = point_step(cond, g, n, floor=lambda: rng.randrange(value_range))
    return cond


def sample_extension(
    rng: random.Random, p: Condition, avoid: Iterable[int] = (), steps: Optional[int] = None
) -> Condition:
    avoid = frozenset(avoid)
    taken = p.occurring() | avoid
    fresh_base = max(taken | {7}) + 1
    usable = sorted(p.occurring() - avoid)
    candidates = usable + [fresh_base, fresh_base + 1]
    cond = p
    if steps is None:
        steps = rng.randrange(4)
    if DISCIPLINES[p.mode].shape != "letter" and rng.random() < 0.5:
        extra = _draw_entries(rng, p.mode, sorted(set(candidates))[:4], 2, 1)
        if extra:
            cond = poset.add_words(cond, cond.words | extra)
    for _ in range(steps):
        g = rng.choice(candidates)
        n = rng.randrange(24)
        if n not in cond.s.get(g).fwd:
            cond = point_step(cond, g, n, floor=lambda: rng.randrange(24))
    return cond


def cover_extend(
    p: Condition, w: Word, cover_domain: Iterable[int], cover_range: Iterable[int]
) -> Assignment:
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
    added = triples(cur.s) - triples(p.s)
    extra_gens = {g for g, _, _ in added} - occurrences(w)
    if extra_gens:
        raise ContractViolation(f"cover touched foreign generators {sorted(extra_gens)}")
    table: dict[int, set[tuple[int, int]]] = {}
    for g, a, b in added:
        table.setdefault(g, set()).add((a, b))
    return Assignment({g: PartialMap(frozenset(ps)) for g, ps in table.items()})


def strong_reduction(p: Condition, keep: Iterable[int]) -> Condition:
    """extension.strong_reduction through the copy path, without its memo
    (a memo kept on p would answer the package's own later call)."""
    keep = frozenset(keep)
    base = poset.strong_restrict(p, keep)
    kernel = DISCIPLINES[p.mode].kernel
    if kernel == "ones":
        t0 = dict(p.s.restrict(keep).table)
        frozen = {w.letters[0].gen for w in p.words}
        hot = set()
        for b in sorted(frozen - keep):
            hot |= {n for n, v in p.s.get(b).pairs if v == 1}
        for a in sorted(frozen & keep):
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
    return out


def hit_extend(p: Condition, gen: int, sigma: GroundPermutation, n: int):
    if n in p.s.get(gen).fwd:
        raise ValueError(f"{n} already in the domain of g{gen}")
    m = sigma.apply(n)
    if m in p.s.get(gen).rev:
        raise ValueError(f"sigma({n}) = {m} already in the range of g{gen}")
    out = p.with_s(p.s.with_pair(gen, n, m))
    if poset.leq(out, p):
        return out
    return Rejected(f"pair (g{gen}, {n}, {m}) adds a fixed point to a frozen word")


def hit_search(p: Condition, gen: int, sigma: GroundPermutation, start: int, window: int):
    for n in range(start, start + window):
        if n in p.s.get(gen).fwd:
            continue
        if sigma.apply(n) in p.s.get(gen).rev:
            continue
        if isinstance(hit_extend(p, gen, sigma, n), Condition):
            return n
    return None
