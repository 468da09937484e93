"""Certified extension machinery for conditions.

domain_extend / range_extend compute a finite forbidden set of values such
that every value outside it yields an extension of the condition (no frozen
word gains a fixed point), together with a deterministic chooser.  When the
frozen words that hold the generator are all over finite generators, the
forbidden set is {n} together with the values of s: every walk from those
values stays among them.  Only the mixed words, which also hold an ambient
letter, need the constructive forbidden set, built block by block over each
word's good decomposition.  The forbidden set may over-approximate; the
extension order check is re-run on every chosen value and is authoritative.

cover_extend forces a word's evaluation to cover given finite sets;
strong_reduction restricts a condition to a sub-alphabet padded so that
extensions built on the sub-alphabet merge back losslessly
(canonical_extension).  hit_extend / hit_search realize the density of
"agree with a target permutation beyond N" extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, filterfalse
from typing import Callable, Iterable, Optional, Sequence, Union

from .evaluation import (
    Assignment,
    GroundPermutation,
    GroundRep,
    EMPTY_GROUND,
    PartialMap,
    apply_letter,
    compose_shift_forms,
    eval_domain,
    eval_range,
    eval_word,
    unapply_letter,
)
from .poset import (
    DISCIPLINES,
    Condition,
    PosetMode,
    leq,
    side_index,
    strong_restrict,
    validate,
    validated,
)
from .words import (
    GoodDecomposition,
    Letter,
    Word,
    format_word,
    good_decompose,
    invert,
    occurrences,
    power,
    substitute,
)


class CertificateError(Exception):
    """No finite forbidden set can be certified for this instance."""


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
    the admitted set is cofinite.  least_admitted finds the least admitted
    value at or above a floor without probing values one at a time.
    """

    forbidden: frozenset[int]
    bound: int

    def admits(self, m: int) -> bool:
        return m >= 0 and m not in self.forbidden

    def least_admitted(self, floor: int = 0) -> int:
        """The least admitted value >= floor, by one scan in C that stops at
        the first value outside F.  Of the |F| + 1 naturals from
        max(floor, 0) on, at most |F| are forbidden, so the scan ends within
        them."""
        return next(filterfalse(self.forbidden.__contains__, count(max(floor, 0))))

    @staticmethod
    def of(values: Iterable[int]) -> "ExtensionCertificate":
        forb = frozenset(values)
        return ExtensionCertificate(forb, max(forb, default=-1) + 1)


def _good_form(w: Word, gen: int) -> Optional[GoodDecomposition]:
    """The good decomposition of w for gen, rotating if necessary.

    Returns None for pure powers of gen.  Requires a hat word: the rotation
    of a non-pure hat word never cancels.
    """
    d = good_decompose(w, gen)
    if isinstance(d, GoodDecomposition):
        return d
    if not d.u and not d.v:
        return None
    rotated = Word(d.v.letters + power(gen, d.k).letters + d.u.letters)
    d2 = good_decompose(rotated, gen)
    if not isinstance(d2, GoodDecomposition):
        raise ContractViolation(f"rotation of {format_word(w)} not good")
    return d2


def _walk_values(
    words: Sequence[Word], starts: Iterable[int], s: Assignment, ground: GroundRep
) -> set[int]:
    """Values visited by evaluation walks along each word's letter sequence,
    from every start value at every entry position."""
    seen = set(starts)
    base = sorted(seen)
    for w in words:
        letters = w.letters
        length = len(letters)
        for t0 in range(length):
            for v0 in base:
                v: Optional[int] = v0
                for t in range(t0, length):
                    v = apply_letter(letters[length - 1 - t], v, s, ground)
                    if v is None:
                        break
                    seen.add(v)
    return seen


def _block_forbidden(
    good: GoodDecomposition, s: Assignment, ground: GroundRep, target: set[int]
) -> set[int]:
    """Inductive per-block forbidden set: positive head blocks exclude the
    running target set and the domain of the extended generator; negative head
    blocks exclude the ranges of their partial compositions; the target set is
    pulled back through each head before recursing."""
    gen = good.gen
    pm = s.get(gen)
    forb: set[int] = set()
    blocks = list(good.blocks)  # rightmost first
    c_set = set(target)
    while blocks:
        k, u = blocks[-1]  # leftmost remaining block
        if k > 0:
            forb |= c_set
            forb.update(pm.fwd)
        else:
            for i in range(-1, k - 1, -1):
                word_i = Word(power(gen, i).letters + u.letters)
                forb |= eval_range(word_i, s, ground)
        blocks.pop()
        if blocks:
            head = Word(power(gen, k).letters + u.letters)
            pulled = set()
            for c in sorted(c_set):
                v = eval_word(invert(head), s, ground, c)
                if v is not None:
                    pulled.add(v)
            c_set = pulled
    return forb


def _ambient_runs(
    letters: Sequence[Letter], ground: GroundRep
) -> list[tuple[list[Letter], Optional[Letter]]]:
    """Maximal ambient-letter runs in application order, with the letter
    applied right after the run (None when the run is leftmost)."""
    amb = ground.generators()
    runs = []
    i = 0
    while i < len(letters):
        if letters[i].gen in amb:
            j = i
            while j < len(letters) and letters[j].gen in amb:
                j += 1
            run = list(reversed(letters[i:j]))  # application order
            nxt = letters[i - 1] if i > 0 else None
            runs.append((run, nxt))
            i = j
        else:
            i += 1
    return runs


def _run_guards(
    letters: Sequence[Letter],
    gen: int,
    ground: GroundRep,
    targets: set[int],
) -> set[int]:
    """Values that could thread an ambient run into the finite part: pullbacks
    of every concrete target through each run, plus the run's own fixed points
    when an inverse step of the extended generator follows it."""
    forb: set[int] = set()
    for run, nxt in _ambient_runs(letters, ground):
        for t in sorted(targets):
            back = t
            for letter in reversed(run):
                back = unapply_letter(letter, back, Assignment(), ground)
            forb.add(back)
        needs_fix = nxt is None or (nxt.gen == gen and nxt.sign == -1)
        if needs_fix:
            form = ground.run_shift_form(run)
            if form is None:
                raise CertificateError(
                    "ambient run without shift structure before an inverse step; "
                    "cannot certify a finite forbidden set"
                )
            k, exc = form
            if k == 0:
                raise CertificateError(
                    "ambient run reduces to a near-identity permutation; its fixed "
                    "point set is cofinite and no finite forbidden set exists"
                )
            forb |= {x for x, y in exc.items() if y == x}
    return forb


def _mixed(p: Condition, gen: int, ground: GroundRep) -> list[Word]:
    """The side words that hold gen and an ambient letter, in Word.sort_key
    order; none without a ground."""
    amb = ground.generators()
    if not amb:
        return []
    mixed = (w for w in p.words if gen in occurrences(w) and occurrences(w) & amb)
    return sorted(mixed, key=Word.sort_key)


def _forbidden_word_modes(
    p: Condition, gen: int, n: int, ground: GroundRep
) -> set[int]:
    s = p.s
    pm = s.get(gen)
    tries = side_index(p.words)
    if Letter(gen, 1) not in tries and Letter(gen, -1) not in tries:
        return set(pm.rev)  # no side word holds gen: keep the map injective
    # n and every value of s, the image of gen's map among them
    concrete = {n}
    for other in s.table.values():
        concrete.update(other.fwd)
        concrete.update(other.rev)
    mixed = _mixed(p, gen, ground)
    if not mixed:
        return concrete  # all walks from concrete values stay inside it
    rotated: list[Word] = []
    for w in mixed:
        good = _good_form(w, gen)
        if good is not None:
            rotated.append(good.recompose())
    walk = _walk_values(list(mixed) + rotated, concrete, s, ground)
    forb = set(walk)  # walk holds concrete; _run_guards reads walk below
    for w in mixed:
        good = _good_form(w, gen)
        if good is None:
            continue  # pure power: global guards suffice
        k_top = good.blocks[-1][0]
        top_target = (pm.fwd.keys() | {n}) if k_top < 0 else set(pm.rev)
        forb |= _block_forbidden(good, s, ground, set(top_target))
        forb |= _run_guards(good.recompose().letters, gen, ground, walk)
    return forb


def _forbidden_edf(p: Condition, gen: int, n: int) -> set[int]:
    # only a new agreement with a frozen partner at the new point is dangerous
    forb = set()
    for w in p.words:
        a, b = (letter.gen for letter in w.letters)
        if gen in (a, b):
            forb.add(p.s.get(b if a == gen else a).fwd.get(n))
    return forb - {None}


def extend_with(
    p: Condition, gen: int, n: int, m: int, ground: GroundRep = EMPTY_GROUND
) -> Condition:
    """p with the pair (gen, n, m) adjoined; validated and order-checked."""
    out = validated(p, Condition(p.s.with_pair(gen, n, m), p.words, p.mode), ground)
    if not leq(out, p, ground):
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
    ground: GroundRep

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
        if not leq(out, self.condition, self.ground):
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
            return extend_with(self.condition, self.gen, *self._pair(value), self.ground)
        return validated(self.condition, checked[1], self.ground)

    def _pair(self, value: int) -> tuple[int, int]:
        return (self.point, value) if self.direction == "domain" else (value, self.point)

    def _apply(self, value: int) -> Condition:
        return Condition(
            self.condition.s.with_pair(self.gen, *self._pair(value)),
            self.condition.words,
            self.condition.mode,
        )


def domain_extend(
    p: Condition, gen: int, n: int, ground: GroundRep = EMPTY_GROUND
) -> Extension:
    """Certificate and chooser for adding (gen, n, m): cofinitely many m keep
    the extension below p."""
    if n in p.s.get(gen).fwd:
        raise ValueError(f"{n} already in the domain of g{gen}")
    d = DISCIPLINES[p.mode]
    if d.values is not None:
        raise ValueError("use mad_set_point for MAD conditions")
    if d.kernel == "agreement":
        forb = _forbidden_edf(p, gen, n)
    else:
        forb = _forbidden_word_modes(p, gen, n, ground)
    return Extension(p, gen, n, ExtensionCertificate.of(forb), "domain", ground)


def _mirror(p: Condition, gen: int, ground: GroundRep) -> Condition:
    """Invert gen's map and flip gen's sign in the mixed side words (_mixed):
    the only words whose letters the certificate walks.  Evaluations of the
    flipped words agree with the originals.  Of the words over finite
    generators, the certificate reads a single fact, whether one holds gen;
    flipping a sign does not change it, so they are kept as they are.  With
    no mixed word, as always without a ground, the mirror keeps p's side
    set, and with it p's cached side-set index."""
    table = dict(p.s.table)
    pm = p.s.get(gen)
    if pm.pairs:
        table[gen] = pm.inverse()
    mixed = _mixed(p, gen, ground)
    words = p.words
    if mixed:
        flipped = frozenset(substitute(w, gen, Letter(gen, -1)) for w in mixed)
        words = (words - frozenset(mixed)) | flipped
    # pair-shape words lose their shape under the flip; the word machinery
    # only needs the hat class, so certify in cofinitary mode
    return Condition(Assignment(table), words, PosetMode.COFINITARY)


def range_extend(
    p: Condition, gen: int, m: int, ground: GroundRep = EMPTY_GROUND
) -> Extension:
    """Certificate and chooser for adding (gen, n, m) with m fixed."""
    if m in p.s.get(gen).rev:
        raise ValueError(f"{m} already in the range of g{gen}")
    if not DISCIPLINES[p.mode].injective:
        raise ValueError(f"range extension undefined for {p.mode.value} conditions")
    mirror = _mirror(p, gen, ground)
    ext = domain_extend(mirror, gen, m, ground)
    return Extension(p, gen, m, ext.certificate, "range", ground)


def mad_set_point(p: Condition, gen: int, n: int, ground: GroundRep = EMPTY_GROUND) -> Condition:
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
    out = Condition(p.s.with_pair(gen, n, value), p.words, p.mode)
    if not leq(out, p, ground):
        raise ContractViolation("MAD point decision broke intersection freezing")
    return out


def point_step(
    p: Condition, gen: int, n: int, ground: GroundRep = EMPTY_GROUND,
    floor: Callable[[], int] = lambda: 0, ceiling: Optional[int] = None,
) -> Condition:
    """p with n added to the domain of gen, validated and order-checked.

    A finite value set (MAD) decides the value by mad_set_point's rule;
    otherwise it is the least admitted value >= floor() up to ceiling.
    floor is called only when a value is chosen, so a caller may draw it at
    random without spending a draw on decided points.
    """
    if DISCIPLINES[p.mode].values is not None:
        return mad_set_point(p, gen, n, ground)
    ext = domain_extend(p, gen, n, ground)
    return ext.commit(ext.choose(floor=floor(), ceiling=ceiling))


def cover_extend(
    p: Condition,
    w: Word,
    cover_domain: Iterable[int],
    cover_range: Iterable[int],
    ground: GroundRep = EMPTY_GROUND,
) -> Assignment:
    """An assignment t over the finite generators of w with (s u t, F) <= p,
    the evaluation of w defined on all of cover_domain and onto all of
    cover_range."""
    cur = p
    for target_word, targets in ((w, cover_domain), (invert(w), cover_range)):
        for c in sorted(set(targets)):
            guard = 0
            while eval_word(target_word, cur.s, ground, c) is None:
                guard += 1
                if guard > len(target_word.letters) + 1:
                    raise ContractViolation("cover walk stuck")
                v: Optional[int] = c
                letters = target_word.letters
                for idx in range(len(letters) - 1, -1, -1):
                    nxt = apply_letter(letters[idx], v, cur.s, ground)
                    if nxt is None:
                        letter = letters[idx]
                        if letter.sign == 1:
                            ext = domain_extend(cur, letter.gen, v, ground)
                        else:
                            ext = range_extend(cur, letter.gen, v, ground)
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


def _pair_blocks(
    w: Word, keep: frozenset[int], ground: GroundRep
) -> list[tuple[Word, Word, Word]]:
    """(u_block, v_right, v_left) triples for the alternating split of w into
    kept-alphabet blocks u and dropped-alphabet blocks v; ambient letters ride
    inside either.  v_right / v_left are empty at the word ends."""
    amb = ground.generators()
    letters = w.letters
    outside = [i for i, l in enumerate(letters) if l.gen not in keep and l.gen not in amb]
    if not outside:
        return []
    # group outside positions separated only by ambient letters
    groups: list[tuple[int, int]] = []
    start = prev = outside[0]
    for i in outside[1:]:
        if all(letters[j].gen in amb for j in range(prev + 1, i)):
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


def strong_reduction(
    p: Condition, keep: Iterable[int], ground: GroundRep = EMPTY_GROUND
) -> Condition:
    """The condition (t0, F restricted to the kept alphabet) with t0 padded so
    that any extension built over the kept alphabet, with new occurrences
    disjoint from the rest of p, merges back losslessly."""
    keep = frozenset(keep)
    base = strong_restrict(p, keep, ground)
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
        out = Condition(Assignment(t0), base.words, p.mode)
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
                cur = point_step(cur, c, n, ground)
        out = Condition(cur.s.restrict(keep), base.words, p.mode)
    else:
        cur = p
        for w in p.sorted_words():
            if occurrences(w) <= keep | ground.generators():
                continue
            for u_block, v_right, v_left in _pair_blocks(w, keep, ground):
                need_dom = eval_range(v_right, p.s, ground) if v_right else frozenset()
                need_ran = eval_domain(v_left, p.s, ground) if v_left else frozenset()
                if not u_block:
                    continue
                t = cover_extend(cur, u_block, need_dom, need_ran, ground)
                cur = Condition(cur.s.union(t), cur.words, cur.mode)
        out = Condition(cur.s.restrict(keep), base.words, p.mode)
    if not leq(out, base, ground):
        raise ContractViolation("reduction must extend the strong restriction")
    return out


def canonical_extension(
    p: Condition, t: Condition, keep: Iterable[int], ground: GroundRep = EMPTY_GROUND
) -> Condition:
    """The union of p and an extension t of p's strong reduction on `keep`,
    checked to extend both."""
    keep = frozenset(keep)
    red = strong_reduction(p, keep, ground)
    if not leq(t, red, ground):
        raise ValueError("t does not extend the strong reduction")
    clash = t.occurring(ground) & (p.occurring(ground) - keep)
    if clash:
        raise ValueError(f"occurrence disjointness violated on {sorted(clash)}")
    out = Condition(p.s.union(t.s), p.words | t.words, p.mode)
    bad = validate(out, ground)
    if bad:
        raise ContractViolation("; ".join(bad))
    if not leq(out, p, ground):
        raise ContractViolation("canonical extension does not extend the base condition")
    if not leq(out, t, ground):
        raise ContractViolation("canonical extension does not extend the side condition")
    return out


def hit_extend(
    p: Condition,
    gen: int,
    sigma: GroundPermutation,
    n: int,
    ground: GroundRep = EMPTY_GROUND,
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
    out = Condition(p.s.with_pair(gen, n, m), p.words, p.mode)
    if leq(out, p, ground):
        return out
    return Rejected(f"pair (g{gen}, {n}, {m}) adds a fixed point to a frozen word")


def hit_threshold(
    p: Condition, gen: int, sigma: GroundPermutation, ground: GroundRep = EMPTY_GROUND
) -> Optional[int]:
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
    ground: GroundRep = EMPTY_GROUND,
    sigma_gen: Optional[int] = None,
) -> Union[int, NotFound]:
    """First n in [start, start + window) whose hit extension is accepted."""
    for n in range(start, start + window):
        if n in p.s.get(gen).fwd:
            continue
        if sigma.apply(n) in p.s.get(gen).rev:
            continue
        if isinstance(hit_extend(p, gen, sigma, n, ground, sigma_gen), Condition):
            return n
    return NOT_FOUND
