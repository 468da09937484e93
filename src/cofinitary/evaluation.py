"""Word evaluation over finite partial injections and total ground permutations.

An assignment gives each "finite" generator a finite partial map on the
naturals; a ground rep gives each "ambient" generator a total permutation.
Evaluating a word composes those letter by letter, rightmost letter first.
Undefined is a value (None), not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .words import Letter, Word, invert

DEFAULT_HORIZON = 10_000


def _with_key(cache: dict[int, int], k: int, v: int) -> dict[int, int]:
    """A copy of a fwd/rev cache with the pair k -> v added by the tie rule."""
    out = dict(cache)
    if out.get(k, v) <= v:
        out[k] = v
    return out


@dataclass(frozen=True)
class PartialMap:
    """A finite partial map on naturals, stored as a pair set.

    fwd and rev are lookup caches built on first use.  Where the pair set
    is not functional (not injective), fwd (rev) keeps the largest value
    for a repeated key: it is dict(sorted(pairs)) up to key order.
    """

    pairs: frozenset[tuple[int, int]] = frozenset()

    @property
    def fwd(self) -> dict[int, int]:
        try:
            return self._fwd  # type: ignore[attr-defined]
        except AttributeError:
            fwd = dict(sorted(self.pairs))
            object.__setattr__(self, "_fwd", fwd)
            return fwd

    @property
    def rev(self) -> dict[int, int]:
        try:
            return self._rev  # type: ignore[attr-defined]
        except AttributeError:
            rev = {m: n for n, m in sorted(self.pairs)}
            object.__setattr__(self, "_rev", rev)
            return rev

    def is_functional(self) -> bool:
        return len(self.fwd) == len(self.pairs)

    def is_injective(self) -> bool:
        return len(self.rev) == len(self.pairs)

    def domain(self) -> frozenset[int]:
        return frozenset(self.fwd)

    def image(self) -> frozenset[int]:
        return frozenset(self.rev)

    def with_pair(self, n: int, m: int) -> "PartialMap":
        """The map with (n, m) added.  Each cache self has already built is
        copied with one key set, so no cache is rebuilt from the pairs."""
        out = PartialMap(self.pairs | {(n, m)})
        cache = self.__dict__
        if "_fwd" in cache:
            object.__setattr__(out, "_fwd", _with_key(cache["_fwd"], n, m))
        if "_rev" in cache:
            object.__setattr__(out, "_rev", _with_key(cache["_rev"], m, n))
        return out

    def inverse(self) -> "PartialMap":
        """The map with every pair flipped.  An injective, functional map
        hands its caches over swapped: its rev is the inverse's fwd."""
        fwd, rev = self.fwd, self.rev
        if not len(fwd) == len(rev) == len(self.pairs):
            return PartialMap(frozenset((m, n) for n, m in self.pairs))
        out = PartialMap(frozenset(rev.items()))
        object.__setattr__(out, "_fwd", rev)
        object.__setattr__(out, "_rev", fwd)
        return out

    def __len__(self) -> int:
        return len(self.pairs)


_NO_PAIRS = PartialMap()  # what Assignment.get returns for an absent generator


@dataclass(frozen=True)
class Assignment:
    """Generator-indexed table of partial maps; finite support."""

    table: Mapping[int, PartialMap] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {g: pm for g, pm in sorted(self.table.items()) if pm.pairs}
        object.__setattr__(self, "table", clean)

    def get(self, gen: int) -> PartialMap:
        return self.table.get(gen, _NO_PAIRS)

    def generators(self) -> tuple[int, ...]:
        return tuple(sorted(self.table))

    def triples(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(
            (g, n, m) for g, pm in self.table.items() for n, m in pm.pairs
        )

    def with_pair(self, gen: int, n: int, m: int) -> "Assignment":
        new = dict(self.table)
        new[gen] = self.get(gen).with_pair(n, m)
        return Assignment(new)

    def union(self, other: "Assignment") -> "Assignment":
        new = dict(self.table)
        for g, pm in other.table.items():
            new[g] = PartialMap(new[g].pairs | pm.pairs) if g in new else pm
        return Assignment(new)

    def restrict(self, keep: Iterable[int]) -> "Assignment":
        keep = set(keep)
        return Assignment({g: pm for g, pm in self.table.items() if g in keep})

    def contains(self, other: "Assignment") -> bool:
        return all(pm.pairs <= self.get(g).pairs for g, pm in other.table.items())

    def all_values(self) -> frozenset[int]:
        vals: set[int] = set()
        for pm in self.table.values():
            vals.update(pm.fwd)
            vals.update(pm.rev)
        return frozenset(vals)

    def to_json(self) -> dict:
        return {
            f"g{g}": sorted(map(list, pm.pairs))
            for g, pm in sorted(self.table.items())
        }

    @staticmethod
    def from_json(obj: Mapping) -> "Assignment":
        table = {}
        for token, pairs in obj.items():
            if not token.startswith("g"):
                raise ValueError(f"bad generator token {token!r}")
            table[int(token[1:])] = PartialMap(frozenset((n, m) for n, m in pairs))
        return Assignment(table)


class GroundPermutation:
    """A total permutation of the naturals with an unapply inverse.

    The shift family (identity, z-shift, finite table over the z-shift) keeps
    a canonical form (shift_power, exceptions) that makes fixed-point sets of
    compositions exactly computable.  Custom callables fall back to horizon
    scans.
    """

    def __init__(
        self,
        apply: Callable[[int], int],
        unapply: Callable[[int], int],
        scan_horizon: int = DEFAULT_HORIZON,
        shift_form: Optional[tuple[int, dict[int, int]]] = None,
        name: str = "custom",
    ) -> None:
        self.apply = apply
        self.unapply = unapply
        self.scan_horizon = scan_horizon
        self.shift_form = shift_form  # (k, exceptions): equals zshift^k off dom(exceptions)
        self.name = name

    def spot_check(self, upto: int = 200) -> None:
        for n in range(upto):
            if self.unapply(self.apply(n)) != n:
                raise ValueError(f"unapply(apply({n})) != {n} for {self.name}")

    def __repr__(self) -> str:
        return f"GroundPermutation({self.name})"


def _nat_to_int(n: int) -> int:
    # 0,1,2,3,4,... <-> 0,-1,1,-2,2,...
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def _int_to_nat(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1


def _zshift_pow(k: int) -> Callable[[int], int]:
    def f(n: int) -> int:
        return _int_to_nat(_nat_to_int(n) + k)

    return f


def identity_perm(scan_horizon: int = DEFAULT_HORIZON) -> GroundPermutation:
    return GroundPermutation(
        lambda n: n, lambda n: n, scan_horizon, shift_form=(0, {}), name="identity"
    )


def zshift(scan_horizon: int = DEFAULT_HORIZON) -> GroundPermutation:
    """The integer shift z -> z + 1 pulled back along the standard pairing;
    fixed-point free of infinite order."""
    return GroundPermutation(
        _zshift_pow(1), _zshift_pow(-1), scan_horizon, shift_form=(1, {}), name="zshift"
    )


def table_over_zshift(
    table: Mapping[int, int], scan_horizon: int = DEFAULT_HORIZON
) -> GroundPermutation:
    """The z-shift patched by a finite exception table.

    Bijectivity requires the table values to be a permutation of the shift
    images of its keys.
    """
    shift = _zshift_pow(1)
    unshift = _zshift_pow(-1)
    table = dict(table)
    if set(table.values()) != {shift(n) for n in table}:
        raise ValueError("table must permute the shift images of its keys")
    rev = {m: n for n, m in table.items()}

    def apply(n: int) -> int:
        return table[n] if n in table else shift(n)

    def unapply(m: int) -> int:
        return rev[m] if m in rev else unshift(m)

    exceptions = {n: m for n, m in table.items() if m != shift(n)}
    return GroundPermutation(
        apply, unapply, scan_horizon, shift_form=(1, exceptions), name="table-over-zshift"
    )


def ground_from_json(obj: Mapping) -> GroundPermutation:
    kind = obj.get("kind")
    if kind == "zshift":
        return zshift()
    if kind == "identity":
        return identity_perm()
    if kind == "table-over-zshift":
        return table_over_zshift({n: m for n, m in obj["table"]})
    raise ValueError(f"unknown ground permutation kind {kind!r}")


def compose_shift_forms(
    forms: Iterable[tuple[int, dict[int, int], int]]
) -> tuple[int, dict[int, int]]:
    """Compose shift-family permutations given as (k, exceptions, sign),
    applied left to right.  Returns the canonical form of the composite."""
    total = 0
    exc: dict[int, int] = {}

    def one(k: int, e: dict[int, int], x: int) -> int:
        return e[x] if x in e else _zshift_pow(k)(x)

    steps: list[tuple[int, dict[int, int]]] = []
    for k, e, sign in forms:
        if sign == 1:
            steps.append((k, dict(e)))
        else:
            steps.append((-k, {m: n for n, m in e.items()}))
    # disturbed inputs: anything whose path can meet an exception
    candidates: set[int] = set()
    for i, (_, e) in enumerate(steps):
        for x in e:
            # pull x back through the earlier steps
            back = x
            for k2, e2 in reversed(steps[:i]):
                rev = {m: n for n, m in e2.items()}
                back = rev[back] if back in rev else _zshift_pow(-k2)(back)
            candidates.add(back)
    for k, _ in steps:
        total += k
    for x in sorted(candidates):
        y = x
        for k, e in steps:
            y = one(k, e, y)
        if y != _zshift_pow(total)(x):
            exc[x] = y
    return total, exc


def apply_letter(
    letter: Letter, value: int, s: Assignment, ground: "GroundRep"
) -> Optional[int]:
    if letter.gen in ground.table:
        perm = ground.table[letter.gen]
        return perm.apply(value) if letter.sign == 1 else perm.unapply(value)
    pm = s.get(letter.gen)
    lookup = pm.fwd if letter.sign == 1 else pm.rev
    return lookup.get(value)


def unapply_letter(
    letter: Letter, value: int, s: Assignment, ground: "GroundRep"
) -> Optional[int]:
    return apply_letter(letter.inverse(), value, s, ground)


@dataclass
class GroundRep:
    """Total-permutation table for the ambient generators.

    cofinitary_promise records the constructor-level expectation that every
    nonidentity reduced word over the ambient generators evaluates to a
    permutation with finitely many fixed points; it is checkable only below
    the scan horizon (see check_promise).
    """

    table: Mapping[int, GroundPermutation] = field(default_factory=dict)
    cofinitary_promise: bool = True

    def generators(self) -> frozenset[int]:
        return frozenset(self.table)

    def run_shift_form(self, letters: Iterable[Letter]) -> Optional[tuple[int, dict[int, int]]]:
        """Canonical form of a composition of ambient letters (applied left to
        right in the given order), or None if any letter lacks structure."""
        forms = []
        for letter in letters:
            perm = self.table[letter.gen]
            if perm.shift_form is None:
                return None
            k, e = perm.shift_form
            forms.append((k, e, letter.sign))
        return compose_shift_forms(forms)

    def check_promise(self, max_len: int = 3, horizon: int = 500) -> list[tuple[Word, int]]:
        """Heuristic scan: returns (word, fixed point count below horizon) for
        ambient words whose scan-level fix set looks infinite (> horizon/2)."""
        from .words import reduced_words

        findings = []
        for w in reduced_words(sorted(self.table), max_len, min_len=1):
            count = 0
            for n in range(horizon):
                v: Optional[int] = n
                for letter in reversed(w.letters):
                    v = apply_letter(letter, v, Assignment(), self)
                if v == n:
                    count += 1
            if count > horizon // 2:
                findings.append((w, count))
        return findings


EMPTY_GROUND = GroundRep({})


def eval_word(w: Word, s: Assignment, ground: GroundRep, n: int) -> Optional[int]:
    """e_w at n: rightmost letter applied first; None when some finite-map
    lookup fails along the path."""
    value: Optional[int] = n
    for letter in reversed(w.letters):
        value = apply_letter(letter, value, s, ground)
        if value is None:
            return None
    return value


def _rightmost_finite_pos(w: Word, ground: GroundRep) -> Optional[int]:
    """Index (from the right, 0-based) of the first letter backed by a finite
    map, or None for purely-ambient words."""
    amb = ground.generators()
    for i, letter in enumerate(reversed(w.letters)):
        if letter.gen not in amb:
            return i
    return None


def exact_domain(w: Word, s: Assignment, ground: GroundRep) -> frozenset[int]:
    """The full (finite) domain of e_w; requires at least one finite-map letter."""
    pos = _rightmost_finite_pos(w, ground)
    if pos is None:
        raise ValueError("purely ambient word has total (infinite) domain")
    letters = w.letters
    anchor = letters[len(letters) - 1 - pos]
    pm = s.get(anchor.gen)
    anchor_dom = pm.domain() if anchor.sign == 1 else pm.image()
    starts: set[int] = set()
    for v in anchor_dom:
        # pull back through the ambient prefix to the start
        back = v
        for letter in letters[len(letters) - pos :]:
            back = unapply_letter(letter, back, s, ground)
        starts.add(back)
    return frozenset(n for n in starts if eval_word(w, s, ground, n) is not None)


def eval_domain(
    w: Word, s: Assignment, ground: GroundRep, probe: Optional[Iterable[int]] = None
) -> frozenset[int]:
    """Subset of probe where e_w is defined; without a probe, the exact full
    domain (requires a finite-map letter)."""
    if probe is None:
        if not w:
            raise ValueError("empty word is total; supply a probe")
        return exact_domain(w, s, ground)
    return frozenset(n for n in probe if eval_word(w, s, ground, n) is not None)


def eval_range(
    w: Word, s: Assignment, ground: GroundRep, probe: Optional[Iterable[int]] = None
) -> frozenset[int]:
    return eval_domain(invert(w), s, ground, probe)


def letter_step(letter: Letter, s: Assignment, ground: GroundRep) -> Callable[[int], Optional[int]]:
    """The lookup that applies one letter: a finite map's dict .get, or a
    ground permutation's apply/unapply."""
    perm = ground.table.get(letter.gen)
    if perm is not None:
        return perm.apply if letter.sign == 1 else perm.unapply
    pm = s.get(letter.gen)
    return (pm.fwd if letter.sign == 1 else pm.rev).get


def _lookups(w: Word, s: Assignment, ground: GroundRep) -> list[Callable[[int], Optional[int]]]:
    """One lookup per letter of w, in application order (rightmost first)."""
    return [letter_step(letter, s, ground) for letter in reversed(w.letters)]


def _walk(steps: list[Callable[[int], Optional[int]]], n: int) -> Optional[int]:
    """n after every step; None once a finite-map lookup fails."""
    for step in steps:
        n = step(n)
        if n is None:
            return None
    return n


def _walked_fix_points(w: Word, s: Assignment, ground: GroundRep, pos: int) -> frozenset[int]:
    """Fix(e_w) when the letter applied pos-th (0-based) is the first backed
    by a finite map: the start candidates are that map's domain (or image)
    pulled back through the ambient letters applied before it, and each is
    walked once.  Same set as exact_domain followed by a second walk."""
    anchor = w.letters[len(w.letters) - 1 - pos]
    pm = s.get(anchor.gen)
    starts = pm.fwd if anchor.sign == 1 else pm.rev
    if pos:
        backs = _lookups(invert(Word(w.letters[len(w.letters) - pos :])), s, ground)
        starts = [_walk(backs, v) for v in starts]
    steps = _lookups(w, s, ground)
    return frozenset(n for n in starts if _walk(steps, n) == n)


@dataclass(frozen=True)
class FixResult:
    """Fixed points of a word evaluation.

    exact: the set is the whole fix set.
    horizon: only points below `horizon` were scanned.
    cofinite: the evaluation is the identity off finitely many points; `points`
    then lists the fixed points below the reported horizon anyway.
    """

    points: frozenset[int]
    exact: bool
    horizon: Optional[int] = None
    cofinite: bool = False


def fix_points(w: Word, s: Assignment, ground: GroundRep) -> FixResult:
    """Fixed points of e_w.  Exact whenever w has a finite-map letter or the
    ambient letters carry shift structure; otherwise a horizon scan."""
    if not w:
        raise ValueError("fix of the empty word is everything; not represented")
    pos = _rightmost_finite_pos(w, ground)
    if pos is not None:
        return FixResult(_walked_fix_points(w, s, ground, pos), exact=True)
    form = ground.run_shift_form(reversed(w.letters))
    if form is not None:
        k, exc = form
        if k != 0:
            pts = frozenset(n for n in exc if exc[n] == n)
            return FixResult(pts, exact=True)
        # net shift zero: identity off the exception set
        moved = {n for n, m in exc.items() if m != n}
        horizon = max(ground.table[l.gen].scan_horizon for l in w.letters)
        pts = frozenset(n for n in range(horizon) if n not in moved)
        return FixResult(pts, exact=True, horizon=horizon, cofinite=True)
    horizon = max(ground.table[l.gen].scan_horizon for l in w.letters)
    pts = frozenset(
        n for n in range(horizon) if eval_word(w, s, ground, n) == n
    )
    return FixResult(pts, exact=False, horizon=horizon)


def relation_compose(
    outer: frozenset[tuple[int, int]], inner: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    by_mid: dict[int, list[int]] = {}
    for k, m in outer:
        by_mid.setdefault(k, []).append(m)
    out = set()
    for n, k in inner:
        for m in by_mid.get(k, ()):
            out.add((n, m))
    return frozenset(out)


def relational_eval(w: Word, s: Assignment) -> frozenset[tuple[int, int]]:
    """Materialize e_w as a pair set by naive relational composition.

    Only meaningful with no ambient generators; used as an oracle.
    """
    if not w:
        raise ValueError("the empty word is the identity relation on omega")

    def relation(letter: Letter) -> frozenset[tuple[int, int]]:
        pairs = s.get(letter.gen).pairs
        return pairs if letter.sign == 1 else frozenset((m, n) for n, m in pairs)

    applied = w.letters[::-1]
    rel = relation(applied[0])
    for letter in applied[1:]:
        rel = relation_compose(relation(letter), rel)
    return rel
