"""Word evaluation over finite partial maps.

An assignment gives each generator a finite partial map on the naturals.
Evaluating a word composes those letter by letter, rightmost letter first.
Undefined is a value (None), not an error.  Total ground permutations of the
shift family (GroundPermutation) serve as targets that hitting goals agree
with; no word evaluates through them.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from itertools import count, filterfalse
from typing import Callable, Iterable, Mapping, Optional

from .words import INVERSE, Letter, Word, invert


class PartialMap:
    """A finite partial map on naturals: a pair set with lookup caches.

    fwd and rev are lookups from the pairs.  Where the pair set is not
    functional (not injective), fwd (rev) keeps the largest value for a
    repeated key: it is dict(sorted(pairs)) up to key order.  The fact
    `injection` is read from their sizes.

    A map made by of_lookups (a closed point phase's) holds only its
    lookups: its pair set is fwd.items(), built when something reads it.
    Every derived attribute, the pair set of such a map included,
    is a plain instance attribute once built; __getattr__ builds a missing
    one, so reading a built one costs a plain lookup.  Maps compare, hash
    and count by their pair sets, and no code changes one once it is made.
    """

    def __init__(self, pairs: frozenset[tuple[int, int]] = frozenset()) -> None:
        self.__dict__["pairs"] = pairs

    def __getattr__(self, name: str):
        d = self.__dict__
        if name == "fwd":
            value = dict(sorted(self.pairs))
        elif name == "rev":
            pairs = d.get("pairs")
            value = {m: n for n, m in sorted(self.fwd.items() if pairs is None else pairs)}
        elif name == "injection":  # a partial injection: functional and injective
            pairs = d.get("pairs")
            size = len(self.fwd)
            value = size == len(self.rev) and (pairs is None or len(pairs) == size)
        elif name == "pairs" and "fwd" in d:  # a map made by of_lookups is functional
            value = frozenset(d["fwd"].items())
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d[name] = value
        return value

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((self.pairs,))

    def __repr__(self) -> str:
        return f"PartialMap(pairs={self.pairs!r})"

    def __len__(self) -> int:
        pairs = self.__dict__.get("pairs")
        return len(self.fwd) if pairs is None else len(pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        pairs = self.__dict__.get("pairs")
        if pairs is None:
            n, m = pair
            return self.fwd.get(n) == m
        return pair in pairs

    def is_functional(self) -> bool:
        pairs = self.__dict__.get("pairs")
        return pairs is None or len(self.fwd) == len(pairs)

    def is_injective(self) -> bool:
        return len(self.rev) == len(self)

    def domain(self) -> frozenset[int]:
        return frozenset(self.fwd)

    def image(self) -> frozenset[int]:
        return frozenset(self.rev)

    @classmethod
    def of_lookups(cls, fwd: dict[int, int], rev: Optional[dict[int, int]] = None) -> "PartialMap":
        """The functional map with lookup fwd, and rev when given: no pair
        set until one is read.  The dicts are taken as they are, so the
        caller hands over dicts that nothing changes."""
        out = object.__new__(cls)
        out.__dict__["fwd"] = fwd
        if rev is not None:
            out.__dict__["rev"] = rev
        return out


_NO_PAIRS = PartialMap()  # what Assignment.get returns for an absent generator


@dataclass(frozen=True)
class Assignment:
    """Generator-indexed table of partial maps; finite support.  The table
    is clean: sorted by generator, with no empty map."""

    table: Mapping[int, PartialMap] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {g: pm for g, pm in sorted(self.table.items()) if pm.pairs}
        object.__setattr__(self, "table", clean)

    @classmethod
    def _of_clean(cls, table: dict[int, PartialMap]) -> "Assignment":
        """The assignment over a table the caller built clean, taken as it
        is, so none is sorted again."""
        out = object.__new__(cls)
        object.__setattr__(out, "table", table)
        return out

    def get(self, gen: int) -> PartialMap:
        return self.table.get(gen, _NO_PAIRS)

    def generators(self) -> tuple[int, ...]:
        return tuple(sorted(self.table))

    def with_pair(self, gen: int, n: int, m: int) -> "Assignment":
        """The assignment with (gen, n, m) added, unchecked: raw material for
        suslin's freeze probe and for tests.  Kept as a method because
        perfbench/tracing.py wraps it by name; no point step goes through
        it."""
        table = {**self.table, gen: PartialMap(self.get(gen).pairs | {(n, m)})}
        return Assignment._of_clean(dict(sorted(table.items())))

    def union(self, other: "Assignment") -> "Assignment":
        new = dict(self.table)
        for g, pm in other.table.items():
            new[g] = PartialMap(new[g].pairs | pm.pairs) if g in new else pm
        return Assignment(new)

    def restrict(self, keep: Iterable[int]) -> "Assignment":
        keep = set(keep)
        return Assignment._of_clean({g: pm for g, pm in self.table.items() if g in keep})

    def contains(self, other: "Assignment") -> bool:
        return all(pm.pairs <= self.get(g).pairs for g, pm in other.table.items())

    def summary(self) -> tuple[frozenset[int], int, int]:
        """(V, gap, top): V is every domain and image value of the maps, gap
        the least natural not in V and top the max of V (-1 when V is
        empty).  Built on first use and cached, like PartialMap's caches."""
        try:
            return self._summary  # type: ignore[attr-defined]
        except AttributeError:
            vals: set[int] = set()
            for pm in self.table.values():
                vals.update(pm.fwd)
                vals.update(pm.rev)
            values = frozenset(vals)
            gap = next(filterfalse(values.__contains__, count()))
            summary = (values, gap, max(values, default=-1))
            object.__setattr__(self, "_summary", summary)
            return summary

    def all_values(self) -> frozenset[int]:
        return self.summary()[0]

    @property
    def top(self) -> int:
        return self.summary()[2]

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

    A power zshift^k of the integer shift records shift=k, which lets
    hit_threshold bound its hits exactly; a custom callable records None.
    """

    def __init__(
        self,
        apply: Callable[[int], int],
        unapply: Callable[[int], int],
        shift: Optional[int] = None,
        name: str = "custom",
    ) -> None:
        self.apply = apply
        self.unapply = unapply
        self.shift = shift
        self.name = name

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


def zshift() -> GroundPermutation:
    """The integer shift z -> z + 1 pulled back along the standard pairing;
    fixed-point free of infinite order."""
    return GroundPermutation(_zshift_pow(1), _zshift_pow(-1), shift=1, name="zshift")


def _lookup(letter: Letter, s: Assignment) -> Mapping[int, int]:
    """The dict that applies one letter: its map's fwd, or rev for an inverse."""
    pm = s.get(letter.gen)
    return pm.fwd if letter.sign == 1 else pm.rev


def apply_letter(letter: Letter, value: int, s: Assignment) -> Optional[int]:
    return _lookup(letter, s).get(value)


def eval_word(w: Word, s: Assignment, n: int) -> Optional[int]:
    """e_w at n: rightmost letter applied first; None when some lookup fails
    along the path."""
    value: Optional[int] = n
    for letter in reversed(w.letters):
        value = apply_letter(letter, value, s)
        if value is None:
            return None
    return value


def eval_domain(w: Word, s: Assignment, probe: Optional[Iterable[int]] = None) -> frozenset[int]:
    """Subset of probe where e_w is defined; without a probe, the whole
    (finite) domain: the points of the rightmost letter's domain whose walk
    does not fail."""
    if probe is None:
        if not w:
            raise ValueError("empty word is total; supply a probe")
        probe = _lookup(w.letters[-1], s)
    return frozenset(n for n in probe if eval_word(w, s, n) is not None)


def eval_range(w: Word, s: Assignment, probe: Optional[Iterable[int]] = None) -> frozenset[int]:
    return eval_domain(invert(w), s, probe)


def letter_step(letter: Letter, s: Assignment) -> Callable[[int], Optional[int]]:
    """The lookup that applies one letter, as a callable."""
    return _lookup(letter, s).get


def _lookups(w: Word, s: Assignment) -> list[Callable[[int], Optional[int]]]:
    """One lookup per letter of w, in application order (rightmost first)."""
    return [letter_step(letter, s) for letter in reversed(w.letters)]


def _walk(steps: list[Callable[[int], Optional[int]]], n: int) -> Optional[int]:
    """n after every step; None once a lookup fails."""
    for step in steps:
        n = step(n)
        if n is None:
            return None
    return n


@dataclass(frozen=True)
class FixResult:
    """The fixed points of a word evaluation: always the whole fix set."""

    points: frozenset[int]

    # The build recheck in perfbench/workloads.py reads .exact.
    exact = True


# The build recheck in perfbench/workloads.py passes this as fix_points' third
# argument; it is the only value that argument takes.
EMPTY_GROUND = object()


def fix_points(w: Word, s: Assignment, ground: object = EMPTY_GROUND) -> FixResult:
    """Fixed points of e_w: the start candidates are the keys of the
    rightmost letter's lookup, and each is walked once.  `ground` is kept
    for the build recheck's call shape only (EMPTY_GROUND); any other value
    raises ValueError."""
    if ground is not EMPTY_GROUND:
        raise ValueError("fix_points takes no ground: conditions are over finite maps only")
    if not w:
        raise ValueError("fix of the empty word is everything; not represented")
    steps = _lookups(w, s)
    return FixResult(frozenset(n for n in _lookup(w.letters[-1], s) if _walk(steps, n) == n))


def fix_table(
    gens: Iterable[int], max_len: int, s: Assignment
) -> dict[tuple[Letter, ...], frozenset[int]]:
    """Fix(e_w) under s for every reduced word w of length 1..max_len over
    the generators `gens`, keyed by w's letter tuple.

    One depth-first walk of the word trie in application order: a node
    holds the map start -> value of its word, and a child applies one more
    letter (prepends it to the word), keeping the starts whose value the
    letter's lookup defines.  A word's fix set is the starts its map sends
    home.  The starts of a one-letter word are the keys of its lookup, and
    each start follows the lookups fix_points walks, so the sets are
    fix_points(w, s).points.  Only the maps on the current path are live,
    so the walk holds O(max_len * |points|) values besides the table.
    builder.verify_cofinitary makes one per check; a build freezes one word
    per class through fix_points and makes none.
    """
    lookups: dict[Letter, Mapping[int, int]] = {}
    for g in sorted(gens):
        lookups[Letter(g, 1)] = s.get(g).fwd
        lookups[Letter(g, -1)] = s.get(g).rev
    table: dict[tuple[Letter, ...], frozenset[int]] = {}
    if max_len >= 1:
        for letter, m in lookups.items():
            _fix_walk(table, lookups, max_len, (letter,), m)
    return table


def _fix_walk(
    table: dict[tuple[Letter, ...], frozenset[int]],
    lookups: Mapping[Letter, Mapping[int, int]],
    max_len: int,
    word: tuple[Letter, ...],
    cur: Mapping[int, int],
) -> None:
    """Record word's fix set from its map cur, then visit its children; a
    child at the last depth needs only its fix set, so its map is not built.
    A module-level function, so no closure keeps the table alive in a cycle."""
    table[word] = frozenset(x for x, v in cur.items() if x == v)
    if len(word) == max_len:
        return
    last = INVERSE[word[0]]  # the letter that would cancel
    for letter, m in lookups.items():
        if letter == last:
            continue
        child = (letter,) + word
        if len(child) == max_len:
            table[child] = frozenset(x for x, v in cur.items() if m.get(v) == x)
        else:
            _fix_walk(table, lookups, max_len, child, {x: m[v] for x, v in cur.items() if v in m})
