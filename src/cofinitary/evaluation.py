"""Word evaluation over finite partial maps.

An assignment gives each generator a finite partial map on the naturals.
Evaluating a word composes those letter by letter, rightmost letter first.
Undefined is a value (None), not an error.  Total ground permutations of the
shift family (GroundPermutation) serve as targets that hitting goals agree
with; no word evaluates through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, filterfalse
from typing import Callable, Iterable, Mapping, Optional

from .words import Letter, Word, invert, reduced_letters


@dataclass(frozen=True, slots=True)
class PartialMap:
    """A finite partial map on naturals: a pair set with its lookups.

    fwd and rev are lookups from the pairs.  Where the pair set is not
    functional (not injective), fwd (rev) keeps the largest value for a
    repeated key: it is dict(sorted(pairs)) up to key order.  The fact
    `injection` (functional and injective) is read from their sizes.
    All four are built when the map is made; a map compares, hashes and
    prints by its pair set, and no code changes one once it is made.
    """

    pairs: frozenset[tuple[int, int]] = frozenset()
    fwd: dict[int, int] = field(init=False, compare=False, repr=False)
    rev: dict[int, int] = field(init=False, compare=False, repr=False)
    injection: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ordered = sorted(self.pairs)
        self._set_lookups(dict(ordered), {m: n for n, m in ordered})

    def _set_lookups(self, fwd: dict[int, int], rev: dict[int, int]) -> None:
        object.__setattr__(self, "fwd", fwd)
        object.__setattr__(self, "rev", rev)
        object.__setattr__(self, "injection", len(self.pairs) == len(fwd) == len(rev))

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def is_functional(self) -> bool:
        return len(self.fwd) == len(self.pairs)

    def is_injective(self) -> bool:
        return len(self.rev) == len(self.pairs)

    def domain(self) -> frozenset[int]:
        return frozenset(self.fwd)

    def image(self) -> frozenset[int]:
        return frozenset(self.rev)

    @classmethod
    def of_lookups(cls, fwd: dict[int, int], rev: Optional[dict[int, int]] = None) -> "PartialMap":
        """The functional map with lookup fwd, and rev when given (built
        from fwd otherwise).  The dicts are taken as they are, so the
        caller hands over dicts that nothing changes."""
        out = object.__new__(cls)
        object.__setattr__(out, "pairs", frozenset(fwd.items()))
        out._set_lookups(fwd, {m: n for n, m in sorted(fwd.items())} if rev is None else rev)
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

    def summary(self) -> tuple[set[int], int]:
        """(V, gap): V is a new set of every domain and image value of the
        maps, gap the least natural not in V."""
        values: set[int] = set()
        for pm in self.table.values():
            values.update(pm.fwd)
            values.update(pm.rev)
        return values, next(filterfalse(values.__contains__, count()))

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
    the generators `gens`, keyed by w's letter tuple: fix_sets over
    words.reduced_letters.  builder.verify_cofinitary reads the words two
    letters shorter than its budget from one, and every word up to the
    budget only when validate or its containment check fails (see its
    docstring)."""
    return fix_sets(reduced_letters(tuple(gens), max_len, min_len=1), s)


def fix_sets(
    words: Iterable[tuple[Letter, ...]], s: Assignment
) -> dict[tuple[Letter, ...], frozenset[int]]:
    """Fix(e_w) under s for each nonempty reduced letter tuple w in `words`,
    keyed by it.

    One depth-first walk of the words' trie in application order (the trie
    of the reversed tuples): a node holds the map start -> value of its
    word, and a child applies one more letter (prepends it to the word),
    keeping the starts whose value the letter's lookup defines.  A word's
    fix set is the starts its map sends home.  The starts of a one-letter
    word are the keys of its lookup, and each start follows the lookups
    fix_points walks, so the sets are fix_points(w, s).points.  Only the
    maps on the current path are live, so the walk holds
    O(max length * |points|) values besides the table, and it visits only
    the words' suffixes.  A build freezes through fix_points and walks no
    trie.
    """
    trie: dict = {}  # letter -> child node; a node's None entry is its word
    lookups: dict[Letter, Mapping[int, int]] = {}
    for letters in words:
        if not letters:
            raise ValueError("fix of the empty word is everything; not represented")
        node = trie
        for letter in reversed(letters):
            if letter not in lookups:
                lookups[letter] = _lookup(letter, s)
            node = node.setdefault(letter, {})
        node[None] = letters
    table: dict[tuple[Letter, ...], frozenset[int]] = {}
    # (the node's remaining items, its word's map start -> value): the path
    # from the root, with the one-letter nodes still to visit below it
    stack = [(iter(child.items()), lookups[letter]) for letter, child in reversed(trie.items())]
    while stack:
        items, cur = stack[-1]
        for letter, child in items:
            if letter is None:
                table[child] = frozenset(x for x, v in cur.items() if x == v)
                continue
            m = lookups[letter]
            if len(child) == 1 and None in child:  # a leaf needs only its fix set
                table[child[None]] = frozenset(x for x, v in cur.items() if m.get(v) == x)
            else:
                stack.append((iter(child.items()), {x: m[v] for x, v in cur.items() if v in m}))
                break
        else:
            stack.pop()
    return table
