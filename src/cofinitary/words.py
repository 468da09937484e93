"""Free-group word algebra over a signed integer alphabet.

Words are reduced sequences of signed generator letters.  Generator ids are
opaque integers; ordering on ids is used only for canonical printing and
sorting.  Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union


class Letter(NamedTuple):
    gen: int
    sign: int  # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)


class _Inverses(dict):
    """Letter -> its inverse, filled on first use, so a loop reads an
    inverse with one dict lookup and builds no Letter."""

    def __missing__(self, letter: Letter) -> Letter:
        gen, sign = letter
        inverse = self[letter] = Letter(gen, -sign)
        return inverse


INVERSE = _Inverses()


def _check_letter(letter: Letter) -> None:
    if letter.sign not in (-1, 1):
        raise ValueError(f"letter sign must be +1 or -1, got {letter.sign}")


@dataclass(frozen=True)
class Word:
    """A reduced word; the empty tuple is the identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        # One pass: each letter's sign, then whether it cancels the letter
        # before it (same generator, other sign); the first bad position
        # raises.
        prev_gen = prev_sign = None
        for i, (gen, sign) in enumerate(self.letters):
            if sign != 1 and sign != -1:
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
            if gen == prev_gen and sign != prev_sign:
                raise ValueError(f"word not reduced at position {i}: {self.letters}")
            prev_gen, prev_sign = gen, sign

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def sort_key(self) -> tuple:
        return (len(self.letters), self.letters)

    @property
    def class_key(self) -> tuple[Letter, ...]:
        """cyclic_class(self), computed once per word."""
        try:
            return self._class_key  # type: ignore[attr-defined]
        except AttributeError:
            key = cyclic_class(self)
            object.__setattr__(self, "_class_key", key)
            return key


EMPTY_WORD = Word()


def reduce_letters(seq: Iterable[Letter]) -> Word:
    """Concatenate-and-reduce: cancel adjacent inverse pairs until none remain.

    Stack-based cancellation; the result is independent of cancellation order.
    """
    stack: list[Letter] = []
    for letter in seq:
        _check_letter(letter)
        if stack and stack[-1] == INVERSE[letter]:
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def invert(w: Word) -> Word:
    # The inverse of a reduced word is already reduced.
    return Word(tuple(map(INVERSE.__getitem__, reversed(w.letters))))


def cyclic_class(w: Word) -> tuple[Letter, ...]:
    """The least letter tuple among the rotations of w and of w^-1.

    Words with one key have fixed-point sets in bijection under any
    assignment of partial injections: for w = uv, n -> e_v(n) maps Fix(uv)
    onto Fix(vu), and Fix(w^-1) = Fix(w).  A rotation need not be reduced,
    so the key is a letter tuple, not a Word.
    """
    return min(_rotations(w.letters), default=())


def _rotations(letters: tuple[Letter, ...]) -> Iterable[tuple[Letter, ...]]:
    """The rotations of the letters and of the letters of their inverse."""
    inverse = tuple(map(INVERSE.__getitem__, reversed(letters)))
    return (t[i:] + t[:i] for t in (letters, inverse) for i in range(len(t)))


def class_hat_count(w: Word) -> int:
    """The number of hat words with the hat word w's cyclic_class key,
    counted without building them.  A rotation of w starting at i is a hat
    word exactly when the letters either side of the cut use distinct
    generators; the distinct rotations are those with i below w's least
    period p, so the hat words among them are the generator changes at the
    cuts 0 .. p-1 (one rotation when w is a power of one generator).  The
    rotations of w^-1 are the reverse cuts, and in a free group no
    nontrivial element is conjugate to its inverse, so they add as many
    again: 2 * that count."""
    letters = w.letters
    size = len(letters)
    period = next(
        p for p in range(1, size + 1) if size % p == 0 and letters[p:] + letters[:p] == letters
    )
    changes = sum(letters[i - 1].gen != letters[i].gen for i in range(period))
    return 2 * max(changes, 1)


def power(gen: int, k: int) -> Word:
    """The word gen^k (empty for k = 0)."""
    if k == 0:
        return EMPTY_WORD
    sign = 1 if k > 0 else -1
    return Word(tuple(Letter(gen, sign) for _ in range(abs(k))))


def single(gen: int, sign: int = 1) -> Word:
    return Word((Letter(gen, sign),))


def is_hat(w: Word) -> bool:
    """True iff w is a nonzero power of one generator, or its first and last
    letters use distinct generators."""
    if not w:
        raise ValueError("is_hat requires a nonempty word")
    return _hat_letters(w.letters)


def _hat_letters(letters: tuple[Letter, ...]) -> bool:
    """is_hat on the letters of a nonempty reduced word; a reduced word over
    one generator is a power of it."""
    first = letters[0].gen
    return first != letters[-1].gen or all(l.gen == first for l in letters)


def occurrences(w: Word) -> frozenset[int]:
    return frozenset(l.gen for l in w.letters)


def conjugate_core(letters: tuple[Letter, ...]) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """(u, core) as letter tuples, with w = u^-1 * core * u for the reduced
    word w with these letters, core a hat word and u minimal.

    First peels matching first/last inverse pairs (cyclic reduction), then, if
    the cyclically reduced core still starts and ends with the same generator,
    rotates the shorter of its end power blocks across.  The innermost
    peeled letter uses another generator than those blocks (else w would not
    be reduced), so u needs no reduction.
    """
    if not letters:
        raise ValueError("cannot decompose the empty word")
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == INVERSE[letters[j - 1]]:
        i += 1
        j -= 1
    # every reduced nonempty word has a nonempty cyclic reduction
    if i == j:
        raise ValueError("reduced word peeled to nothing")
    core = letters[i:j]
    u = tuple(map(INVERSE.__getitem__, reversed(letters[:i])))  # w = u^-1 * core * u so far
    gen = core[0].gen
    if core[-1].gen == gen and any(l.gen != gen for l in core):
        # core = a^k v a^l with the same generator (same sign) at both ends
        k = 0
        while core[k].gen == gen:
            k += 1
        l = 0
        while core[-1 - l].gen == gen:
            l += 1
        if l <= k:
            u = core[-l:] + u
            core = core[-l:] + core[:-l]
        else:
            u = tuple(map(INVERSE.__getitem__, reversed(core[:k]))) + u
            core = core[k:] + core[:k]
    return u, core


def conjugate_decompose(w: Word) -> tuple[Word, Word]:
    """Write w = u^-1 * core * u with core a hat word and u minimal (see
    conjugate_core)."""
    u, core = conjugate_core(w.letters)
    core_word = Word(core)
    if not is_hat(core_word):
        raise ValueError(f"core {format_word(core_word)} of {format_word(w)} is not a hat word")
    return Word(u), core_word


@dataclass(frozen=True)
class GoodDecomposition:
    """Alternating shape a^{k_j} u_j ... a^{k_1} u_1 with a-free nonempty u_i.

    blocks[0] is the rightmost block (k_1, u_1).
    """

    gen: int
    blocks: tuple[tuple[int, Word], ...]

    @property
    def rank(self) -> int:
        return len(self.blocks)

    def recompose(self) -> Word:
        parts: list[Letter] = []
        for k, u in reversed(self.blocks):
            parts.extend(power(self.gen, k).letters)
            parts.extend(u.letters)
        return Word(tuple(parts))


@dataclass(frozen=True)
class NotGood:
    """Factorization w = u v a^k without cancellation, u free of a, v good
    for a or empty."""

    gen: int
    u: Word
    v: Word
    k: int

    def recompose(self) -> Word:
        return Word(self.u.letters + self.v.letters + power(self.gen, self.k).letters)


def _segments(w: Word, gen: int) -> list[tuple[bool, list[Letter]]]:
    """Split into maximal runs: (is_gen_run, letters)."""
    segs: list[tuple[bool, list[Letter]]] = []
    for letter in w.letters:
        is_run = letter.gen == gen
        if segs and segs[-1][0] == is_run:
            segs[-1][1].append(letter)
        else:
            segs.append((is_run, [letter]))
    return segs


def _run_exponent(letters: Sequence[Letter]) -> int:
    # a maximal same-generator run in a reduced word has constant sign
    return sum(l.sign for l in letters)


def good_decompose(w: Word, gen: int) -> Union[GoodDecomposition, NotGood]:
    """Decompose w for generator `gen`, or factor it as u v gen^k.

    The NotGood factorization takes the maximal good suffix: k is the trailing
    gen-power (possibly 0), v the longest good word ending the remainder, u
    the gen-free prefix in front of it.
    """
    if gen not in occurrences(w):
        raise ValueError(f"generator {gen} does not occur in {w}")
    segs = _segments(w, gen)
    # good shape: runs alternate starting with a gen-run and ending gen-free
    if segs[0][0] and not segs[-1][0]:
        blocks: list[tuple[int, Word]] = []
        for i in range(0, len(segs), 2):
            k = _run_exponent(segs[i][1])
            u = Word(tuple(segs[i + 1][1]))
            blocks.append((k, u))
        blocks.reverse()  # rightmost block first
        return GoodDecomposition(gen, tuple(blocks))
    k = 0
    if segs[-1][0]:
        k = _run_exponent(segs[-1][1])
        segs = segs[:-1]
    # remaining segments end gen-free (or are empty); peel (gen-run, free) pairs
    # from the right for the good part
    i = len(segs)
    while i >= 2 and segs[i - 2][0] and not segs[i - 1][0]:
        i -= 2
    v_letters = [l for seg in segs[i:] for l in seg[1]]
    u_letters = [l for seg in segs[:i] for l in seg[1]]
    u = Word(tuple(u_letters))
    if gen in occurrences(u):
        raise ValueError(f"prefix {format_word(u)} of {format_word(w)} holds g{gen}")
    return NotGood(gen, u, Word(tuple(v_letters)), k)


def substitute(w: Word, gen: int, replacement: Letter) -> Word:
    """Replace each occurrence gen^s with replacement^s, then reduce."""
    _check_letter(replacement)
    out: list[Letter] = []
    for letter in w.letters:
        if letter.gen == gen:
            out.append(Letter(replacement.gen, replacement.sign * letter.sign))
        else:
            out.append(letter)
    return reduce_letters(out)


def format_word(w: Word) -> str:
    """Canonical text form: `g3^-2 g1 g2^4`; the empty word prints as `e`.
    One pass: each run of equal letters sums its signs into its exponent."""
    letters = w.letters
    if not letters:
        return "e"
    parts: list[str] = []
    run, exp = letters[0], 0
    for letter in letters:
        if letter == run:
            exp += letter.sign
        else:
            parts.append(f"g{run.gen}" if exp == 1 else f"g{run.gen}^{exp}")
            run, exp = letter, letter.sign
    parts.append(f"g{run.gen}" if exp == 1 else f"g{run.gen}^{exp}")
    return " ".join(parts)


def parse_word(text: str) -> Word:
    """Inverse of format_word."""
    text = text.strip()
    if text == "e" or not text:
        return EMPTY_WORD
    letters: list[Letter] = []
    for chunk in text.split():
        if "^" in chunk:
            token, exp_s = chunk.split("^", 1)
            exp = int(exp_s)
        else:
            token, exp = chunk, 1
        if not token.startswith("g"):
            raise ValueError(f"bad generator token {token!r}")
        gen = int(token[1:])
        if exp == 0:
            raise ValueError(f"zero exponent in {chunk!r}")
        letters.extend(power(gen, exp).letters)
    return reduce_letters(letters)


def reduced_letters(
    gens: Sequence[int], max_len: int, min_len: int = 0
) -> list[tuple[Letter, ...]]:
    """The letter tuples of reduced_words(gens, max_len, min_len), in the
    same order, without building a Word for each."""
    alphabet = [Letter(g, s) for g in sorted(gens) for s in (1, -1)]
    # the letters that may follow each letter: all but its inverse
    follow = {x: [y for y in alphabet if y != INVERSE[x]] for x in alphabet}
    out: list[tuple[Letter, ...]] = []
    frontier: list[tuple[Letter, ...]] = [()]
    for length in range(max_len + 1):
        if length >= min_len:
            out.extend(frontier)
        if length == max_len:
            break
        nxt = []
        for t in frontier:
            for letter in follow[t[-1]] if t else alphabet:
                nxt.append(t + (letter,))
        frontier = nxt
    return out


def reduced_words(gens: Sequence[int], max_len: int, min_len: int = 0) -> list[Word]:
    """All reduced words over `gens` with min_len <= length <= max_len,
    in canonical order."""
    return [Word(t) for t in reduced_letters(gens, max_len, min_len)]


def hat_words(gens: Sequence[int], max_len: int) -> list[Word]:
    """The hat words among reduced_words(gens, max_len, min_len=1), in the
    same order; a Word is built only for a hat word."""
    return [Word(t) for t in reduced_letters(gens, max_len, min_len=1) if _hat_letters(t)]


def class_representatives(gens: Sequence[int], max_len: int) -> list[Word]:
    """The least hat word of each cyclic_class among hat_words(gens,
    max_len), in Word.sort_key order, each with its class_key preset.

    The least rotation of a cyclically reduced word is a hat word, so a
    class's representative is its key: the necklace t (t is its own least
    rotation) of a cyclically reduced word with t <= the least rotation of
    t^-1.  Necklaces come from FKM generation over the letters in tuple
    order, which yields them in lexicographic order; a prefix in which a
    letter follows its inverse is pruned, since no cyclically reduced word
    has one.  Letters are handled as their indices in that order."""
    alphabet = sorted(Letter(g, s) for g in set(gens) for s in (1, -1))
    inv = [alphabet.index(INVERSE[x]) for x in alphabet]
    k = len(alphabet)
    out: list[Word] = []
    for n in range(1, max_len + 1):
        a = [0] * (n + 1)  # a[1..n] is the prefix; a[0] = 0 starts period 1

        def extend(t: int, p: int) -> None:
            # a[1..t-1] is a reduced prenecklace whose longest Lyndon prefix
            # has length p: a[t] may repeat a[t-p], or exceed it and start
            # a Lyndon prefix of length t
            if t > n:
                # a necklace whose ends do not cancel, and at most the
                # least rotation of its inverse
                if n % p or n > 1 and a[1] == inv[a[n]]:
                    return
                necklace = tuple(a[1:])
                back = tuple(inv[j] for j in reversed(necklace))
                if all(necklace <= back[i:] + back[:i] for i in range(n)):
                    w = Word(tuple(alphabet[j] for j in necklace))
                    object.__setattr__(w, "_class_key", w.letters)
                    out.append(w)
                return
            banned = inv[a[t - 1]] if t > 1 else -1
            for j in range(a[t - p], k):
                if j != banned:
                    a[t] = j
                    extend(t + 1, p if j == a[t - p] else t)

        extend(1, 1)
    return out
