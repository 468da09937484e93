"""Free-group word algebra over a signed integer alphabet.

Words are reduced sequences of signed generator letters.  Generator ids are
opaque integers; ordering on ids is used only for canonical printing and
sorting.  Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Union


class Letter(NamedTuple):
    gen: int
    sign: int  # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)


def _check_letter(letter: Letter) -> None:
    if letter.sign not in (-1, 1):
        raise ValueError(f"letter sign must be +1 or -1, got {letter.sign}")


@dataclass(frozen=True)
class Word:
    """A reduced word; the empty tuple is the identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        for i, letter in enumerate(self.letters):
            _check_letter(letter)
            if i > 0 and letter == self.letters[i - 1].inverse():
                raise ValueError(f"word not reduced at position {i}: {self.letters}")

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
        if stack and stack[-1] == letter.inverse():
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def concat(*words: Word) -> Word:
    out: list[Letter] = []
    for w in words:
        out.extend(w.letters)
    return reduce_letters(out)


def invert(w: Word) -> Word:
    # The inverse of a reduced word is already reduced.
    return Word(tuple(l.inverse() for l in reversed(w.letters)))


def cyclic_class(w: Word) -> tuple[Letter, ...]:
    """The least letter tuple among the rotations of w and of w^-1.

    Words with one key have fixed-point sets in bijection under any
    assignment of partial injections: for w = uv, n -> e_v(n) maps Fix(uv)
    onto Fix(vu), and Fix(w^-1) = Fix(w).  A rotation need not be reduced,
    so the key is a letter tuple, not a Word.
    """
    letters = w.letters
    inverse = tuple(l.inverse() for l in reversed(letters))
    return min(
        (t[i:] + t[:i] for t in (letters, inverse) for i in range(len(t))), default=()
    )


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
    gens = {l.gen for l in w.letters}
    if len(gens) == 1:
        # reduced single-generator words are powers
        return True
    return w.letters[0].gen != w.letters[-1].gen


def occurrences(w: Word, restrict_to: Optional[Iterable[int]] = None) -> frozenset[int]:
    occ = frozenset(l.gen for l in w.letters)
    if restrict_to is not None:
        occ &= frozenset(restrict_to)
    return occ


def conjugate_decompose(w: Word) -> tuple[Word, Word]:
    """Write w = u^-1 * core * u with core a hat word and u minimal.

    First peels matching first/last inverse pairs (cyclic reduction), then, if
    the cyclically reduced core still starts and ends with the same generator,
    rotates its leading power block to the back.
    """
    if not w:
        raise ValueError("cannot decompose the empty word")
    letters = list(w.letters)
    peeled: list[Letter] = []
    while len(letters) >= 2 and letters[0] == letters[-1].inverse():
        peeled.append(letters[0])
        letters = letters[1:-1]
    # every reduced nonempty word has a nonempty cyclic reduction
    if not letters:
        raise ValueError("reduced word peeled to nothing")
    u = invert(Word(tuple(peeled)))  # w = u^-1 * core * u so far
    core = Word(tuple(letters))
    if not is_hat(core):
        # core = a^k v a^l with the same generator (same sign) at both ends;
        # rotate the shorter end block across
        gen = letters[0].gen
        k = 0
        while k < len(letters) and letters[k].gen == gen:
            k += 1
        l = 0
        while l < len(letters) and letters[-1 - l].gen == gen:
            l += 1
        if l <= k:
            rotated = Word(tuple(letters[-l:] + letters[:-l]))
            u = concat(Word(tuple(letters[-l:])), u)
        else:
            rotated = Word(tuple(letters[k:] + letters[:k]))
            u = concat(invert(Word(tuple(letters[:k]))), u)
        core = rotated
    if not is_hat(core):
        raise ValueError(f"core {format_word(core)} of {format_word(w)} is not a hat word")
    return u, core


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
    """Canonical text form: `g3^-2 g1 g2^4`; the empty word prints as `e`."""
    if not w:
        return "e"
    parts: list[str] = []
    i = 0
    letters = w.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        exp = (j - i) * letters[i].sign
        token = f"g{letters[i].gen}"
        parts.append(token if exp == 1 else f"{token}^{exp}")
        i = j
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


def reduced_words(gens: Sequence[int], max_len: int, min_len: int = 0) -> list[Word]:
    """All reduced words over `gens` with min_len <= length <= max_len,
    in canonical order."""
    alphabet = [Letter(g, s) for g in sorted(gens) for s in (1, -1)]
    out: list[Word] = []
    frontier: list[tuple[Letter, ...]] = [()]
    for length in range(max_len + 1):
        if length >= min_len:
            out.extend(Word(t) for t in frontier)
        if length == max_len:
            break
        nxt = []
        for t in frontier:
            for letter in alphabet:
                if t and letter == t[-1].inverse():
                    continue
                nxt.append(t + (letter,))
        frontier = nxt
    return out


def hat_words(gens: Sequence[int], max_len: int) -> list[Word]:
    return [w for w in reduced_words(gens, max_len, min_len=1) if is_hat(w)]
