import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cofinitary import words
from cofinitary.words import (
    EMPTY_WORD,
    GoodDecomposition,
    Letter,
    NotGood,
    Word,
    conjugate_decompose,
    format_word,
    good_decompose,
    hat_words,
    invert,
    is_hat,
    occurrences,
    parse_word,
    power,
    reduce_letters,
    reduced_words,
    single,
    substitute,
)
from word_reference import concat


def all_cancellations(seq: tuple) -> frozenset:
    """Oracle: normal forms reachable by cancelling adjacent inverse pairs in
    every possible order."""
    out = set()
    stack = [tuple(seq)]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        spots = [
            i
            for i in range(len(cur) - 1)
            if cur[i].gen == cur[i + 1].gen and cur[i].sign == -cur[i + 1].sign
        ]
        if not spots:
            out.add(cur)
            continue
        for i in spots:
            stack.append(cur[:i] + cur[i + 2 :])
    return frozenset(out)


letters_st = st.lists(
    st.builds(Letter, st.integers(0, 2), st.sampled_from([1, -1])), max_size=10
)


class TestReduce:
    def test_full_cancellation(self):
        assert reduce_letters([Letter(0, 1), Letter(0, -1)]) == EMPTY_WORD

    def test_inner_cancellation_then_merge(self):
        seq = [Letter(0, 1), Letter(1, 1), Letter(1, -1), Letter(0, 1)]
        assert reduce_letters(seq) == power(0, 2)

    def test_random_sequences_match_cancellation_oracle(self):
        rng = random.Random(5)
        for _ in range(300):
            seq = tuple(
                Letter(rng.randrange(2), rng.choice([1, -1]))
                for _ in range(rng.randrange(11))
            )
            forms = all_cancellations(seq)
            assert len(forms) == 1, "cancellation is confluent"
            assert reduce_letters(seq).letters == next(iter(forms))

    @given(letters_st)
    def test_idempotent(self, seq):
        once = reduce_letters(seq)
        assert reduce_letters(once.letters) == once

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            reduce_letters([Letter(0, 2)])


def _check_by_letter(letters: tuple) -> None:
    """Word's check before its one-pass form: an inverse Letter and a sign
    check per position."""
    for i, letter in enumerate(letters):
        if letter.sign not in (-1, 1):
            raise ValueError(f"letter sign must be +1 or -1, got {letter.sign}")
        if i > 0 and letter == letters[i - 1].inverse():
            raise ValueError(f"word not reduced at position {i}: {letters}")


@pytest.mark.parametrize(
    "letters, message",
    [
        ((Letter(0, 1), Letter(1, 2), Letter(2, 1)), "letter sign must be +1 or -1, got 2"),
        ((Letter(0, 1), Letter(1, -1), Letter(1, 1)), "word not reduced at position 2"),
        # both faults: the first position raises, whichever fault it holds
        ((Letter(0, 1), Letter(0, -1), Letter(1, 0)), "word not reduced at position 1"),
        ((Letter(1, 0), Letter(0, 1), Letter(0, -1)), "letter sign must be +1 or -1, got 0"),
    ],
    ids=["sign", "cancel", "cancel-then-sign", "sign-then-cancel"],
)
def test_word_check_messages(letters, message):
    with pytest.raises(ValueError) as new:
        Word(letters)
    with pytest.raises(ValueError) as old:
        _check_by_letter(letters)
    assert str(new.value) == str(old.value) and str(new.value).startswith(message)


@given(st.lists(st.builds(Letter, st.integers(0, 2), st.sampled_from([1, -1, 0, 2])), max_size=6))
def test_word_check_equals_the_letter_by_letter_check(letters):
    letters = tuple(letters)
    try:
        _check_by_letter(letters)
    except ValueError as err:
        with pytest.raises(ValueError) as new:
            Word(letters)
        assert str(new.value) == str(err)
    else:
        assert Word(letters).letters == letters


class TestGroupOps:
    def test_inverse_law(self):
        w = parse_word("g0 g1^-1 g0")
        assert concat(w, invert(w)) == EMPTY_WORD
        assert concat(invert(w), w) == EMPTY_WORD

    def test_invert_reverses_and_flips(self):
        assert invert(parse_word("g0 g1^-1")) == parse_word("g1 g0^-1")

    def test_associativity_exhaustive_short(self):
        words = reduced_words([0, 1], 3)
        for a, b, c in itertools.product(words[:30], words, words[:30]):
            assert concat(concat(a, b), c) == concat(a, concat(b, c))

    @given(letters_st, letters_st, letters_st)
    @settings(max_examples=200)
    def test_associativity_random(self, xs, ys, zs):
        a, b, c = reduce_letters(xs), reduce_letters(ys), reduce_letters(zs)
        assert concat(concat(a, b), c) == concat(a, concat(b, c))

    def test_identity(self):
        w = parse_word("g2^3")
        assert concat(w, EMPTY_WORD) == w
        assert concat(EMPTY_WORD, w) == w

    def test_inverse_table_builds_the_inverse_letter(self):
        for gen in (0, 1, 7, 12):
            for sign in (1, -1):
                letter = Letter(gen, sign)
                assert words.INVERSE[letter] == letter.inverse() == Letter(gen, -sign)
                assert words.INVERSE[(gen, sign)] == Letter(gen, -sign)  # a plain tuple key

    @pytest.mark.parametrize("gens,max_len", [([0], 4), ([0, 1], 4), ([2, 0, 5], 3)])
    def test_reduced_words_enumerate_every_reduced_tuple_in_order(self, gens, max_len):
        alphabet = [Letter(g, s) for g in sorted(gens) for s in (1, -1)]
        want = [
            t
            for length in range(max_len + 1)
            for t in itertools.product(alphabet, repeat=length)
            if all(a.gen != b.gen or a.sign == b.sign for a, b in zip(t, t[1:]))
        ]
        assert [w.letters for w in reduced_words(gens, max_len)] == want

    def test_cyclic_class_and_invert_against_flipped_letters(self):
        for w in reduced_words([0, 1, 2], 4, min_len=1):
            flipped = tuple(Letter(l.gen, -l.sign) for l in reversed(w.letters))
            assert invert(w).letters == flipped
            rotations = [t[i:] + t[:i] for t in (w.letters, flipped) for i in range(len(t))]
            assert words.cyclic_class(w) == min(rotations)


class TestHat:
    def test_powers_are_hats(self):
        assert is_hat(power(0, 3))
        assert is_hat(power(0, -2))

    def test_same_generator_ends_not_hat(self):
        assert not is_hat(parse_word("g0 g1 g0^-1"))
        assert not is_hat(parse_word("g0 g1 g0"))

    def test_distinct_ends_are_hats(self):
        assert is_hat(parse_word("g0 g2 g1"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_hat(EMPTY_WORD)

    @pytest.mark.parametrize("n_gens", [1, 2, 3, 4])
    def test_hat_words_are_the_hat_reduced_words(self, n_gens):
        # hat_words tests hatness on letter tuples; the reference filters Words
        gens = [3 * g + 1 for g in range(n_gens)]
        for max_len in range(6):
            want = [w for w in reduced_words(gens, max_len, min_len=1) if is_hat(w)]
            assert hat_words(gens, max_len) == want


class TestConjugateDecompose:
    def test_direct_expansion(self):
        u, core = conjugate_decompose(parse_word("g0 g1 g0^-1"))
        assert u == parse_word("g0^-1")
        assert core == parse_word("g1")

    def test_already_hat(self):
        w = parse_word("g0 g1")
        assert conjugate_decompose(w) == (EMPTY_WORD, w)

    def test_rotation_case(self):
        u, core = conjugate_decompose(parse_word("g0 g1 g0"))
        assert is_hat(core)
        assert concat(invert(u), core, u) == parse_word("g0 g1 g0")

    @pytest.mark.parametrize("gens,max_len", [([0, 1, 2], 6), ([0, 1], 8)])
    def test_recomposition_and_hat_exhaustive(self, gens, max_len):
        for w in reduced_words(gens, max_len, min_len=1):
            u, core = conjugate_decompose(w)
            assert is_hat(core)
            assert concat(invert(u), core, u) == w

    def test_word_peeled_to_nothing_raises(self):
        # Word() rejects g0 g0^-1, so build the unreduced word around it
        w = object.__new__(Word)
        object.__setattr__(w, "letters", (Letter(0, 1), Letter(0, -1)))
        with pytest.raises(ValueError, match="peeled to nothing"):
            conjugate_decompose(w)

    def test_core_that_is_no_hat_raises(self, monkeypatch):
        monkeypatch.setattr(words, "is_hat", lambda w: False)
        with pytest.raises(ValueError, match="is not a hat word"):
            conjugate_decompose(parse_word("g0 g1"))

    def test_minimality_small(self):
        # no strictly shorter conjugator exists, for words up to length 5
        for w in reduced_words([0, 1], 5, min_len=1):
            u, core = conjugate_decompose(w)
            gens = sorted(occurrences(w))
            for k in range(len(u.letters)):
                for cand in reduced_words(gens, k, min_len=k):
                    if is_hat(concat(cand, w, invert(cand))):
                        raise AssertionError(f"{format_word(w)}: shorter conjugator")


class TestGoodDecompose:
    def test_good_example(self):
        d = good_decompose(parse_word("g0^2 g1"), 0)
        assert isinstance(d, GoodDecomposition)
        assert d.rank == 1
        assert d.blocks == ((2, parse_word("g1")),)

    def test_trailing_power(self):
        d = good_decompose(parse_word("g1 g0"), 0)
        assert isinstance(d, NotGood)
        assert (d.u, d.v, d.k) == (parse_word("g1"), EMPTY_WORD, 1)

    def test_missing_generator_rejected(self):
        with pytest.raises(ValueError):
            good_decompose(parse_word("g1 g2"), 0)

    def test_prefix_holding_the_generator_raises(self, monkeypatch):
        # the prefix u is free of g0 by construction; make occurrences see g0
        real = words.occurrences
        monkeypatch.setattr(words, "occurrences", lambda w: real(w) | {0})
        with pytest.raises(ValueError, match="holds g0"):
            good_decompose(parse_word("g1 g0"), 0)

    def test_pure_power(self):
        d = good_decompose(power(0, -3), 0)
        assert isinstance(d, NotGood)
        assert (d.u, d.v, d.k) == (EMPTY_WORD, EMPTY_WORD, -3)

    def test_zero_trailing_power_absorbed(self):
        # ends with a non-a letter but carries a good suffix: k = 0
        d = good_decompose(parse_word("g1 g0 g2"), 0)
        assert isinstance(d, NotGood)
        assert (d.u, d.v, d.k) == (parse_word("g1"), parse_word("g0 g2"), 0)

    def test_recomposition_exhaustive(self):
        # concatenating the parts yields the word with no reduction occurring
        for w in reduced_words([0, 1, 2], 5, min_len=1):
            if 0 not in occurrences(w):
                continue
            d = good_decompose(w, 0)
            recomposed = d.recompose()
            assert recomposed == w
            if isinstance(d, GoodDecomposition):
                for k, u in d.blocks:
                    assert k != 0 and u and 0 not in occurrences(u)
            else:
                assert 0 not in occurrences(d.u)
                if d.v:
                    assert isinstance(good_decompose(d.v, 0), GoodDecomposition)


class TestOccurrencesSubstitute:
    def test_occurrences(self):
        assert occurrences(parse_word("g0 g1 g0^-1")) == {0, 1}
        assert occurrences(EMPTY_WORD) == frozenset()

    def test_substitute_flip(self):
        assert substitute(parse_word("g0 g1"), 0, Letter(0, -1)) == parse_word("g0^-1 g1")

    def test_substitute_other_generator(self):
        assert substitute(parse_word("g0 g1 g0"), 0, Letter(5, 1)) == parse_word("g5 g1 g5")

    def test_substitute_cancellation(self):
        assert substitute(parse_word("g0 g1^-1"), 0, Letter(1, 1)) == EMPTY_WORD


class TestTextForm:
    @pytest.mark.parametrize(
        "text", ["e", "g0", "g3^-2 g1 g2^4", "g0^2 g1^-1", "g10 g2^-3"]
    )
    def test_roundtrip(self, text):
        assert format_word(parse_word(text)) == text

    def test_empty(self):
        assert format_word(EMPTY_WORD) == "e"
        assert parse_word("e") == EMPTY_WORD

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            parse_word("g0^0")

    def test_one_pass_format_equals_the_run_scan(self):
        def reference_format_word(w):
            # the two-index run scan that the one-pass format_word replaced
            if not w:
                return "e"
            parts = []
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

        rng = random.Random(4)
        longer = [reduce_letters(Letter(rng.choice([0, 1, 12]), rng.choice([1, -1]))
                                 for _ in range(rng.randrange(30))) for _ in range(300)]
        for w in reduced_words([0, 1, 12], 5) + longer:
            assert format_word(w) == reference_format_word(w)
            assert parse_word(format_word(w)) == w


def test_hat_words_enumeration():
    hw = hat_words([0, 1], 2)
    assert single(0) in hw and power(0, 2) in hw
    assert parse_word("g0 g1^-1") in hw
    assert all(is_hat(w) for w in hw)
    assert len(set(hw)) == len(hw)
