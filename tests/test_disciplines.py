"""What each poset discipline decides, pinned from the outside.

The golden digests were recorded before the four modes were folded into one
discipline table; they pin the samplers and the freeze probe, which passing
ffp-suite reports do not (a suite passes whatever its samples are).
"""

import hashlib
import json
import random

import pytest

from test_incremental_checks import follow_zshift

from cofinitary import poset
from cofinitary.evaluation import Assignment, PartialMap
from cofinitary.extension import domain_extend, range_extend
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, add_words, side_words
from cofinitary.sampling import (
    sample_condition,
    sample_extension,
    sample_extra_words,
    sample_fresh_assignment,
)
from cofinitary.suslin import _freeze_probe
from cofinitary.words import Letter, format_word, hat_words, parse_word, substitute

DRAWS = 40


def _plain(mode: PosetMode) -> str:
    """The test id of a mode: "plain" names sampling over finite maps only."""
    return f"{mode.value}-plain"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _samples(mode: PosetMode) -> dict[str, str]:
    """Digests of 40 sampled conditions, of every sampler applied to them and
    of the freeze probe on the draws, their extensions and their grown side
    sets; each sampler draws from its own seeded stream."""
    rng = random.Random(20)
    draws = [sample_condition(rng, mode, range(5)) for _ in range(DRAWS)]
    ext_rng, words_rng, fresh_rng = random.Random(21), random.Random(22), random.Random(23)
    exts = [sample_extension(ext_rng, p) for p in draws]
    extra = [sample_extra_words(words_rng, p) for p in draws]
    grown = [add_words(p, p.words | e) for p, e in zip(draws, extra)]
    probes = [_freeze_probe(p) for p in draws + exts + grown]
    return {
        "conditions": _sha([p.to_json() for p in draws]),
        "extensions": _sha([q.to_json() for q in exts]),
        "extra_words": _sha([sorted(map(format_word, e)) for e in extra]),
        "fresh": _sha([sample_fresh_assignment(fresh_rng, p).to_json() for p in draws]),
        "probes": _sha([None if q is None else q.to_json() for q in probes]),
    }


GOLDEN = {
    "cofinitary": {
        "conditions": "b62bc96ca6842b9521887bee45662ddd0aee174ead4021777aa94752a7e2e741",
        "extensions": "70b3ada49ebf529212d697e37b67fce5dfad0313ed0d433945d7c6359e5e372e",
        "extra_words": "98afb6707cb83b3cdc812c31877cad410722586a38c2555127348f4edeb70e1e",
        "fresh": "1ee13def284367784d0cbf7613203f5d281f3e09c6d62d97b7011c161a55f219",
        "probes": "27306d43495e6607b22fa4692b4b9a8c0715ad462a7c13dc9a6cd78c42952e66",
    },
    "adp": {
        "conditions": "16042669bc81fde6a1dc09fbcf14f26f69bbbf8642daa4bd51a91b586969ea47",
        "extensions": "8831a190d328f8277644721fb6149eddf485190a4ab1a9b32300db46f7cf657f",
        "extra_words": "7d225025c8d56ad9828bc03df342b699e41434a068e88e7923e2ae7ca6d3cc5f",
        "fresh": "1ee13def284367784d0cbf7613203f5d281f3e09c6d62d97b7011c161a55f219",
        "probes": "7296c9a66b81abaffb053ec1604f0f61db7cf2b8163e9a63b3f9ed8971214f8f",
    },
    "edf": {
        "conditions": "29de0bb20a5b4b707fa3632865902ee43c4dd279954ae58f905d1f05bebdd8f8",
        "extensions": "320244c04c1a7a587c1f2f17d34a7536f5f4d28191a5e175dfbd558894903d9e",
        "extra_words": "7d225025c8d56ad9828bc03df342b699e41434a068e88e7923e2ae7ca6d3cc5f",
        "fresh": "92f62c775f3146ce60c51bb605f445adf68848904202185ef57c704678908c86",
        "probes": "3c12bfbe9fa9b96acf84b7144e59663595d03801e8a8349475a721863f9f888f",
    },
    "mad": {
        "conditions": "afa29d21148656f6f08c41881fdcaa1fa1ceb58a2197054d560380bf44baf72c",
        "extensions": "aa8a61f0ffab0aaa0b361f99bb03a6a81ab36b7458d2a719726b2de3d2e29224",
        "extra_words": "c289836c5b7974972166792d972b6bae73299773e862c6c88d1835587c56c283",
        "fresh": "f0a50922b4ae3075c3d2650b6487114ef4936b38abfda4844df80ddb8ae9db1d",
        "probes": "de077df87c6d861378c60b308300e4a74219b34e9c02114fda9f5fc62a43a65d",
    },
}


@pytest.mark.parametrize("mode", list(PosetMode), ids=_plain)
def test_sampler_digests(mode):
    assert _samples(mode) == GOLDEN[mode.value]


def test_table_facts():
    assert [DISCIPLINES[m].word_budget for m in PosetMode] == [None, 2, 2, 1]
    assert [DISCIPLINES[m].injective for m in PosetMode] == [True, True, False, False]


def test_one_incompatible():
    from cofinitary.suslin import Incompatible

    assert Incompatible is poset.Incompatible


class TestSideWords:
    def test_hat_words_with_a_finite_letter(self):
        # every letter is over a finite map, so the pool is every hat word
        words = side_words(PosetMode.COFINITARY, (0, 7), 2)
        assert list(words) == hat_words([0, 7], 2)
        assert parse_word("g7") in words and parse_word("g0 g7") in words

    def test_fixed_shapes(self):
        assert side_words(PosetMode.ADP, (0, 1, 2), 2) == tuple(
            map(parse_word, ["g0 g1^-1", "g0 g2^-1", "g1 g2^-1"])
        )
        assert side_words(PosetMode.EDF, (0, 1), 1) == ()
        assert side_words(PosetMode.MAD, (2, 0), 3) == tuple(map(parse_word, ["g2", "g0"]))

    def test_each_pool_is_computed_once(self):
        side_words.cache_clear()
        a = side_words(PosetMode.COFINITARY, (0, 1), 3)
        assert side_words(PosetMode.COFINITARY, (0, 1), 3) is a
        assert side_words.cache_info().misses == 1 and isinstance(a, tuple)


def _mirror_of_every_word(p: Condition, gen: int) -> Condition:
    """The range step's mirror as it was first written: gen's map inverted
    and gen's sign flipped in every side word, not only in those with gen."""
    table = dict(p.s.table)
    if p.s.get(gen).pairs:
        table[gen] = PartialMap(frozenset((m, n) for n, m in p.s.get(gen).pairs))
    words = frozenset(substitute(w, gen, Letter(gen, -1)) for w in p.words)
    return Condition(Assignment(table), words, PosetMode.COFINITARY)


@pytest.mark.parametrize("case", ["plain", "zshift"])
@pytest.mark.parametrize("mode", [PosetMode.COFINITARY, PosetMode.ADP], ids=lambda m: m.value)
def test_range_certificate_reads_only_words_with_the_generator(mode, case):
    # zshift: the sampled conditions first take hit steps toward zshift
    rng = random.Random(f"mirror-{mode.value}")
    checked = 0
    for _ in range(DRAWS):
        p = sample_condition(rng, mode, range(3), max_words=4)
        if case == "zshift":
            p = follow_zshift(rng, p, range(3))
        gen, m = rng.randrange(3), rng.randrange(24)
        if m in p.s.get(gen).image():
            continue
        reference = domain_extend(_mirror_of_every_word(p, gen), gen, m).certificate
        assert range_extend(p, gen, m).certificate == reference
        checked += bool(p.words)
    assert checked >= DRAWS // 2
