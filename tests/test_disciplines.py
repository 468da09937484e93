"""What each poset discipline decides, pinned from the outside.

The golden digests were recorded before the four modes were folded into one
discipline table; they pin the samplers and the freeze probe, which passing
ffp-suite reports do not (a suite passes whatever its samples are).
"""

import hashlib
import json
import random

import pytest

from cofinitary import poset
from cofinitary.evaluation import (
    Assignment,
    EMPTY_GROUND,
    GroundRep,
    PartialMap,
    table_over_zshift,
    zshift,
)
from cofinitary.extension import domain_extend, range_extend
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, add_words, side_words
from cofinitary.sampling import (
    sample_condition,
    sample_extension,
    sample_extra_words,
    sample_fresh_assignment,
)
from cofinitary.suslin import _freeze_probe
from cofinitary.words import Letter, format_word, hat_words, occurrences, parse_word, substitute

GROUNDS = {"plain": EMPTY_GROUND, "zshift": GroundRep({7: zshift()})}
DRAWS = 40


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _samples(mode: PosetMode, ground: GroundRep) -> dict[str, str]:
    """Digests of 40 sampled conditions, of every sampler applied to them and
    of the freeze probe on the draws, their extensions and their grown side
    sets; each sampler draws from its own seeded stream."""
    rng = random.Random(20)
    draws = [sample_condition(rng, mode, range(5), ground=ground) for _ in range(DRAWS)]
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
    ("cofinitary", "plain"): {
        "conditions": "b62bc96ca6842b9521887bee45662ddd0aee174ead4021777aa94752a7e2e741",
        "extensions": "70b3ada49ebf529212d697e37b67fce5dfad0313ed0d433945d7c6359e5e372e",
        "extra_words": "98afb6707cb83b3cdc812c31877cad410722586a38c2555127348f4edeb70e1e",
        "fresh": "1ee13def284367784d0cbf7613203f5d281f3e09c6d62d97b7011c161a55f219",
        "probes": "27306d43495e6607b22fa4692b4b9a8c0715ad462a7c13dc9a6cd78c42952e66",
    },
    ("cofinitary", "zshift"): {
        "conditions": "0fb35117358e96caf607ebc486bd0050a9fc31322610c8a14d172804709527ad",
        "extensions": "516f852e201529c39d836a88781264f29ccdf7b14de38bc430740d2085f6691c",
        "extra_words": "f55035d0cba3b9437e333642cb13a0a9f71cd776e798b68bb337aba89e1e9e73",
        "fresh": "1ee13def284367784d0cbf7613203f5d281f3e09c6d62d97b7011c161a55f219",
        "probes": "920532f441eecdcc7822f3c0c26ec3b956623a5fede888712854b6b57f000cf7",
    },
    ("adp", "plain"): {
        "conditions": "16042669bc81fde6a1dc09fbcf14f26f69bbbf8642daa4bd51a91b586969ea47",
        "extensions": "8831a190d328f8277644721fb6149eddf485190a4ab1a9b32300db46f7cf657f",
        "extra_words": "7d225025c8d56ad9828bc03df342b699e41434a068e88e7923e2ae7ca6d3cc5f",
        "fresh": "1ee13def284367784d0cbf7613203f5d281f3e09c6d62d97b7011c161a55f219",
        "probes": "7296c9a66b81abaffb053ec1604f0f61db7cf2b8163e9a63b3f9ed8971214f8f",
    },
    ("adp", "zshift"): {
        "conditions": "16042669bc81fde6a1dc09fbcf14f26f69bbbf8642daa4bd51a91b586969ea47",
        "extensions": "8831a190d328f8277644721fb6149eddf485190a4ab1a9b32300db46f7cf657f",
        "extra_words": "7d225025c8d56ad9828bc03df342b699e41434a068e88e7923e2ae7ca6d3cc5f",
        "fresh": "1ee13def284367784d0cbf7613203f5d281f3e09c6d62d97b7011c161a55f219",
        "probes": "7296c9a66b81abaffb053ec1604f0f61db7cf2b8163e9a63b3f9ed8971214f8f",
    },
    ("edf", "plain"): {
        "conditions": "29de0bb20a5b4b707fa3632865902ee43c4dd279954ae58f905d1f05bebdd8f8",
        "extensions": "320244c04c1a7a587c1f2f17d34a7536f5f4d28191a5e175dfbd558894903d9e",
        "extra_words": "7d225025c8d56ad9828bc03df342b699e41434a068e88e7923e2ae7ca6d3cc5f",
        "fresh": "92f62c775f3146ce60c51bb605f445adf68848904202185ef57c704678908c86",
        "probes": "3c12bfbe9fa9b96acf84b7144e59663595d03801e8a8349475a721863f9f888f",
    },
    ("edf", "zshift"): {
        "conditions": "29de0bb20a5b4b707fa3632865902ee43c4dd279954ae58f905d1f05bebdd8f8",
        "extensions": "320244c04c1a7a587c1f2f17d34a7536f5f4d28191a5e175dfbd558894903d9e",
        "extra_words": "7d225025c8d56ad9828bc03df342b699e41434a068e88e7923e2ae7ca6d3cc5f",
        "fresh": "92f62c775f3146ce60c51bb605f445adf68848904202185ef57c704678908c86",
        "probes": "3c12bfbe9fa9b96acf84b7144e59663595d03801e8a8349475a721863f9f888f",
    },
    ("mad", "plain"): {
        "conditions": "afa29d21148656f6f08c41881fdcaa1fa1ceb58a2197054d560380bf44baf72c",
        "extensions": "aa8a61f0ffab0aaa0b361f99bb03a6a81ab36b7458d2a719726b2de3d2e29224",
        "extra_words": "c289836c5b7974972166792d972b6bae73299773e862c6c88d1835587c56c283",
        "fresh": "f0a50922b4ae3075c3d2650b6487114ef4936b38abfda4844df80ddb8ae9db1d",
        "probes": "de077df87c6d861378c60b308300e4a74219b34e9c02114fda9f5fc62a43a65d",
    },
    ("mad", "zshift"): {
        "conditions": "afa29d21148656f6f08c41881fdcaa1fa1ceb58a2197054d560380bf44baf72c",
        "extensions": "aa8a61f0ffab0aaa0b361f99bb03a6a81ab36b7458d2a719726b2de3d2e29224",
        "extra_words": "c289836c5b7974972166792d972b6bae73299773e862c6c88d1835587c56c283",
        "fresh": "f0a50922b4ae3075c3d2650b6487114ef4936b38abfda4844df80ddb8ae9db1d",
        "probes": "de077df87c6d861378c60b308300e4a74219b34e9c02114fda9f5fc62a43a65d",
    },
}


@pytest.mark.parametrize("ground", sorted(GROUNDS))
@pytest.mark.parametrize("mode", list(PosetMode), ids=lambda m: m.value)
def test_sampler_digests(mode, ground):
    assert _samples(mode, GROUNDS[ground]) == GOLDEN[mode.value, ground]


def test_table_facts():
    assert [DISCIPLINES[m].word_budget for m in PosetMode] == [None, 2, 2, 1]
    assert [DISCIPLINES[m].injective for m in PosetMode] == [True, True, False, False]


def test_one_incompatible():
    from cofinitary.suslin import Incompatible

    assert Incompatible is poset.Incompatible


class TestSideWords:
    def test_hat_words_with_a_finite_letter(self):
        ambient = frozenset({7})
        words = side_words(PosetMode.COFINITARY, (0, 7), ambient, 2)
        assert list(words) == [w for w in hat_words([0, 7], 2) if 0 in {l.gen for l in w.letters}]
        assert parse_word("g7") not in words and parse_word("g0 g7") in words

    def test_fixed_shapes(self):
        assert side_words(PosetMode.ADP, (0, 1, 2, 7), frozenset({7}), 2) == tuple(
            map(parse_word, ["g0 g1^-1", "g0 g2^-1", "g1 g2^-1"])
        )
        assert side_words(PosetMode.EDF, (0, 1), frozenset(), 1) == ()
        assert side_words(PosetMode.MAD, (2, 0), frozenset(), 3) == tuple(
            map(parse_word, ["g2", "g0"])
        )

    def test_each_pool_is_computed_once(self):
        side_words.cache_clear()
        a = side_words(PosetMode.COFINITARY, (0, 1), frozenset(), 3)
        assert side_words(PosetMode.COFINITARY, (0, 1), frozenset(), 3) is a
        assert side_words.cache_info().misses == 1 and isinstance(a, tuple)


def _mirror_of_every_word(p: Condition, gen: int) -> Condition:
    """The range step's mirror as it was first written: gen's map inverted
    and gen's sign flipped in every side word, not only in those with gen."""
    table = dict(p.s.table)
    if p.s.get(gen).pairs:
        table[gen] = PartialMap(frozenset((m, n) for n, m in p.s.get(gen).pairs))
    words = frozenset(substitute(w, gen, Letter(gen, -1)) for w in p.words)
    return Condition(Assignment(table), words, PosetMode.COFINITARY, p.ground)


@pytest.mark.parametrize("ground", sorted(GROUNDS))
@pytest.mark.parametrize("mode", [PosetMode.COFINITARY, PosetMode.ADP], ids=lambda m: m.value)
def test_range_certificate_reads_only_words_with_the_generator(mode, ground):
    ground = GROUNDS[ground]
    rng = random.Random(f"mirror-{mode.value}")
    checked = 0
    for _ in range(DRAWS):
        p = sample_condition(rng, mode, range(3), max_words=4, ground=ground)
        gen, m = rng.randrange(3), rng.randrange(24)
        if m in p.s.get(gen).image():
            continue
        reference = domain_extend(_mirror_of_every_word(p, gen), gen, m).certificate
        assert range_extend(p, gen, m).certificate == reference
        checked += bool(p.words)
    assert checked >= DRAWS // 2


def test_range_certificate_flips_the_mixed_words():
    # Under a patched shift the walks of a mixed word depend on gen's sign,
    # so a mirror that left them unflipped would certify other values.
    ground = GroundRep({7: table_over_zshift({0: 0, 1: 2})})
    rng = random.Random("mirror-mixed")
    mixed = sign_matters = 0
    for _ in range(DRAWS):
        p = sample_condition(
            rng, PosetMode.COFINITARY, [0, 1], max_pairs=6, max_words=4, ground=ground
        )
        gen, m = rng.randrange(2), rng.randrange(24)
        if m in p.s.get(gen).image():
            continue
        reference = domain_extend(_mirror_of_every_word(p, gen), gen, m).certificate
        assert range_extend(p, gen, m).certificate == reference
        mixed += any({gen, 7} <= occurrences(w) for w in p.words)
        unflipped = Condition(
            _mirror_of_every_word(p, gen).s, p.words, PosetMode.COFINITARY, ground
        )
        sign_matters += domain_extend(unflipped, gen, m).certificate != reference
    assert mixed >= DRAWS // 4 and sign_matters
