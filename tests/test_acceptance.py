"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines.

Criteria 1 and 2 call for an exhaustive sweep of all reduced words of length
at most 5 over two generators against all assignments with up to 4 pairs per
generator drawn from values below 6.  That product has about 6.9e7 assignment
pairs x 484 words ~ 3e10 evaluations and cannot finish in the stated minute
on any current hardware (see the repository notes).  The suite keeps the
word space exhaustive and covers the assignment space exactly where that is
semantically complete (single-generator words), exhaustively on a smaller
two-generator grid, and by a broad seeded sample of the full stated space.
"""

import functools
import itertools
import random
import time

import pytest

from cofinitary.builder import build, verify_cofinitary, verify_variant
from cofinitary.cli import main
from cofinitary.evaluation import (
    Assignment,
    PartialMap,
    eval_word,
    fix_points,
    zshift,
)
from cofinitary.extension import (
    canonical_extension,
    domain_extend,
    hit_search,
    strong_reduction,
)
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, leq, strong_restrict, validate
from cofinitary.sampling import sample_condition, sample_extension
from cofinitary.suslin import n_suslin_trial
from cofinitary.templates import (
    SurrogateParams,
    build_surrogate_template,
    check_axioms,
    enumerate_positions,
    interval_finder,
    is_relevant,
    rank,
)
from cofinitary.words import Word, is_hat, reduced_words
from relational_reference import relational_eval
from word_reference import concat


def _admits(cert, m: int) -> bool:
    """The certificate leaves m, a natural, free."""
    return m >= 0 and m not in cert.forbidden


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {number}: {summary}")
                raise
            elapsed = time.monotonic() - started
            print(f"\nPASS criterion {number}: {summary} ({elapsed:.1f}s)")

        return wrapper

    return decorate


def injective_maps(values, max_pairs):
    """All partial injections on [0, values) with at most max_pairs pairs."""
    out = [frozenset()]
    cells = [(n, m) for n in range(values) for m in range(values)]
    frontier = [frozenset()]
    for _ in range(max_pairs):
        nxt = []
        for pm in frontier:
            doms = {n for n, _ in pm}
            rans = {m for _, m in pm}
            last = max(pm, default=(-1, -1))
            for cell in cells:
                if cell <= last:
                    continue  # canonical growth order avoids duplicates
                if cell[0] in doms or cell[1] in rans:
                    continue
                nxt.append(pm | {cell})
        out.extend(nxt)
        frontier = nxt
    return [PartialMap(pm) for pm in out]


def random_stated_assignment(rng):
    """The stated space: up to 4 pairs per generator, values below 6."""
    table = {}
    for g in (0, 1):
        pairs = set()
        for _ in range(rng.randrange(5)):
            n, m = rng.randrange(6), rng.randrange(6)
            if all(n != a and m != b for a, b in pairs):
                pairs.add((n, m))
        table[g] = PartialMap(frozenset(pairs))
    return Assignment(table)


def oracle_agrees(w, s):
    rel = dict(relational_eval(w, s))
    for n in range(8):
        assert eval_word(w, s, n) == rel.get(n), (w, s, n)


WORDS_LE_5 = reduced_words([0, 1], 5, min_len=1)


@criterion(1, "word evaluation agrees with the relational composition oracle")
def test_criterion_1_eval_oracle():
    started = time.monotonic()
    single_gen_maps = injective_maps(6, 4)  # the full stated per-generator space
    for w in WORDS_LE_5:
        gens = {l.gen for l in w.letters}
        if len(gens) == 1:
            g = next(iter(gens))
            for pm in single_gen_maps:
                oracle_agrees(w, Assignment({g: pm}))
    small_maps = injective_maps(3, 2)
    two_gen_words = [w for w in WORDS_LE_5 if len({l.gen for l in w.letters}) == 2]
    for w in two_gen_words:
        for pa, pb in itertools.product(small_maps, small_maps):
            oracle_agrees(w, Assignment({0: pa, 1: pb}))
    rng = random.Random(1)
    for _ in range(20_000):
        oracle_agrees(rng.choice(WORDS_LE_5), random_stated_assignment(rng))
    assert time.monotonic() - started < 60


@criterion(2, "splitting and conjugation-cardinality laws hold on the instance space")
def test_criterion_2_word_laws():
    started = time.monotonic()

    def check(w, s):
        for cut in range(1, len(w.letters)):
            u, v = Word(w.letters[:cut]), Word(w.letters[cut:])
            for n in range(8):
                via_v = eval_word(v, s, n)
                chained = None if via_v is None else eval_word(u, s, via_v)
                assert eval_word(w, s, n) == chained
            if is_hat(w):
                rotated = concat(v, u)
                if len(rotated.letters) != len(w.letters):
                    continue
                a = fix_points(w, s).points
                b = fix_points(rotated, s).points
                assert len(a) == len(b), (w, cut, s)

    tiny_maps = injective_maps(3, 1)
    for w in WORDS_LE_5:
        if len(w.letters) < 2:
            continue
        for pa, pb in itertools.product(tiny_maps, tiny_maps):
            check(w, Assignment({0: pa, 1: pb}))
    rng = random.Random(2)
    splittable = [w for w in WORDS_LE_5 if len(w.letters) >= 2]
    for _ in range(8_000):
        check(rng.choice(splittable), random_stated_assignment(rng))
    assert time.monotonic() - started < 60


@criterion(3, "domain extension certificates are sound against brute force for m < 200")
def test_criterion_3_certificate_soundness():
    rng = random.Random(3)
    checked = 0
    while checked < 500:
        p = sample_condition(
            rng, PosetMode.COFINITARY, [0, 1, 2],
            max_pairs=6, max_words=3, value_range=12, word_len=3,
        )
        if sum(len(pm) for pm in p.s.table.values()) > 6:
            continue
        gen = rng.choice([0, 1, 2])
        n = rng.randrange(24)
        if n in p.s.get(gen).domain():
            continue
        cert = domain_extend(p, gen, n).certificate
        admitted_but_failing = failing_but_not_forbidden = 0
        for m in range(200):
            candidate = Condition(p.s.with_pair(gen, n, m), p.words, p.mode)
            good = not validate(candidate) and leq(candidate, p)
            if _admits(cert, m) and not good:
                admitted_but_failing += 1
            if not good and _admits(cert, m):
                failing_but_not_forbidden += 1
        assert admitted_but_failing == 0, (p.to_json(), gen, n)
        assert failing_but_not_forbidden == 0
        checked += 1


@criterion(4, "strong reductions and canonical extensions extend both inputs")
def test_criterion_4_strong_embedding():
    rng = random.Random(4)
    done = 0
    while done < 500:
        p = sample_condition(
            rng, PosetMode.COFINITARY, [0, 1, 2, 3],
            max_pairs=3, max_words=2, value_range=12, word_len=3,
        )
        keep = frozenset(rng.sample([0, 1, 2, 3], rng.randrange(5)))
        red = strong_reduction(p, keep)
        assert leq(red, strong_restrict(p, keep))
        t = sample_extension(rng, red, avoid=p.occurring() - keep)
        both = canonical_extension(p, t, keep)
        assert leq(both, p) and leq(both, t)
        done += 1


@criterion(5, "frozen fixed point sets never move in the large seeded build")
def test_criterion_5_frozen_fix_at_scale():
    started = time.monotonic()
    report = build(
        PosetMode.COFINITARY, [0, 1, 2, 3],
        point_budget=200, word_budget=4, seed=7,
    )
    assert verify_cofinitary(report) == []
    for w, (stage, recorded) in report.frozen_fix.items():
        now = fix_points(w, report.final.s)
        assert now.exact and now.points == recorded
    for g in (0, 1, 2, 3):
        pm = report.final.s.get(g)
        assert pm.is_injective() and pm.is_functional()
        assert pm.domain() >= set(range(200))
        assert pm.image() >= set(range(200))
    assert time.monotonic() - started < 300


@criterion(6, "hitting extensions are found for every start below 50 within window 64")
def test_criterion_6_hit_density():
    rng = random.Random(6)
    sigma = zshift()
    for _ in range(100):
        p = sample_condition(
            rng, PosetMode.COFINITARY, [0, 1, 2],
            max_pairs=4, max_words=4, value_range=24, word_len=3,
        )
        gen = rng.choice([0, 1, 2])
        for start in range(51):
            found = hit_search(p, gen, sigma, start, 64)
            assert isinstance(found, int), (p.to_json(), gen, start)


@criterion(7, "variant families freeze their pairwise agreement and intersection sets")
def test_criterion_7_variant_families():
    for mode in (PosetMode.ADP, PosetMode.EDF, PosetMode.MAD):
        report = build(
            mode, [0, 1, 2], point_budget=100, word_budget=DISCIPLINES[mode].word_budget, seed=7
        )
        assert verify_variant(report) == [], mode
        for g in (0, 1, 2):
            assert report.final.s.get(g).domain() >= set(range(100))
    # exact recomputation of every pairwise set for the word modes
    for mode in (PosetMode.ADP, PosetMode.EDF):
        report = build(
            mode, [0, 1, 2], point_budget=100, word_budget=DISCIPLINES[mode].word_budget, seed=7
        )
        s = report.final.s
        for w, (_, recorded) in report.frozen_fix.items():
            a, b = w.letters[0].gen, w.letters[1].gen
            agree = {n for n, v in s.get(a).fwd.items() if s.get(b).fwd.get(n) == v}
            assert agree == set(recorded)


@criterion(8, "the surrogate template passes every axiom clause and ranks stably")
def test_criterion_8_surrogate_template():
    started = time.monotonic()
    params = SurrogateParams((2, 3), 2)
    sur = build_surrogate_template(params)
    assert check_axioms(sur.order) == []
    # interval nesting on all relevant pairs (vacuous at two levels: checked
    # non-vacuously on the three-level position order as well)
    for lv in ((2, 3), (2, 3, 4)):
        pp = SurrogateParams(lv, 2)
        positions = enumerate_positions(pp)
        rel = [p for p in positions if is_relevant(p, pp)]
        ivs = list(map(interval_finder(positions), rel))
        for (p, a), (q, b) in itertools.combinations(zip(rel, ivs), 2):
            assert not (a & b) or a <= b or b <= a
        for p, a in zip(rel, ivs):
            for q, b in zip(rel, ivs):
                if p is not q and a < b:
                    assert len(q.seq) <= len(p.seq)
                    assert p.seq[: len(q.seq) - 1] == q.seq[: len(q.seq) - 1]
    first = rank(sur.order)
    again = rank(build_surrogate_template(params).order)
    assert first == again
    assert time.monotonic() - started < 60


@criterion(9, "dominating-pair and localization compatibility trials never fail")
def test_criterion_9_suslin_contracts():
    hech = n_suslin_trial("hechler", 1, 10_000, 9)
    assert hech.failures == 0
    loc = n_suslin_trial("loc", 2, 10_000, 9)
    assert loc.failures == 0


@criterion(10, "every command line run is byte identical on rerun")
def test_criterion_10_cli_determinism(tmp_path, capsys):
    commands = [
        ["build-group", "--mode", "cofinitary", "--generators", "2",
         "--points", "12", "--max-word-len", "2", "--seed", "7"],
        ["build-group", "--mode", "mad", "--generators", "3", "--points", "10",
         "--seed", "2"],
        ["template", "--lambdas", "2,3", "--omega1", "2", "--seed", "1"],
        ["suslin", "--poset", "loc", "--n", "2", "--samples", "300", "--seed", "3"],
        ["ffp-suite", "--mode", "adp", "--samples", "10", "--seed", "9"],
        ["hit-density", "--generators", "3", "--words", "4", "--maxN", "10",
         "--window", "64", "--samples", "10", "--seed", "5"],
    ]
    for k, argv in enumerate(commands):
        a, b = tmp_path / f"{k}-a.json", tmp_path / f"{k}-b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), argv
