"""The plain-data kernel of cofinitary.suslin against the reference algebra
over FinSeq objects (tests/suslin_reference.py), on draws from the trial
samplers.  The window checks in test_suslin.py check the same kernel ops
against a brute-force scan."""

import random

import pytest

import suslin_reference as ref
from suslin_reference import FinSeq, finseq
from cofinitary import suslin
from cofinitary.poset import Incompatible
from cofinitary.suslin import Undecidable

DRAWS = 10_000  # per poset: 20,000 trial draws in all


def to_ref(c, cls):
    return cls(c[0], finseq(c[1]))


def norm(x):
    """One form for kernel and reference results."""
    if isinstance(x, FinSeq):
        return ("seq", x.rule.slope, x.rule.value, x.exceptions)
    if isinstance(x, (ref.Loc, ref.Dom)):
        return ("cond", x[0], norm(x[1]))
    if isinstance(x, tuple) and len(x) == 3 and isinstance(x[2], dict):
        return ("seq", x[0], x[1], tuple(sorted(x[2].items())))
    if isinstance(x, tuple):
        return ("cond", x[0], norm(x[1]))
    return x


def outcome(fn, *args):
    try:
        return norm(fn(*args))
    except (ValueError, Undecidable) as err:
        return ("raises", type(err).__name__, str(err))


def _hechler_cases(rng, p, q, sib):
    f = suslin._random_number_seq(rng, rng.randrange(6))
    g = suslin._random_number_seq(rng, rng.randrange(6))
    # a condition under a prefix of p's stem, so the meet's stem test can fail
    cut = p[0][: rng.randrange(len(p[0]) + 1)]
    r = suslin._dom(cut, suslin._with(g, enumerate(cut)))
    rp, rq, rsib, rr = (to_ref(c, ref.Dom) for c in (p, q, sib, r))
    rf, rg = finseq(f), finseq(g)
    return [
        ("le", suslin._le, ref.seq_le, [(f, g), (g, f)], [(rf, rg), (rg, rf)]),
        ("max", suslin._max, ref.seq_max, [(f, g), (g, f)], [(rf, rg), (rg, rf)]),
        ("dom_le", suslin._dom_le, ref.dom_leq, [(p, q), (q, p), (sib, p)],
         [(rp, rq), (rq, rp), (rsib, rp)]),
        ("dom_meet", suslin.dom_meet, ref.dom_meet, [(p, sib), (sib, q), (p, r)],
         [(rp, rsib), (rsib, rq), (rp, rr)]),
        ("dom", suslin._dom, ref.dom, [(p[0], sib[1]), (sib[0], f)],
         [(rp.stem, rsib.f), (rsib.stem, rf)]),
    ]


def _loc_cases(rng, p, q, sib):
    width = rng.randrange(5)
    f, g = suslin._random_set_seq(rng, width), suslin._random_set_seq(rng, width)
    h = suslin._random_number_seq(rng, rng.randrange(6))
    if rng.random() < 0.5 and h[0] == 0:
        # a tail that holds h's rule value, so thresholds other than None show
        f = suslin._with((0, f[1] | {h[1]}, {}), f[2].items())
    rp, rq, rsib = (to_ref(c, ref.Loc) for c in (p, q, sib))
    rf, rg, rh = finseq(f), finseq(g), finseq(h)
    u, ru = suslin._union(p[1], sib[1]), ref.seq_union(rp.phi, rsib.phi)
    return [
        ("subset", suslin._subset, ref.seq_subset, [(f, g), (g, f)], [(rf, rg), (rg, rf)]),
        ("union", suslin._union, ref.seq_union, [(f, g)], [(rf, rg)]),
        ("localizes", ref.plain_localizes, ref.localizes, [(f, h), (sib[1], h)],
         [(rf, rh), (rsib.phi, rh)]),
        ("loc_le", suslin._loc_le, ref.loc_leq, [(p, q), (q, p), (sib, p)],
         [(rp, rq), (rq, rp), (rsib, rp)]),
        ("loc_meet", suslin.loc_meet, ref.loc_meet, [(p, sib), (sib, q)],
         [(rp, rsib), (rsib, rq)]),
        ("loc", suslin._loc, ref.loc, [(p[0], u), (sib[0], f), (q[0], h)],
         [(rp.sigma, ru), (rsib.sigma, rf), (rq.sigma, rh)]),
    ]


def kind(x):
    if isinstance(x, Incompatible):
        return "incompatible"
    if isinstance(x, tuple):
        return x[0]
    if x is None or x is True or x is False:
        return x
    return "zero" if x == 0 else "later"


def mismatches(poset: str, draws: int, seed: int) -> tuple[list[str], dict]:
    """Every kernel op against the reference on draws from the trial
    samplers, each draw also checked against the reference samplers; returns
    the mismatches and a tally of the outcomes per op."""
    kernel_draw, cases = {
        "hechler": (suslin._dom_draw, _hechler_cases),
        "loc": (suslin._loc_draw, _loc_cases),
    }[poset]
    cls = ref.Dom if poset == "hechler" else ref.Loc
    rng = random.Random(seed)
    bad: list[str] = []
    tally: dict = {}
    for t in range(draws):
        n = 1 + t % 2
        state = rng.getstate()
        drawn = kernel_draw(rng, n)
        twin = random.Random()
        twin.setstate(state)
        if [norm(to_ref(c, cls)) for c in drawn] != [norm(c) for c in ref.draw(poset, twin, n)]:
            bad.append(f"draw {t}: the samplers differ")
        for name, op, ref_op, args, ref_args in cases(rng, *drawn):
            for a, ra in zip(args, ref_args):
                got, want = outcome(op, *a), outcome(ref_op, *ra)
                if got != want:
                    bad.append(f"draw {t} {name}{a}: kernel {got}, reference {want}")
                tally[name, kind(want)] = tally.get((name, kind(want)), 0) + 1
    return bad, tally


# the outcomes each op must show on the draws, so that no branch goes unchecked
OUTCOMES = {
    "hechler": {
        "le": {True, False}, "max": {"seq"}, "dom_le": {True, False},
        "dom_meet": {"cond", "incompatible"}, "dom": {"cond", "raises"},
    },
    "loc": {
        "subset": {True, False}, "union": {"seq"}, "localizes": {None, "zero", "later"},
        "loc_le": {True, False}, "loc_meet": {"cond", "incompatible"}, "loc": {"cond", "raises"},
    },
}


@pytest.mark.parametrize("poset", ["hechler", "loc"])
def test_kernel_matches_reference(poset):
    bad, tally = mismatches(poset, DRAWS, 1)
    assert not bad, bad[:5]
    for name, kinds in OUTCOMES[poset].items():
        assert {k for op, k in tally if op == name} == kinds, (name, tally)


@pytest.mark.parametrize(
    "poset, n, seed", [("hechler", 1, 3), ("hechler", 2, 7), ("loc", 1, 1009), ("loc", 2, 11)]
)
def test_trial_matches_reference(poset, n, seed):
    report = suslin.n_suslin_trial(poset, n, 500, seed)
    assert report.failure_seeds == ref.n_suslin_trial(poset, n, 500, seed)


def _le_without_the_free_probe(f, g):
    fa, fb, fe = f
    ga, gb, ge = g
    for i, v in fe.items():
        if v > (ge[i] if i in ge else ga * i + gb):
            return False
    for i, w in ge.items():
        if i not in fe and fa * i + fb > w:
            return False
    return fa < ga if fa != ga else fb <= gb


def test_mutant_le_is_caught(monkeypatch):
    # skipping the least rule-only probe misses a rule-only gap between
    # exceptions, the bug class seq_le once had
    monkeypatch.setattr(suslin, "_le", _le_without_the_free_probe)
    bad, _ = mismatches("hechler", DRAWS // 20, 1)
    assert any(" le(" in b for b in bad), bad[:5]
