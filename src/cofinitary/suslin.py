"""Slalom-localization and dominating-pair posets with finitely described
infinite parts, the n-compatibility law as a testable property, and the
finite-function-poset axiom suite.

Infinite tails are represented by a closed rule algebra (constant value,
constant finite set, affine) plus finitely many exceptions, which keeps the
extension relations and the localization predicate decidable.

The algebra runs on plain data, in one kernel below: a sequence is a
(slope, value, exc) tuple and a condition a (stem, seq) or (sigma, seq)
pair.  ``dom_meet`` and ``loc_meet`` are the meets the trials run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, Optional, Union

from . import extension, poset, sampling
from .extension import ContractViolation
from .poset import DISCIPLINES, Condition, Incompatible, PosetMode, merge_disjoint, restrict
from .sampling import (
    Draws,
    sample_extra_words,
    sample_fresh_assignment,
    split_samples,
    workers,
)
from .words import format_word


class Undecidable(Exception):
    """The rule algebra cannot settle this comparison."""


Value = Union[int, frozenset[int]]


# ---------------------------------------------------------------------------
# the kernel
#
# A sequence is (slope, value, exc): the rule slope*i + value (slope 0 for a
# constant and for every set rule) and an unordered dict index -> value of
# the entries the rule does not produce, all at nonnegative indices.  A
# condition is (stem, seq) or (sigma, seq).  Kernel ops never mutate their
# inputs.
#
# Every statement is decided by its probes: the exception indices of its
# sequences and the least index that is none of them.  At every other index
# each sequence reads its rule, two rules differ there by one affine function
# of i (constant for set rules), so over those indices the difference is
# largest at the least of them unless it grows, which the slopes decide.
# The statements below do not depend on the order of the probes, so they
# read the exception dicts as they are.  A message names the first bad probe
# (the exceptions in index order, then the least rule-only index) and is
# computed on the failure path only.

Seq = tuple  # (slope, value, exc)


def _with(k: Seq, items: Iterable[tuple[int, Value]]) -> Seq:
    """k with items written in order; an entry the rule produces is dropped."""
    a, b, e = k
    exc = dict(e)
    for i, v in items:
        if v == (a * i + b if a else b):
            exc.pop(i, None)
        else:
            exc[i] = v
    return a, b, exc


def _le(f: Seq, g: Seq) -> bool:
    """Pointwise f(i) <= g(i) for all i: every exception, the least
    rule-only index, and the slopes for a difference that grows."""
    fa, fb, fe = f
    ga, gb, ge = g
    if isinstance(fb, frozenset) or isinstance(gb, frozenset):
        raise Undecidable("pointwise order is for number sequences")
    for i, v in fe.items():
        w = ge.get(i)
        if v > (ga * i + gb if w is None else w):
            return False
    for i, w in ge.items():
        if i not in fe and fa * i + fb > w:
            return False
    i = 0
    while i in fe or i in ge:
        i += 1
    if fa * i + fb > ga * i + gb:
        return False
    return fa < ga if fa != ga else fb <= gb


def _max(f: Seq, g: Seq) -> Seq:
    """Pointwise maximum: the eventually dominant rule wins (f's on a tie),
    with every exception index and every index up to the crossing set
    explicitly; past the crossing the dominant rule is the larger (with
    equal slopes it is never smaller)."""
    fa, fb, fe = f
    ga, gb, ge = g
    if isinstance(fb, frozenset) or isinstance(gb, frozenset):
        raise Undecidable("pointwise maximum is for number sequences")
    if (ga < fa) if ga != fa else (gb <= fb):  # g is eventually at most f
        da, db, oa, ob = fa, fb, ga, gb
    else:
        da, db, oa, ob = ga, gb, fa, fb
    cross = max(0, (ob - db) // (da - oa) + 1) if da > oa else 0
    exc = {}
    for i in chain(fe, ge, range(cross + 1)):
        v = fe.get(i)
        if v is None:
            v = fa * i + fb
        w = ge.get(i)
        if w is None:
            w = ga * i + gb
        if w > v:
            v = w
        if v != da * i + db:
            exc[i] = v
    return da, db, exc


def _subset(f: Seq, g: Seq) -> bool:
    """Pointwise f(i) subseteq g(i) for set sequences: set rules are
    constant, so the rules' own test covers every rule-only index."""
    fb, fe = f[1], f[2]
    gb, ge = g[1], g[2]
    if not fb <= gb:
        return False
    for i, v in fe.items():
        if not v <= ge.get(i, gb):
            return False
    for i, w in ge.items():
        if i not in fe and not fb <= w:
            return False
    return True


def _union(f: Seq, g: Seq) -> Seq:
    """Pointwise union of set sequences: the union of the rules at every
    rule-only index."""
    fb, fe = f[1], f[2]
    gb, ge = g[1], g[2]
    tail = fb | gb
    exc = {}
    for i, v in fe.items():
        u = v | ge.get(i, gb)
        if u != tail:
            exc[i] = u
    for i, w in ge.items():
        if i not in fe:
            u = fb | w
            if u != tail:
                exc[i] = u
    return 0, tail, exc


def _pad(need: Iterable[int], size: int) -> frozenset[int]:
    """need, filled up to size values with the least naturals not in it."""
    pad = set(need)
    fresh = 0
    while len(pad) < size:
        pad.add(fresh)
        fresh += 1
    return frozenset(pad)


# -- slalom conditions (sigma, phi) -----------------------------------------


def _loc_fault(sigma: tuple, phi: Seq) -> Optional[str]:
    """Why (sigma, phi) is no slalom condition, at its first bad probe; None
    when it is one.  Every slot of phi must be a set of at most |sigma|
    values (past the exceptions phi reads its rule, a constant set),
    sigma(i) must have i values, and phi must equal sigma on it."""
    width = len(sigma)
    b, e = phi[1], phi[2]
    if not isinstance(b, frozenset) or len(b) > width:
        return _tail_fault(phi, width)
    for v in e.values():
        if not isinstance(v, frozenset) or len(v) > width:
            return _tail_fault(phi, width)
    for i, s in enumerate(sigma):
        if len(s) != i:
            return f"slalom prefix slot {i} has size {len(s)}, wants {i}"
        if e.get(i, b) != s:
            return f"tail does not pin the prefix at {i}"
    return None


def _tail_fault(phi: Seq, width: int) -> Optional[str]:
    a, b, e = phi
    free = 0
    while free in e:
        free += 1
    for i in sorted(e) + [free]:
        v = e[i] if i in e else a * i + b if a else b
        if not isinstance(v, frozenset):
            return f"slalom tails must be finite sets; slot {i} holds {v!r}"
        if len(v) > width:
            return f"tail width at {i} exceeds {width}"
    return None


def _loc(sigma: tuple, phi: Seq) -> tuple:
    fault = _loc_fault(sigma, phi)
    if fault is not None:
        raise ValueError(fault)
    return sigma, phi


def _loc_le(p: tuple, q: tuple) -> bool:
    """p extends q: longer committed prefix, pointwise larger slalom."""
    sigma, tau = p[0], q[0]
    return len(sigma) >= len(tau) and sigma[: len(tau)] == tau and _subset(q[1], p[1])


def loc_meet(p: tuple, q: tuple):
    """Common extension (sigma, seq) of slalom conditions p and q when the
    prefixes are comparable and the pointwise union respects the width
    bound, first as it is (covers p = q), then after committing to twice the
    longer prefix; Incompatible otherwise."""
    if len(q[0]) > len(p[0]):
        p, q = q, p
    sigma = p[0]
    if sigma[: len(q[0])] != q[0]:
        return Incompatible("committed prefixes disagree")
    union = _union(p[1], q[1])
    if _loc_fault(sigma, union) is None:
        return sigma, union
    # commit to twice the length; the fault check rejects a slot that needs
    # more values than it holds and a tail wider than the new commitment
    b, e = union[1], union[2]
    n = len(sigma)
    new = tuple(_pad(e.get(i, b), i) for i in range(n, 2 * n))
    out = sigma + new, _with(union, enumerate(new, n))
    fault = _loc_fault(*out)
    if fault is not None:
        return Incompatible(fault)
    if not (_loc_le(out, p) and _loc_le(out, q)):
        return Incompatible("constructed meet fails the order check")
    return out


# -- dominating pairs (stem, f) ---------------------------------------------


def _dom(stem: tuple, f: Seq) -> tuple:
    a, b, e = f
    for i, v in enumerate(stem):
        w = e.get(i)
        if (a * i + b if w is None else w) != v:
            raise ValueError(f"tail does not pin the stem at {i}")
    return stem, f


def _dom_le(p: tuple, q: tuple) -> bool:
    """p extends q: longer stem, everywhere pointwise at least q's tail."""
    s, t = p[0], q[0]
    return len(s) >= len(t) and s[: len(t)] == t and _le(q[1], p[1])


def dom_meet(p: tuple, q: tuple):
    """Common extension (stem, seq) of dominating pairs p and q: the longer
    stem with the pointwise maximum of the tails, when the stems are
    comparable and dominate the other tail; Incompatible otherwise."""
    if len(q[0]) > len(p[0]):
        p, q = q, p
    stem = p[0]
    if stem[: len(q[0])] != q[0]:
        return Incompatible("stems disagree")
    a, b, e = q[1]
    for i, v in enumerate(stem):
        w = e.get(i)
        if (a * i + b if w is None else w) > v:
            return Incompatible(f"other tail exceeds the stem at {i}")
    out = _dom(stem, _max(p[1], q[1]))
    if not (_dom_le(out, p) and _dom_le(out, q)):
        return Incompatible("constructed meet fails the order check")
    return out


# ---------------------------------------------------------------------------
# n-compatibility trials, on kernel data


def _random_number_seq(rng: random.Random, lo_len: int = 0) -> Seq:
    if rng.choice(("constant", "constant", "affine")) == "constant":
        rule = 0, rng.randrange(8)
    else:
        b, a = rng.randrange(4), rng.randrange(3)
        rule = a, b
    exc = [(rng.randrange(lo_len, lo_len + 6), rng.randrange(8)) for _ in range(rng.randrange(3))]
    return _with((*rule, {}), exc)


def _extend_dom(rng: random.Random, q: tuple) -> tuple:
    """A random extension of q: longer stem, pointwise bumped tail."""
    stem, f = q
    a, b, e = f
    n = len(stem)
    s = stem + tuple(e.get(i, a * i + b) + rng.randrange(3) for i in range(n, n + rng.randrange(4)))
    m = len(s)
    bumps = [(i, e.get(i, a * i + b) + rng.randrange(3)) for i in range(m, m + rng.randrange(4))]
    p = _dom(s, _with(f, chain(enumerate(s), bumps)))
    if not _dom_le(p, q):
        raise ContractViolation("random dominating-pair extension fails the order check")
    return p


def _random_dom_pair(rng: random.Random) -> tuple[tuple, tuple]:
    """(p, q) with p <= q, randomly built."""
    t = tuple(rng.randrange(6) for _ in range(rng.randrange(4)))
    q = _dom(t, _with(_random_number_seq(rng), enumerate(t)))
    return _extend_dom(rng, q), q


def _random_set_seq(rng: random.Random, width: int) -> Seq:
    tail = frozenset(rng.sample(range(10), rng.randrange(min(width, 4) + 1)))
    exc = [
        (rng.randrange(8), frozenset(rng.sample(range(10), rng.randrange(width + 1))))
        for _ in range(rng.randrange(2))
    ]
    return _with((0, tail, {}), exc)


def _extend_loc(rng: random.Random, q: tuple) -> tuple:
    """A random extension of q: more committed slots, pointwise grown tail."""
    tau, phi = q
    b, e = phi[1], phi[2]
    n = len(tau)
    sigma = tau + tuple(_pad(e.get(i, b), i) for i in range(n, n + rng.randrange(3)))
    width = len(sigma)
    extra = []
    for i in range(width, width + rng.randrange(3)):
        v = e.get(i, b).union(rng.sample(range(12), rng.randrange(2)))
        if len(v) <= width:
            extra.append((i, v))
    p = _loc(sigma, _with(phi, chain(enumerate(sigma), extra)))
    if not _loc_le(p, q):
        raise ContractViolation("random localization extension fails the order check")
    return p


def _random_loc_pair(rng: random.Random) -> tuple[tuple, tuple]:
    tau_len = rng.randrange(4)
    tau = tuple(frozenset(rng.sample(range(12), i)) for i in range(tau_len))
    q = _loc(tau, _with(_random_set_seq(rng, tau_len), enumerate(tau)))
    return _extend_loc(rng, q), q


def _dom_draw(rng: random.Random, n: int) -> tuple[tuple, tuple, tuple]:
    """One hechler trial's conditions: p <= q, and a sibling of q whose tail
    agrees with q's on n times p's stem length."""
    p, q = _random_dom_pair(rng)
    stem, (a, b, e) = q
    agree = ((i, e.get(i, a * i + b)) for i in range(n * len(p[0])))
    return p, q, _dom(stem, _with(_random_number_seq(rng), chain(agree, enumerate(stem))))


def _loc_draw(rng: random.Random, n: int) -> tuple[tuple, tuple, tuple]:
    """One loc trial's conditions: p <= q, and a sibling of q whose slalom
    agrees with q's on n times p's committed length."""
    p, q = _random_loc_pair(rng)
    tau, (_, b, e) = q
    agree = ((i, e.get(i, b)) for i in range(n * len(p[0])))
    return p, q, _loc(tau, _with(_random_set_seq(rng, len(tau)), chain(agree, enumerate(tau))))


@dataclass
class TrialReport:
    poset: str
    n: int
    samples: int
    seed: int
    failures: int
    failure_seeds: list[int]

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "poset": self.poset,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "failures": self.failures,
            "failure_seeds": self.failure_seeds[:100],
        }


def n_suslin_trial(poset: str, n: int, samples: int, seed: int) -> TrialReport:
    """Randomized law check: p <= q and a sibling of q agreeing with q's tail
    on n times the committed length must admit a common extension via the
    meet constructor.  Returns the failure count (0 is the contract for the
    dominating pair with n = 1 and localization with n = 2).

    Each trial draws from seed * 1_000_003 + trial; reseeding one generator
    sets the state a new Random(x) starts from.  So the trials are
    independent: they run in contiguous chunks, one per usable CPU and at
    most one per CHUNK_FLOOR trials, chunk 0 in this process and each other
    chunk in a forked child.  The chunks' failures joined in chunk order are
    the serial run's, and an error is the one the serial run raises first."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _trial_kernels(poset)  # an unknown poset is rejected before any fork
    chunks = split_samples(
        partial(_trial_failures, poset, n, seed), samples, workers(samples, CHUNK_FLOOR), "trials"
    )
    failure_seeds = list(chain.from_iterable(chunks))
    return TrialReport(poset, n, samples, seed, len(failure_seeds), failure_seeds)


def _trial_kernels(poset: str) -> tuple:
    """(draw, meet, le) of a poset, looked up when called, so that a kernel
    op patched in this process is the one a forked chunk runs too."""
    kernels = {"hechler": (_dom_draw, dom_meet, _dom_le), "loc": (_loc_draw, loc_meet, _loc_le)}
    if poset not in kernels:
        raise ValueError(f"unknown poset {poset!r}")
    return kernels[poset]


def _trial_failures(poset: str, n: int, seed: int, start: int, stop: int) -> list[int]:
    """The failing trials among start, ..., stop - 1, in order."""
    draw, meet, le = _trial_kernels(poset)
    rng = Draws()
    failure_seeds: list[int] = []
    for t in range(start, stop):
        rng.seed(seed * 1_000_003 + t)
        p, _, sib = draw(rng, n)
        met = meet(p, sib)
        if isinstance(met, Incompatible) or not (le(met, p) and le(met, sib)):
            failure_seeds.append(t)
    return failure_seeds


# Fewest trials worth a forked chunk.  1,000 trials take about 45 ms;
# starting a child, collecting its result and reaping it about 2 ms.  A 2-way
# split was no faster below about 250 trials a chunk.
CHUNK_FLOOR = 1000


# ---------------------------------------------------------------------------
# finite-function-poset axiom suite


@dataclass
class ClauseResult:
    name: str
    passed: bool
    checks: int
    witness: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "witness": self.witness,
        }


FFP_CLAUSES = (
    "restriction-order",
    "restriction-monotone",
    "disjoint-merge",
    "side-set-growth",
    "strong-embedding",
    "freeze-guard",
)

# Fewest samples worth a forked chunk of the suite.  One sample takes about
# 0.4-0.6 ms; starting a child, collecting its result and reaping it about
# 2 ms.
FFP_CHUNK_FLOOR = 100


def ffp_axiom_suite(
    mode: PosetMode,
    samples: int,
    seed: int,
    *,
    leq_override=None,
) -> list[ClauseResult]:
    """Property-check the finite-function-poset clauses (restrictions and
    extensions), the reduction/extension contract, and a freeze guard, on
    sampled conditions of the given mode.  leq_override(p, q) swaps in a different
    order decision (used by mutation tests).

    Sample i draws from seed * 1_000_003 + i, as the Suslin trials do, so
    the samples are independent and run in contiguous chunks, one per usable
    CPU and at most one per FFP_CHUNK_FLOOR samples.  The chunks merge in
    sample order: checks add up, and a clause's witness is its first failing
    sample's, the serial run's."""
    run = partial(_suite_chunk, mode, seed, leq_override)
    results = [ClauseResult(name, True, 0) for name in FFP_CLAUSES]
    for chunk in split_samples(run, samples, workers(samples, FFP_CHUNK_FLOOR)):
        for res, (passed, checks, witness) in zip(results, chunk):
            res.checks += checks
            if res.passed and not passed:
                res.passed, res.witness = False, witness
    return results


def _suite_chunk(mode: PosetMode, seed: int, leq_override, start: int, stop: int) -> list[list]:
    """The suite over samples start, ..., stop - 1: [passed, checks, witness]
    per clause, in FFP_CLAUSES order, each witness its first failing
    sample's."""
    order = leq_override if leq_override is not None else poset.leq
    rng = Draws()
    results = [ClauseResult(name, True, 0) for name in FFP_CLAUSES]
    res_restrict, res_mono, res_merge, res_grow, res_embed, res_guard = results
    gens = list(range(5))
    for i in range(start, stop):
        rng.seed(seed * 1_000_003 + i)
        p = sampling.sample_condition(rng, mode, gens)
        keep = frozenset(rng.sample(gens, rng.randrange(len(gens) + 1)))
        weak = restrict(p, keep)
        strong = poset.strong_restrict(p, keep)
        res_restrict.checks += 1
        if res_restrict.passed and not (
            not poset.validate(weak) and not poset.validate(strong) and order(weak, strong)
        ):
            res_restrict.passed = False
            res_restrict.witness = f"p={p.to_json()}, keep={sorted(keep)}"
        q = sampling.sample_extension(rng, p)
        res_mono.checks += 1
        if res_mono.passed and not order(poset.strong_restrict(q, keep), strong):
            res_mono.passed = False
            res_mono.witness = f"p={p.to_json()}, q={q.to_json()}, keep={sorted(keep)}"
        t = sample_fresh_assignment(rng, p)
        res_merge.checks += 1
        try:
            merged = merge_disjoint(p, t)
            if res_merge.passed and not order(merged, p):
                res_merge.passed = False
                res_merge.witness = f"p={p.to_json()}, t={t.to_json()}"
        except Exception as err:
            if res_merge.passed:
                res_merge.passed = False
                res_merge.witness = str(err)
        res_grow.checks += 1
        try:
            grown = poset.add_words(p, p.words | sample_extra_words(rng, p))
            # the superset is tested on its own as well as inside order, so
            # the clause does not rest on the check it tests
            if res_grow.passed and not (grown.words >= p.words and order(grown, p)):
                res_grow.passed = False
                res_grow.witness = f"p={p.to_json()}, E={[format_word(w) for w in grown.words]}"
        except Exception as err:
            if res_grow.passed:
                res_grow.passed = False
                res_grow.witness = str(err)
        res_embed.checks += 1
        try:
            red = extension.strong_reduction(p, keep)
            if not order(red, strong):
                raise ValueError("reduction does not extend the strong restriction")
            ext = sampling.sample_extension(rng, red, avoid=p.occurring() - keep)
            both = extension.canonical_extension(p, ext, keep)
            if res_embed.passed and not (order(both, p) and order(both, ext)):
                res_embed.passed = False
                res_embed.witness = f"p={p.to_json()}, keep={sorted(keep)}"
        except Exception as err:
            if res_embed.passed:
                res_embed.passed = False
                res_embed.witness = f"{err} (p={p.to_json()}, keep={sorted(keep)})"
        res_guard.checks += 1
        probe = _freeze_probe(p)
        if probe is not None and res_guard.passed:
            if order(probe, p):
                res_guard.passed = False
                res_guard.witness = f"p={p.to_json()}, probe={probe.to_json()}"
    return [[r.passed, r.checks, r.witness] for r in results]


def _freeze_probe(p: Condition) -> Optional[Condition]:
    """A deliberately violating extension: gives some frozen entry a new
    fixed point / agreement / common 1-point.  None when p freezes nothing
    usable."""
    fresh = max(p.s.summary()[0] | {9}) + 1
    shape = DISCIPLINES[p.mode].shape
    words = p.sorted_words()
    if shape == "letter":
        if len(words) < 2:
            return None
        a, b = words[0].letters[0].gen, words[1].letters[0].gen
        s = p.s.with_pair(a, fresh, 1).with_pair(b, fresh, 1)
        return p.with_s(s)
    if shape == "pair":
        if not words:
            return None
        a, b = words[0].letters[0].gen, words[0].letters[1].gen
        s = p.s.with_pair(a, fresh, fresh + 1).with_pair(b, fresh, fresh + 1)
        return p.with_s(s)
    for w in words:
        if len(w.letters) == 1:
            return p.with_s(p.s.with_pair(w.letters[0].gen, fresh, fresh))
    for w in words:
        if len(w.letters) == 2 and len({l.gen for l in w.letters}) == 2:
            lo, hi = w.letters
            if lo.sign == 1 and hi.sign == 1:
                # w = x y: send fresh -> fresh through both letters
                s = p.s.with_pair(hi.gen, fresh, fresh + 1).with_pair(lo.gen, fresh + 1, fresh)
                return p.with_s(s)
    return None
