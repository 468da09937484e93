"""Slalom-localization and dominating-pair posets with finitely described
infinite parts, the n-compatibility law as a testable property, and the
finite-function-poset axiom suite.

Infinite tails are represented by a closed rule algebra (constant value,
constant finite set, affine) plus finitely many exceptions, which keeps the
extension relations and the localization predicate decidable.

The algebra runs on plain data (the kernel below).  ``FinSeq``, ``Rule``,
``LocCondition`` and ``DomCondition`` are the public, validated surface: the
public functions convert at that edge and call the kernel op.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

from .extension import ContractViolation, canonical_extension, strong_reduction
from .poset import (
    DISCIPLINES,
    Condition,
    Incompatible,
    PosetMode,
    add_words,
    leq,
    merge_disjoint,
    restrict,
    strong_restrict,
    validate,
)
from .sampling import (
    Draws,
    sample_condition,
    sample_extension,
    sample_extra_words,
    sample_fresh_assignment,
)
from .words import format_word


class Undecidable(Exception):
    """The rule algebra cannot settle this comparison."""


Value = Union[int, frozenset[int]]


@dataclass(frozen=True)
class Rule:
    kind: str  # "constant" | "affine"
    value: Value = 0
    slope: int = 0  # the slope of every rule: constants have slope 0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "affine"):
            raise Undecidable(f"unknown rule kind {self.kind!r}")
        if self.kind == "affine" and isinstance(self.value, frozenset):
            raise ValueError("affine rules are for number sequences only")
        if self.kind == "constant" and self.slope != 0:
            raise ValueError("constant rules have slope 0")

    def at(self, i: int) -> Value:
        if self.kind == "constant":
            return self.value
        return self.slope * i + self.value

    def to_json(self) -> dict:
        if self.kind == "constant":
            v = sorted(self.value) if isinstance(self.value, frozenset) else self.value
            return {"kind": "constant", "value": v}
        return {"kind": "affine", "a": self.slope, "b": self.value}

    @staticmethod
    def from_json(obj: dict) -> "Rule":
        if obj["kind"] == "constant":
            v = obj["value"]
            return Rule("constant", frozenset(v) if isinstance(v, list) else v)
        if obj["kind"] == "affine":
            return Rule("affine", obj["b"], obj["a"])
        raise Undecidable(f"unknown rule kind {obj['kind']!r}")


@dataclass(frozen=True)
class FinSeq:
    """A total sequence: finitely many exceptions over a named default rule.

    Exceptions the rule already produces are dropped, so equal sequences have
    equal representations.  The exceptions are also kept as a private dict,
    with the settle index, for lookups; both are derived, not fields.
    """

    rule: Rule
    exceptions: tuple[tuple[int, Value], ...] = ()

    def __post_init__(self) -> None:
        slim = {
            i: v for i, v in sorted(dict(self.exceptions).items()) if self.rule.at(i) != v
        }
        object.__setattr__(self, "exceptions", tuple(slim.items()))
        object.__setattr__(self, "_table", slim)
        object.__setattr__(self, "_settle", max(slim, default=-1) + 1)

    def at(self, i: int) -> Value:
        v = self._table.get(i)
        return self.rule.at(i) if v is None else v

    def settle_index(self) -> int:
        """Past this index only the rule speaks."""
        return self._settle

    def with_exceptions(self, extra: Iterable[tuple[int, Value]]) -> "FinSeq":
        merged = dict(self._table)
        merged.update(extra)
        return FinSeq(self.rule, tuple(merged.items()))

    def to_json(self) -> dict:
        exc = {}
        for j, v in self.exceptions:
            exc[str(j)] = sorted(v) if isinstance(v, frozenset) else v
        return {"exceptions": exc, "default": self.rule.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "FinSeq":
        exc = []
        for j, v in obj.get("exceptions", {}).items():
            exc.append((int(j), frozenset(v) if isinstance(v, list) else v))
        return FinSeq(Rule.from_json(obj["default"]), tuple(exc))


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


def _kseq(s: FinSeq) -> Seq:
    """s as kernel data; negative indices are outside every statement."""
    t = s._table
    if t and min(t) < 0:
        t = {i: v for i, v in t.items() if i >= 0}
    return s.rule.slope, s.rule.value, t


def _finseq(k: Seq, *rules: Rule) -> FinSeq:
    """k at the edge, under the first of rules with k's slope and value: the
    kernel does not keep a rule's kind."""
    rule = next(r for r in rules if r.slope == k[0] and r.value == k[1])
    return FinSeq(rule, tuple(k[2].items()))


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


def _localizes(phi: Seq, f: Seq) -> Optional[int]:
    """Least m with f(n) in phi(n) for every n >= m, or None: past the
    exceptions f reads a rule value the rule test put inside phi's rule."""
    pb, pe = phi[1], phi[2]
    fa, fb, fe = f
    if not isinstance(pb, frozenset):
        raise Undecidable("slalom tails must be constant finite sets")
    if fa != 0:
        return None  # unbounded values escape any finite tail
    if fb not in pb:
        return None
    last_bad = -1
    for n, v in pe.items():
        if n > last_bad and fe.get(n, fb) not in v:
            last_bad = n
    for n, x in fe.items():
        if n > last_bad and n not in pe and x not in pb:
            last_bad = n
    return last_bad + 1


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


def _loc_meet(p: tuple, q: tuple):
    """Common extension of p and q when the prefixes are comparable and the
    pointwise union respects the width bound, first as it is (covers
    p = q), then after committing to twice the longer prefix; Incompatible
    otherwise."""
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


def _dom_meet(p: tuple, q: tuple):
    """Common extension: the longer stem with the pointwise maximum of the
    tails, when the stems are comparable and dominate the other tail."""
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
# the public surface


def seq_le(f: FinSeq, g: FinSeq) -> bool:
    """Pointwise f(i) <= g(i) for all i, exactly."""
    return _le(_kseq(f), _kseq(g))


def _constant_rules(f: FinSeq, g: FinSeq) -> None:
    if f.rule.kind != "constant" or g.rule.kind != "constant":
        raise Undecidable("set sequences need constant tails")


def seq_subset(f: FinSeq, g: FinSeq) -> bool:
    """Pointwise f(i) subseteq g(i) for set sequences, exactly."""
    _constant_rules(f, g)
    return _subset(_kseq(f), _kseq(g))


def seq_max(f: FinSeq, g: FinSeq) -> FinSeq:
    """Pointwise maximum of number sequences, representable inside the
    algebra: the eventually dominant rule with exceptions at the finitely
    many crossings."""
    return _finseq(_max(_kseq(f), _kseq(g)), f.rule, g.rule)


def seq_union(f: FinSeq, g: FinSeq) -> FinSeq:
    """Pointwise union for set sequences with constant tails, exactly."""
    _constant_rules(f, g)
    u = _union(_kseq(f), _kseq(g))
    return _finseq(u, Rule("constant", u[1]))


@dataclass(frozen=True)
class LocCondition:
    """(sigma, phi): a committed slalom prefix with |sigma(i)| = i, and a total
    slalom tail of width at most |sigma| that equals the prefix on the
    committed slots.  (Reading "the prefix sits inside the tail" as slotwise
    containment instead gives the same conditions under the extension
    dynamics, which only ever grow the tail.)
    """

    sigma: tuple[frozenset[int], ...]
    phi: FinSeq

    def __post_init__(self) -> None:
        _loc(self.sigma, _kseq(self.phi))

    def to_json(self) -> dict:
        return {"sigma": [sorted(s) for s in self.sigma], "phi": self.phi.to_json()}


def loc_condition(sigma: Sequence[Iterable[int]], phi: FinSeq) -> LocCondition:
    pref = tuple(frozenset(s) for s in sigma)
    pinned = phi.with_exceptions((i, s) for i, s in enumerate(pref))
    return LocCondition(pref, pinned)


def loc_leq(p: LocCondition, q: LocCondition) -> bool:
    """p extends q: longer committed prefix, pointwise larger slalom."""
    return _loc_le((p.sigma, _kseq(p.phi)), (q.sigma, _kseq(q.phi)))


def loc_meet(p: LocCondition, q: LocCondition):
    """Common extension of p and q when the prefixes are comparable and the
    pointwise union respects the width bound after committing to twice the
    longer prefix; Incompatible otherwise."""
    met = _loc_meet((p.sigma, _kseq(p.phi)), (q.sigma, _kseq(q.phi)))
    if isinstance(met, Incompatible):
        return met
    sigma, phi = met
    return LocCondition(sigma, _finseq(phi, Rule("constant", phi[1])))


def localizes(phi: FinSeq, f: FinSeq) -> Optional[int]:
    """Least m with f(n) in phi(n) for every n >= m; None when there is none."""
    if phi.rule.kind != "constant":
        raise Undecidable("slalom tails must be constant finite sets")
    return _localizes(_kseq(phi), _kseq(f))


@dataclass(frozen=True)
class DomCondition:
    """(stem, f): a committed finite prefix pinned by a total sequence."""

    stem: tuple[int, ...]
    f: FinSeq

    def __post_init__(self) -> None:
        _dom(self.stem, _kseq(self.f))

    def to_json(self) -> dict:
        return {"stem": list(self.stem), "f": self.f.to_json()}


def dom_condition(stem: Sequence[int], f: FinSeq) -> DomCondition:
    stem = tuple(stem)
    return DomCondition(stem, f.with_exceptions(enumerate(stem)))


def dom_leq(p: DomCondition, q: DomCondition) -> bool:
    """p extends q: longer stem, everywhere pointwise at least q's tail."""
    return _dom_le((p.stem, _kseq(p.f)), (q.stem, _kseq(q.f)))


def dom_meet(p: DomCondition, q: DomCondition):
    """Common extension: the longer stem with the pointwise maximum of the
    tails, when the stems are comparable and dominate the other tail."""
    if len(q.stem) > len(p.stem):
        p, q = q, p  # the kernel's order, which keeps p's rule on a tie
    met = _dom_meet((p.stem, _kseq(p.f)), (q.stem, _kseq(q.f)))
    if isinstance(met, Incompatible):
        return met
    stem, f = met
    return DomCondition(stem, _finseq(f, p.f.rule, q.f.rule))


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
    failure_seeds = _split_failures(poset, n, seed, samples, _workers(samples))
    return TrialReport(poset, n, samples, seed, len(failure_seeds), failure_seeds)


def _trial_kernels(poset: str) -> tuple:
    """(draw, meet, le) of a poset, looked up when called, so that a kernel
    op patched in this process is the one a forked chunk runs too."""
    kernels = {"hechler": (_dom_draw, _dom_meet, _dom_le), "loc": (_loc_draw, _loc_meet, _loc_le)}
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


class TrialWorkerLost(RuntimeError):
    """A forked chunk of trials ended without sending its result."""


def _workers(samples: int) -> int:
    """Processes to share the trials: one per CPU this process may run on,
    at most one per CHUNK_FLOOR trials.  1 where os.fork or the CPU set is
    unavailable, and while another thread runs, since a fork copies only
    the calling thread and may copy a lock another one holds."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), samples // CHUNK_FLOOR))


def _split_failures(poset: str, n: int, seed: int, samples: int, workers: int) -> list[int]:
    """_trial_failures over range(samples), as workers contiguous chunks:
    this process runs chunk 0, a forked child each other chunk.  A chunk
    whose child cannot be started (no pids or descriptors left) runs here
    too.  Every child is reaped before the first chunk's error is raised."""
    bounds = [samples * k // workers for k in range(workers + 1)]
    chunks = list(zip(bounds, bounds[1:]))
    children: dict[int, tuple[int, int]] = {}
    outcomes: dict[int, object] = {}
    try:
        for k in range(1, workers):
            try:
                children[k] = _fork_chunk(poset, n, seed, *chunks[k])
            except OSError:
                break
        for k, chunk in enumerate(chunks):
            if k not in children:
                try:
                    outcomes[k] = _trial_failures(poset, n, seed, *chunk)
                except Exception as err:
                    outcomes[k] = err
                    break  # a later chunk cannot fail first
    finally:
        for k, (pid, fd) in children.items():
            outcomes[k] = _collect(pid, fd, chunks[k])
    failure_seeds: list[int] = []
    for k in range(workers):
        got = outcomes[k]
        if isinstance(got, BaseException):
            raise got
        failure_seeds += got
    return failure_seeds


def _fork_chunk(poset: str, n: int, seed: int, start: int, stop: int) -> tuple[int, int]:
    """Fork a child that runs one chunk and writes its outcome to a pipe:
    "F" and the failing trials as decimal text, or "E" and the pickled
    exception; returns (pid, read end).  pickle is imported on the error
    path only: loading it costs the calling process about 0.5 MiB.  The
    child leaves only through os._exit, so it runs no exit handler and
    flushes no buffer it shares with this process."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                failures = _trial_failures(poset, n, seed, start, stop)
                data = memoryview(b"F" + " ".join(map(str, failures)).encode())
            except BaseException as err:  # sent on: the parent raises it
                import pickle

                data = memoryview(b"E" + pickle.dumps(err))
            while data:
                data = data[os.write(w, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _collect(pid: int, fd: int, chunk: tuple[int, int]) -> Union[list[int], BaseException]:
    """A child's outcome: read its pipe to the end, then reap it.  A child
    that exits nonzero, dies by a signal or sends nothing readable gives a
    TrialWorkerLost."""
    parts = []
    try:
        while part := os.read(fd, 1 << 16):
            parts.append(part)
    finally:
        os.close(fd)
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    data = b"".join(parts)
    lost = f"trials {chunk[0]}..{chunk[1] - 1}: worker {pid} "
    if code != 0:
        how = f"died by signal {-code}" if code < 0 else f"exited with status {code}"
        return TrialWorkerLost(lost + how + " without a result")
    if data[:1] == b"F":
        return [int(t) for t in data[1:].split()]
    try:
        import pickle

        return pickle.loads(data[1:])
    except Exception as err:
        return TrialWorkerLost(lost + f"sent an unreadable result ({err!r})")


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
    order decision (used by mutation tests)."""
    order = leq_override if leq_override is not None else leq
    rng = Draws(seed)
    results: list[ClauseResult] = []

    def clause(name: str):
        res = ClauseResult(name, True, 0)
        results.append(res)
        return res

    gens = list(range(5))
    res_restrict = clause("restriction-order")
    res_mono = clause("restriction-monotone")
    res_merge = clause("disjoint-merge")
    res_grow = clause("side-set-growth")
    res_embed = clause("strong-embedding")
    res_guard = clause("freeze-guard")
    for _ in range(samples):
        p = sample_condition(rng, mode, gens)
        keep = frozenset(rng.sample(gens, rng.randrange(len(gens) + 1)))
        weak = restrict(p, keep)
        strong = strong_restrict(p, keep)
        res_restrict.checks += 1
        if res_restrict.passed and not (
            not validate(weak) and not validate(strong) and order(weak, strong)
        ):
            res_restrict.passed = False
            res_restrict.witness = f"p={p.to_json()}, keep={sorted(keep)}"
        q = sample_extension(rng, p)
        res_mono.checks += 1
        if res_mono.passed and not order(strong_restrict(q, keep), strong):
            res_mono.passed = False
            res_mono.witness = f"p={p.to_json()}, q={q.to_json()}, keep={sorted(keep)}"
        t = sample_fresh_assignment(rng, p)
        res_merge.checks += 1
        try:
            merged = merge_disjoint(p, t)
            if res_merge.passed and not order(merged, p):
                res_merge.passed = False
                res_merge.witness = f"p={p.to_json()}, t={t.to_json()}"
        except Exception as err:  # pragma: no cover
            res_merge.passed = False
            res_merge.witness = str(err)
        res_grow.checks += 1
        try:
            grown = add_words(p, p.words | sample_extra_words(rng, p))
            # the superset is tested on its own as well as inside order, so
            # the clause does not rest on the check it tests
            if res_grow.passed and not (grown.words >= p.words and order(grown, p)):
                res_grow.passed = False
                res_grow.witness = f"p={p.to_json()}, E={[format_word(w) for w in grown.words]}"
        except Exception as err:  # pragma: no cover
            res_grow.passed = False
            res_grow.witness = str(err)
        res_embed.checks += 1
        try:
            red = strong_reduction(p, keep)
            if not order(red, strong):
                raise ValueError("reduction does not extend the strong restriction")
            ext = sample_extension(rng, red, avoid=p.occurring() - keep)
            both = canonical_extension(p, ext, keep)
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
    return results


def _freeze_probe(p: Condition) -> Optional[Condition]:
    """A deliberately violating extension: gives some frozen entry a new
    fixed point / agreement / common 1-point.  None when p freezes nothing
    usable."""
    fresh = max(p.s.top, 9) + 1
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
