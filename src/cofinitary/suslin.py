"""Slalom-localization and dominating-pair posets with finitely described
infinite parts, the n-compatibility law as a testable property, and the
finite-function-poset axiom suite.

Infinite tails are represented by a closed rule algebra (constant value,
constant finite set, affine) plus finitely many exceptions, which keeps the
extension relations and the localization predicate decidable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .evaluation import EMPTY_GROUND, GroundRep
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
from .words import format_word


class Undecidable(Exception):
    """The rule algebra cannot settle this comparison."""


Value = Union[int, frozenset[int]]


@dataclass(frozen=True)
class Rule:
    kind: str  # "constant" | "affine"
    value: Value = 0
    slope: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "affine"):
            raise Undecidable(f"unknown rule kind {self.kind!r}")
        if self.kind == "affine" and isinstance(self.value, frozenset):
            raise ValueError("affine rules are for number sequences only")

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


def constant_seq(value: Value) -> FinSeq:
    return FinSeq(Rule("constant", value))


def _probe_indices(*seqs: FinSeq, floor: int = 0) -> list[int]:
    idx = {floor}
    for s in seqs:
        idx.update(s._table)
        idx.add(s._settle)
    return sorted(i for i in idx if i >= 0)


def _eventually_le(f: FinSeq, g: FinSeq) -> bool:
    """f(i) <= g(i) for all i past every exception; exact for the algebra."""
    rf, rg = f.rule, g.rule
    sf = rf.slope if rf.kind == "affine" else 0
    sg = rg.slope if rg.kind == "affine" else 0
    if sf != sg:
        return sf < sg
    return rf.value <= rg.value


def seq_le(f: FinSeq, g: FinSeq) -> bool:
    """Pointwise f(i) <= g(i) for all i, decided on exceptions plus the rules."""
    if isinstance(f.rule.value, frozenset) or isinstance(g.rule.value, frozenset):
        raise Undecidable("pointwise order is for number sequences")
    for i in _probe_indices(f, g):
        if f.at(i) > g.at(i):
            return False
    return _eventually_le(f, g)


def seq_subset(f: FinSeq, g: FinSeq) -> bool:
    """Pointwise f(i) subseteq g(i) for set sequences."""
    for i in _probe_indices(f, g):
        if not f.at(i) <= g.at(i):
            return False
    if f.rule.kind != "constant" or g.rule.kind != "constant":
        raise Undecidable("set sequences need constant tails")
    return f.rule.value <= g.rule.value


def seq_max(f: FinSeq, g: FinSeq) -> FinSeq:
    """Pointwise maximum, representable inside the algebra: the eventually
    dominant rule wins, with exceptions at the finitely many crossings."""
    dominant, other = (f, g) if _eventually_le(g, f) else (g, f)
    cross = 0
    df, dg = dominant.rule, other.rule
    sd = df.slope if df.kind == "affine" else 0
    so = dg.slope if dg.kind == "affine" else 0
    if sd > so:
        # crossing index: beyond it the dominant rule is at least the other
        cross = max(0, (dg.value - df.value) // (sd - so) + 1)
    exc: dict[int, Value] = {}
    for i in _probe_indices(f, g, floor=0):
        exc[i] = max(f.at(i), g.at(i))
    for i in range(cross + 1):
        exc[i] = max(f.at(i), g.at(i))
    return FinSeq(dominant.rule, tuple(exc.items()))  # drops what the rule produces


def seq_union(f: FinSeq, g: FinSeq) -> FinSeq:
    """Pointwise union for set sequences with constant tails."""
    if f.rule.kind != "constant" or g.rule.kind != "constant":
        raise Undecidable("set sequences need constant tails")
    exc: dict[int, Value] = {}
    for i in _probe_indices(f, g):
        exc[i] = f.at(i) | g.at(i)
    tail = f.rule.value | g.rule.value
    slim = tuple((j, v) for j, v in exc.items() if v != tail)
    return FinSeq(Rule("constant", tail), slim)


# ---------------------------------------------------------------------------
# localization


@dataclass(frozen=True)
class LocCondition:
    """(sigma, phi): a committed slalom prefix with |sigma(i)| = i, and a total
    slalom tail of width at most |sigma|.

    pinned selects the reading of "the prefix sits inside the tail": the tail
    equals the prefix on committed slots (default), or merely contains it
    slotwise.  The two readings coincide under the extension dynamics, which
    only ever grow the tail.
    """

    sigma: tuple[frozenset[int], ...]
    phi: FinSeq
    pinned: bool = True

    def __post_init__(self) -> None:
        for i, s in enumerate(self.sigma):
            if len(s) != i:
                raise ValueError(f"slalom prefix slot {i} has size {len(s)}, wants {i}")
        for i, s in enumerate(self.sigma):
            if self.pinned and self.phi.at(i) != s:
                raise ValueError(f"tail does not pin the prefix at {i}")
            if not self.pinned and not s <= self.phi.at(i):
                raise ValueError(f"tail does not contain the prefix at {i}")
        width = len(self.sigma)
        for i in _probe_indices(self.phi):
            if len(self.phi.at(i)) > width:
                raise ValueError(f"tail width at {i} exceeds {width}")
        if self.phi.rule.kind != "constant" or not isinstance(self.phi.rule.value, frozenset):
            raise ValueError("slalom tails must be constant finite sets")
        if len(self.phi.rule.value) > width:
            raise ValueError("tail rule width exceeds the prefix length")

    def to_json(self) -> dict:
        return {"sigma": [sorted(s) for s in self.sigma], "phi": self.phi.to_json()}


def loc_condition(sigma: Sequence[Iterable[int]], phi: FinSeq) -> LocCondition:
    pref = tuple(frozenset(s) for s in sigma)
    pinned = phi.with_exceptions((i, s) for i, s in enumerate(pref))
    return LocCondition(pref, pinned)


def loc_leq(p: LocCondition, q: LocCondition) -> bool:
    """p extends q: longer committed prefix, pointwise larger slalom."""
    if len(p.sigma) < len(q.sigma) or p.sigma[: len(q.sigma)] != q.sigma:
        return False
    return seq_subset(q.phi, p.phi)


def loc_meet(p: LocCondition, q: LocCondition):
    """Common extension of p and q when the prefixes are comparable and the
    pointwise union respects the width bound after committing to twice the
    longer prefix; Incompatible otherwise."""
    if len(q.sigma) > len(p.sigma):
        p, q = q, p
    if p.sigma[: len(q.sigma)] != q.sigma:
        return Incompatible("committed prefixes disagree")
    union = seq_union(p.phi, q.phi)
    width = len(p.sigma)
    # try without extending the commitment first (covers p = q)
    ok = True
    for i in _probe_indices(union):
        if len(union.at(i)) > width:
            ok = False
            break
    if ok and len(union.rule.value) <= width and all(
        p.sigma[i] <= union.at(i) for i in range(width)
    ):
        try:
            return LocCondition(p.sigma, union, p.pinned and q.pinned)
        except ValueError:
            pass
    target = 2 * len(p.sigma)
    sigma2 = list(p.sigma)
    pinned: dict[int, Value] = {}
    for i in range(len(p.sigma), target):
        need = union.at(i)
        if len(need) > i:
            return Incompatible(f"slot {i} needs {len(need)} values, holds {i}")
        pad = set(need)
        fresh = 0
        while len(pad) < i:
            if fresh not in pad:
                pad.add(fresh)
            fresh += 1
        sigma2.append(frozenset(pad))
        pinned[i] = frozenset(pad)
    for i in _probe_indices(union):
        if i >= target and len(union.at(i)) > target:
            return Incompatible(f"slot {i} is wider than the new commitment")
    if len(union.rule.value) > target:
        return Incompatible("tail rule is wider than the new commitment")
    try:
        out = LocCondition(
            tuple(sigma2), union.with_exceptions(pinned.items()), p.pinned and q.pinned
        )
    except ValueError as err:
        return Incompatible(str(err))
    if not (loc_leq(out, p) and loc_leq(out, q)):
        return Incompatible("constructed meet fails the order check")
    return out


def localizes(phi: FinSeq, f: FinSeq, horizon: int = 2000) -> Optional[int]:
    """Least threshold past which f lands in phi for the whole scanned window,
    with a rule-level check that the containment persists; None when it
    cannot."""
    if phi.rule.kind != "constant" or not isinstance(phi.rule.value, frozenset):
        raise Undecidable("slalom tails must be constant finite sets")
    fr = f.rule
    if fr.kind == "affine" and fr.slope != 0:
        return None  # unbounded values escape any finite tail
    if fr.value not in phi.rule.value:
        return None
    horizon = max(horizon, f.settle_index(), phi.settle_index())
    last_bad = -1
    for n in range(horizon):
        if f.at(n) not in phi.at(n):
            last_bad = n
    return last_bad + 1


def build_localizing_slalom(reals: Sequence[FinSeq], width_budget: int) -> LocCondition:
    """A condition whose slalom swallows every input sequence from its
    commitment point on; inputs must be eventually constant."""
    if len(reals) > width_budget:
        raise ValueError(f"{len(reals)} sequences exceed the width budget {width_budget}")
    for f in reals:
        if f.rule.kind == "affine" and f.rule.slope != 0:
            raise ValueError("only eventually constant sequences are representable")
    settle = max([f.settle_index() for f in reals], default=0)
    width = max(width_budget, len(reals), 1)
    sigma: list[frozenset[int]] = []
    for i in range(width):
        vals = sorted({f.at(i) for f in reals})[:i]
        pad = set(vals)
        fresh = 0
        while len(pad) < i:
            if fresh not in pad:
                pad.add(fresh)
            fresh += 1
        sigma.append(frozenset(pad))
    exc: dict[int, Value] = {}
    for i in range(width, max(settle, width)):
        exc[i] = frozenset(f.at(i) for f in reals)
    tail = frozenset(f.rule.value for f in reals)
    phi = FinSeq(Rule("constant", tail), tuple(exc.items()))
    out = loc_condition(sigma, phi)
    for f in reals:
        m = localizes(out.phi, f)
        if m is None or m > width:
            raise ContractViolation("built slalom fails to localize an input")
    return out


# ---------------------------------------------------------------------------
# dominating pairs


@dataclass(frozen=True)
class DomCondition:
    """(stem, f): a committed finite prefix pinned by a total sequence."""

    stem: tuple[int, ...]
    f: FinSeq

    def __post_init__(self) -> None:
        for i, v in enumerate(self.stem):
            if self.f.at(i) != v:
                raise ValueError(f"tail does not pin the stem at {i}")

    def to_json(self) -> dict:
        return {"stem": list(self.stem), "f": self.f.to_json()}


def dom_condition(stem: Sequence[int], f: FinSeq) -> DomCondition:
    stem = tuple(stem)
    return DomCondition(stem, f.with_exceptions(enumerate(stem)))


def dom_leq(p: DomCondition, q: DomCondition) -> bool:
    """p extends q: longer stem, everywhere pointwise at least q's tail."""
    if len(p.stem) < len(q.stem) or p.stem[: len(q.stem)] != q.stem:
        return False
    return seq_le(q.f, p.f)


def dom_meet(p: DomCondition, q: DomCondition):
    """Common extension: the longer stem with the pointwise maximum of the
    tails, when the stems are comparable and dominate the other tail."""
    if len(q.stem) > len(p.stem):
        p, q = q, p
    if p.stem[: len(q.stem)] != q.stem:
        return Incompatible("stems disagree")
    for i in range(len(p.stem)):
        if q.f.at(i) > p.stem[i]:
            return Incompatible(f"other tail exceeds the stem at {i}")
    out = DomCondition(p.stem, seq_max(p.f, q.f))
    if not (dom_leq(out, p) and dom_leq(out, q)):
        return Incompatible("constructed meet fails the order check")
    return out


# ---------------------------------------------------------------------------
# n-compatibility trials


def _random_number_seq(rng: random.Random, lo_len: int = 0) -> FinSeq:
    kind = rng.choice(["constant", "constant", "affine"])
    if kind == "constant":
        rule = Rule("constant", rng.randrange(8))
    else:
        rule = Rule("affine", rng.randrange(4), rng.randrange(3))
    exc = tuple(
        (rng.randrange(lo_len, lo_len + 6), rng.randrange(8)) for _ in range(rng.randrange(3))
    )
    return FinSeq(rule, exc)


def _extend_dom(rng: random.Random, q: DomCondition) -> DomCondition:
    """A random extension of q: longer stem, pointwise bumped tail."""
    t = list(q.stem)
    ext = [q.f.at(i) + rng.randrange(3) for i in range(len(t), len(t) + rng.randrange(4))]
    s = t + ext
    bumps = {i: q.f.at(i) + rng.randrange(3) for i in range(len(s), len(s) + rng.randrange(4))}
    f = q.f.with_exceptions(list(enumerate(s)) + list(bumps.items()))
    p = DomCondition(tuple(s), f)
    if not dom_leq(p, q):
        raise ContractViolation("random dominating-pair extension fails the order check")
    return p


def _random_dom_pair(rng: random.Random) -> tuple[DomCondition, DomCondition]:
    """(p, q) with p <= q, randomly built."""
    t = [rng.randrange(6) for _ in range(rng.randrange(4))]
    q = dom_condition(t, _random_number_seq(rng))
    return _extend_dom(rng, q), q


def _random_set_seq(rng: random.Random, width: int) -> FinSeq:
    tail = frozenset(rng.sample(range(10), rng.randrange(min(width, 4) + 1)))
    exc = tuple(
        (rng.randrange(8), frozenset(rng.sample(range(10), rng.randrange(width + 1))))
        for _ in range(rng.randrange(2))
    )
    return FinSeq(Rule("constant", tail), exc)


def _extend_loc(rng: random.Random, q: LocCondition) -> LocCondition:
    """A random extension of q: more committed slots, pointwise grown tail."""
    tau_len = len(q.sigma)
    sigma = list(q.sigma)
    for i in range(tau_len, tau_len + rng.randrange(3)):
        base = set(q.phi.at(i))
        fresh = 0
        while len(base) < i:
            if fresh not in base:
                base.add(fresh)
            fresh += 1
        sigma.append(frozenset(base))
    width = len(sigma)
    extra = {
        i: frozenset(set(q.phi.at(i)) | set(rng.sample(range(12), rng.randrange(2))))
        for i in range(width, width + rng.randrange(3))
    }
    extra = {i: v for i, v in extra.items() if len(v) <= width}
    phi = q.phi.with_exceptions(list(enumerate(sigma)) + list(extra.items()))
    p = LocCondition(tuple(sigma), phi)
    if not loc_leq(p, q):
        raise ContractViolation("random localization extension fails the order check")
    return p


def _random_loc_pair(rng: random.Random) -> tuple[LocCondition, LocCondition]:
    tau_len = rng.randrange(4)
    tau = [frozenset(rng.sample(range(12), i)) for i in range(tau_len)]
    q = loc_condition(tau, _random_set_seq(rng, tau_len))
    return _extend_loc(rng, q), q


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
    """Randomized law check: p <= q and a sibling of q agreeing with p's tail
    on n times the committed length must admit a common extension via the
    meet constructor.  Returns the failure count (0 is the contract for the
    dominating pair with n = 1 and localization with n = 2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    failures = 0
    failure_seeds: list[int] = []
    for trial in range(samples):
        rng = random.Random(seed * 1_000_003 + trial)
        if poset == "hechler":
            p, q = _random_dom_pair(rng)
            agree = n * len(p.stem)
            h = _random_number_seq(rng).with_exceptions(
                (i, q.f.at(i)) for i in range(agree)
            )
            sib = DomCondition(q.stem, h.with_exceptions(enumerate(q.stem)))
            met = dom_meet(p, sib)
            good = isinstance(met, DomCondition) and dom_leq(met, p) and dom_leq(met, sib)
        elif poset == "loc":
            p, q = _random_loc_pair(rng)
            agree = n * len(p.sigma)
            h = _random_set_seq(rng, len(q.sigma)).with_exceptions(
                (i, q.phi.at(i)) for i in range(agree)
            )
            sib = LocCondition(q.sigma, h.with_exceptions(enumerate(q.sigma)))
            met = loc_meet(p, sib)
            good = isinstance(met, LocCondition) and loc_leq(met, p) and loc_leq(met, sib)
        else:
            raise ValueError(f"unknown poset {poset!r}")
        if not good:
            failures += 1
            failure_seeds.append(trial)
    return TrialReport(poset, n, samples, seed, failures, failure_seeds)


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
    ground: GroundRep = EMPTY_GROUND,
    leq_override=None,
) -> list[ClauseResult]:
    """Property-check the finite-function-poset clauses (restrictions and
    extensions), the reduction/extension contract, and a freeze guard, on
    sampled conditions of the given mode.  leq_override swaps in a different
    order decision (used by mutation tests)."""
    from .sampling import sample_condition, sample_extension, sample_fresh_assignment

    order = leq_override if leq_override is not None else leq
    rng = random.Random(seed)
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
        p = sample_condition(rng, mode, gens, ground=ground)
        keep = frozenset(rng.sample(gens, rng.randrange(len(gens) + 1)))
        weak = restrict(p, keep)
        strong = strong_restrict(p, keep, ground)
        res_restrict.checks += 1
        if res_restrict.passed and not (
            not validate(weak, ground)
            and not validate(strong, ground)
            and order(weak, strong, ground)
        ):
            res_restrict.passed = False
            res_restrict.witness = f"p={p.to_json()}, keep={sorted(keep)}"
        q = sample_extension(rng, p, ground)
        res_mono.checks += 1
        if res_mono.passed and not order(
            strong_restrict(q, keep, ground), strong_restrict(p, keep, ground), ground
        ):
            res_mono.passed = False
            res_mono.witness = f"p={p.to_json()}, q={q.to_json()}, keep={sorted(keep)}"
        t = sample_fresh_assignment(rng, p, ground)
        res_merge.checks += 1
        try:
            merged = merge_disjoint(p, t, ground)
            if res_merge.passed and not order(merged, p, ground):
                res_merge.passed = False
                res_merge.witness = f"p={p.to_json()}, t={t.to_json()}"
        except Exception as err:  # pragma: no cover
            res_merge.passed = False
            res_merge.witness = str(err)
        res_grow.checks += 1
        try:
            from .sampling import sample_extra_words

            grown = add_words(p, p.words | sample_extra_words(rng, p, ground), ground)
            # the superset is tested on its own as well as inside order, so
            # the clause does not rest on the check it tests
            if res_grow.passed and not (grown.words >= p.words and order(grown, p, ground)):
                res_grow.passed = False
                res_grow.witness = f"p={p.to_json()}, E={[format_word(w) for w in grown.words]}"
        except Exception as err:  # pragma: no cover
            res_grow.passed = False
            res_grow.witness = str(err)
        res_embed.checks += 1
        try:
            red = strong_reduction(p, keep, ground)
            if not order(red, strong_restrict(p, keep, ground), ground):
                raise ValueError("reduction does not extend the strong restriction")
            ext = sample_extension(rng, red, ground, avoid=p.occurring(ground) - keep)
            both = canonical_extension(p, ext, keep, ground)
            if res_embed.passed and not (order(both, p, ground) and order(both, ext, ground)):
                res_embed.passed = False
                res_embed.witness = f"p={p.to_json()}, keep={sorted(keep)}"
        except Exception as err:
            if res_embed.passed:
                res_embed.passed = False
                res_embed.witness = f"{err} (p={p.to_json()}, keep={sorted(keep)})"
        res_guard.checks += 1
        probe = _freeze_probe(p, ground)
        if probe is not None and res_guard.passed:
            if order(probe, p, ground):
                res_guard.passed = False
                res_guard.witness = f"p={p.to_json()}, probe={probe.to_json()}"
    return results


def _freeze_probe(p: Condition, ground: GroundRep) -> Optional[Condition]:
    """A deliberately violating extension: gives some frozen entry a new
    fixed point / agreement / common 1-point.  None when p freezes nothing
    usable."""
    fresh = max(p.s.all_values() | {9}, default=9) + 1
    shape = DISCIPLINES[p.mode].shape
    words = p.sorted_words()
    if shape == "letter":
        if len(words) < 2:
            return None
        a, b = words[0].letters[0].gen, words[1].letters[0].gen
        s = p.s.with_pair(a, fresh, 1).with_pair(b, fresh, 1)
        return Condition(s, p.words, p.mode)
    if shape == "pair":
        if not words:
            return None
        a, b = words[0].letters[0].gen, words[0].letters[1].gen
        s = p.s.with_pair(a, fresh, fresh + 1).with_pair(b, fresh, fresh + 1)
        return Condition(s, p.words, p.mode)
    amb = ground.generators()
    for w in words:
        if len(w.letters) == 1 and w.letters[0].gen not in amb:
            return Condition(p.s.with_pair(w.letters[0].gen, fresh, fresh), p.words, p.mode)
    for w in words:
        if len(w.letters) == 2 and len({l.gen for l in w.letters} - amb) == 2:
            lo, hi = w.letters
            if lo.sign == 1 and hi.sign == 1:
                # w = x y: send fresh -> fresh through both letters
                s = p.s.with_pair(hi.gen, fresh, fresh + 1).with_pair(lo.gen, fresh + 1, fresh)
                return Condition(s, p.words, p.mode)
    return None
