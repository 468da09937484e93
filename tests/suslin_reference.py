"""The sequence algebra of ``cofinitary.suslin`` over ``FinSeq`` objects, as
it ran before the plain-data kernel: the oracle the kernel is checked
against.

``Rule`` and ``FinSeq`` are the sequence classes the package held before its
kernel was the only algebra.  Every statement reads one probe list,
``probe_indices``, in index order; conditions are named tuples validated by
``loc``/``dom``, which raise the same ``ValueError`` texts as the kernel's
``_loc``/``_dom``.  The trial samplers and ``n_suslin_trial`` are kept too,
drawing a fresh ``random.Random`` per trial.

``plain_localizes`` is the one statement over the kernel's plain sequences:
the localization test of the tests' slalom builder, checked against
``localizes`` and a brute-force window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from cofinitary.extension import ContractViolation
from cofinitary.poset import Incompatible
from cofinitary.suslin import Undecidable, Value


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


def finseq(k) -> FinSeq:
    """A kernel sequence (slope, value, exc) as a FinSeq; a rule of slope 0
    reads as a constant."""
    a, b, exc = k
    return FinSeq(Rule("affine" if a else "constant", b, a), tuple(exc.items()))


def probe_indices(*seqs: FinSeq) -> list[int]:
    """Every nonnegative exception index of seqs, in order, then the least
    index that is none of them."""
    idx: set[int] = set()
    for s in seqs:
        idx.update(s._table)
    free = 0
    while free in idx:
        free += 1
    out = sorted(idx)
    if out and out[0] < 0:
        out = [i for i in out if i >= 0]
    out.append(free)
    return out


def eventually_le(f: FinSeq, g: FinSeq) -> bool:
    rf, rg = f.rule, g.rule
    if rf.slope != rg.slope:
        return rf.slope < rg.slope
    return rf.value <= rg.value


def seq_le(f: FinSeq, g: FinSeq) -> bool:
    if isinstance(f.rule.value, frozenset) or isinstance(g.rule.value, frozenset):
        raise Undecidable("pointwise order is for number sequences")
    for i in probe_indices(f, g):
        if f.at(i) > g.at(i):
            return False
    return eventually_le(f, g)


def seq_subset(f: FinSeq, g: FinSeq) -> bool:
    if f.rule.kind != "constant" or g.rule.kind != "constant":
        raise Undecidable("set sequences need constant tails")
    return all(f.at(i) <= g.at(i) for i in probe_indices(f, g))


def seq_max(f: FinSeq, g: FinSeq) -> FinSeq:
    dominant, other = (f, g) if eventually_le(g, f) else (g, f)
    cross = 0
    df, dg = dominant.rule, other.rule
    if df.slope > dg.slope:
        cross = max(0, (dg.value - df.value) // (df.slope - dg.slope) + 1)
    exc: dict[int, Value] = {}
    for i in probe_indices(f, g):
        exc[i] = max(f.at(i), g.at(i))
    for i in range(cross + 1):
        exc[i] = max(f.at(i), g.at(i))
    return FinSeq(dominant.rule, tuple(exc.items()))


def seq_union(f: FinSeq, g: FinSeq) -> FinSeq:
    if f.rule.kind != "constant" or g.rule.kind != "constant":
        raise Undecidable("set sequences need constant tails")
    tail = f.rule.value | g.rule.value
    exc = tuple((i, v) for i in probe_indices(f, g) if (v := f.at(i) | g.at(i)) != tail)
    return FinSeq(Rule("constant", tail), exc)


def localizes(phi: FinSeq, f: FinSeq) -> Optional[int]:
    if phi.rule.kind != "constant" or not isinstance(phi.rule.value, frozenset):
        raise Undecidable("slalom tails must be constant finite sets")
    if f.rule.slope != 0:
        return None
    if f.rule.value not in phi.rule.value:
        return None
    last_bad = -1
    for n in probe_indices(phi, f):
        if f.at(n) not in phi.at(n):
            last_bad = n
    return last_bad + 1


def plain_localizes(phi, f) -> Optional[int]:
    """localizes on the kernel's plain (slope, value, exc) sequences: least
    m with f(n) in phi(n) for every n >= m, or None.  Past the exceptions f
    reads a rule value the rule test put inside phi's rule, so only the
    exceptions are scanned."""
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


def pad(need: Iterable[int], size: int) -> frozenset[int]:
    out = set(need)
    fresh = 0
    while len(out) < size:
        out.add(fresh)
        fresh += 1
    return frozenset(out)


# -- slalom conditions ------------------------------------------------------


class Loc(NamedTuple):
    sigma: tuple[frozenset[int], ...]
    phi: FinSeq


def loc(sigma, phi: FinSeq) -> Loc:
    """Loc(sigma, phi) after the checks the kernel's _loc makes."""
    width = len(sigma)
    for i in probe_indices(phi):
        v = phi.at(i)
        if not isinstance(v, frozenset):
            raise ValueError(f"slalom tails must be finite sets; slot {i} holds {v!r}")
        if len(v) > width:
            raise ValueError(f"tail width at {i} exceeds {width}")
    for i, s in enumerate(sigma):
        if len(s) != i:
            raise ValueError(f"slalom prefix slot {i} has size {len(s)}, wants {i}")
        if phi.at(i) != s:
            raise ValueError(f"tail does not pin the prefix at {i}")
    return Loc(tuple(sigma), phi)


def loc_leq(p: Loc, q: Loc) -> bool:
    if len(p.sigma) < len(q.sigma) or p.sigma[: len(q.sigma)] != q.sigma:
        return False
    return seq_subset(q.phi, p.phi)


def loc_meet(p: Loc, q: Loc):
    if len(q.sigma) > len(p.sigma):
        p, q = q, p
    if p.sigma[: len(q.sigma)] != q.sigma:
        return Incompatible("committed prefixes disagree")
    union = seq_union(p.phi, q.phi)
    try:
        return loc(p.sigma, union)
    except ValueError:
        pass
    new = {i: pad(union.at(i), i) for i in range(len(p.sigma), 2 * len(p.sigma))}
    try:
        out = loc(p.sigma + tuple(new.values()), union.with_exceptions(new.items()))
    except ValueError as err:
        return Incompatible(str(err))
    if not (loc_leq(out, p) and loc_leq(out, q)):
        return Incompatible("constructed meet fails the order check")
    return out


# -- dominating pairs -------------------------------------------------------


class Dom(NamedTuple):
    stem: tuple[int, ...]
    f: FinSeq


def dom(stem, f: FinSeq) -> Dom:
    """Dom(stem, f) after the check the kernel's _dom makes."""
    for i, v in enumerate(stem):
        if f.at(i) != v:
            raise ValueError(f"tail does not pin the stem at {i}")
    return Dom(tuple(stem), f)


def dom_leq(p: Dom, q: Dom) -> bool:
    if len(p.stem) < len(q.stem) or p.stem[: len(q.stem)] != q.stem:
        return False
    return seq_le(q.f, p.f)


def dom_meet(p: Dom, q: Dom):
    if len(q.stem) > len(p.stem):
        p, q = q, p
    if p.stem[: len(q.stem)] != q.stem:
        return Incompatible("stems disagree")
    for i in range(len(p.stem)):
        if q.f.at(i) > p.stem[i]:
            return Incompatible(f"other tail exceeds the stem at {i}")
    out = dom(p.stem, seq_max(p.f, q.f))
    if not (dom_leq(out, p) and dom_leq(out, q)):
        return Incompatible("constructed meet fails the order check")
    return out


# -- the trials -------------------------------------------------------------


def random_number_seq(rng: random.Random, lo_len: int = 0) -> FinSeq:
    kind = rng.choice(["constant", "constant", "affine"])
    if kind == "constant":
        rule = Rule("constant", rng.randrange(8))
    else:
        rule = Rule("affine", rng.randrange(4), rng.randrange(3))
    exc = tuple(
        (rng.randrange(lo_len, lo_len + 6), rng.randrange(8)) for _ in range(rng.randrange(3))
    )
    return FinSeq(rule, exc)


def random_set_seq(rng: random.Random, width: int) -> FinSeq:
    tail = frozenset(rng.sample(range(10), rng.randrange(min(width, 4) + 1)))
    exc = tuple(
        (rng.randrange(8), frozenset(rng.sample(range(10), rng.randrange(width + 1))))
        for _ in range(rng.randrange(2))
    )
    return FinSeq(Rule("constant", tail), exc)


def random_dom_pair(rng: random.Random) -> tuple[Dom, Dom]:
    t = [rng.randrange(6) for _ in range(rng.randrange(4))]
    q = dom(t, random_number_seq(rng).with_exceptions(enumerate(t)))
    s = list(q.stem)
    s += [q.f.at(i) + rng.randrange(3) for i in range(len(s), len(s) + rng.randrange(4))]
    bumps = {i: q.f.at(i) + rng.randrange(3) for i in range(len(s), len(s) + rng.randrange(4))}
    p = dom(s, q.f.with_exceptions(list(enumerate(s)) + list(bumps.items())))
    if not dom_leq(p, q):
        raise ContractViolation("random dominating-pair extension fails the order check")
    return p, q


def random_loc_pair(rng: random.Random) -> tuple[Loc, Loc]:
    tau_len = rng.randrange(4)
    tau = [frozenset(rng.sample(range(12), i)) for i in range(tau_len)]
    q = loc(tau, random_set_seq(rng, tau_len).with_exceptions(enumerate(tau)))
    sigma = list(q.sigma)
    for i in range(tau_len, tau_len + rng.randrange(3)):
        sigma.append(pad(q.phi.at(i), i))
    width = len(sigma)
    extra = {
        i: frozenset(set(q.phi.at(i)) | set(rng.sample(range(12), rng.randrange(2))))
        for i in range(width, width + rng.randrange(3))
    }
    extra = {i: v for i, v in extra.items() if len(v) <= width}
    p = loc(sigma, q.phi.with_exceptions(list(enumerate(sigma)) + list(extra.items())))
    if not loc_leq(p, q):
        raise ContractViolation("random localization extension fails the order check")
    return p, q


def draw(poset: str, rng: random.Random, n: int):
    """One trial's (p, q, sibling), as the trial drew them."""
    if poset == "hechler":
        p, q = random_dom_pair(rng)
        agree = n * len(p.stem)
        h = random_number_seq(rng).with_exceptions((i, q.f.at(i)) for i in range(agree))
        return p, q, dom(q.stem, h.with_exceptions(enumerate(q.stem)))
    p, q = random_loc_pair(rng)
    agree = n * len(p.sigma)
    h = random_set_seq(rng, len(q.sigma)).with_exceptions((i, q.phi.at(i)) for i in range(agree))
    return p, q, loc(q.sigma, h.with_exceptions(enumerate(q.sigma)))


def n_suslin_trial(poset: str, n: int, samples: int, seed: int) -> list[int]:
    """The failing trial numbers."""
    meet, le = (dom_meet, dom_leq) if poset == "hechler" else (loc_meet, loc_leq)
    failed = []
    for trial in range(samples):
        p, _, sib = draw(poset, random.Random(seed * 1_000_003 + trial), n)
        met = meet(p, sib)
        if isinstance(met, Incompatible) or not (le(met, p) and le(met, sib)):
            failed.append(trial)
    return failed
