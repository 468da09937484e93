"""The ffp suite's first-witness ledger: a clause that has failed is not
checked again, and skipping it moves no draw another clause reads, so every
other clause makes the order calls of an honest run.  The calls are
recorded as test_suslin's test_ffp_suite_comparisons records them, on one
CPU, where the recording order runs."""

import os

import pytest

from cofinitary import suslin
from cofinitary.poset import PosetMode, leq
from cofinitary.suslin import FFP_CLAUSES, ffp_axiom_suite
from test_suite_split import Marked, raise_at

SAMPLES = 100
BAD = 30  # the sample at which merge_disjoint raises
MERGE = FFP_CLAUSES.index("disjoint-merge")


def recorded_run(monkeypatch, mode):
    """The suite's clauses as [passed, checks, witness], the samples at which
    merge_disjoint returned, and every order call as (sample, whether its
    first condition is a merge, p, q, verdict)."""
    merged = []
    merge = suslin.merge_disjoint

    def recording_merge(p, t):
        merged.append((Marked.at, merge(p, t)))
        return merged[-1][1]

    calls = []

    def recording_leq(p, q):
        verdict = leq(p, q)
        from_merge = any(p is m for _, m in merged)
        calls.append((Marked.at, from_merge, p.to_json(), q.to_json(), verdict))
        return verdict

    monkeypatch.setattr(suslin, "merge_disjoint", recording_merge)
    results = ffp_axiom_suite(mode, SAMPLES, 3, leq_override=recording_leq)
    return [[r.passed, r.checks, r.witness] for r in results], [i for i, _ in merged], calls


@pytest.mark.parametrize("mode", list(PosetMode))
def test_a_failed_clause_moves_no_other_clauses_calls(monkeypatch, intercept, mode):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(suslin, "Draws", Marked)
    honest, honest_merges, honest_calls = recorded_run(monkeypatch, mode)
    assert all(passed for passed, _, _ in honest)
    assert honest_merges == list(range(SAMPLES))

    raise_at(monkeypatch, intercept, "merge_disjoint", {BAD})
    results, merges, calls = recorded_run(monkeypatch, mode)
    assert results[MERGE] == [False, SAMPLES, f"sample {BAD}"]
    assert results[:MERGE] + results[MERGE + 1:] == honest[:MERGE] + honest[MERGE + 1:]
    # the clause is not checked from its failing sample on ...
    assert merges == list(range(BAD))
    # ... and every other clause compares what the honest run compares
    assert any(from_merge for _, from_merge, *_ in honest_calls)
    assert calls == [c for c in honest_calls if not (c[0] >= BAD and c[1])]
