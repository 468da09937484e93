"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

- Two traced passes of a workload give identical machine-independent
  counters: every per-layer metric but self times and the overhead ratio.
- Leaving the tracer restores every patched function; leaving the speed
  sampler restores its signal handler and timer.
- BENCHMARK.json lists the metrics and workloads the code has.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import pytest

import run
import speed
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import cofinitary.cli as cli  # noqa: E402
import cofinitary.evaluation as evaluation  # noqa: E402
import cofinitary.poset as poset  # noqa: E402


def _machine_independent(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_traced_counters_repeat(workload):
    cmds = workloads.commands(workload, 1, run.OUT / f"test-{workload}")
    checker = run.Checker(cmds)
    counters = [
        _machine_independent(run.traced_pass(cli, cmds, checker, i)[1]) for i in range(2)
    ]
    assert checker.failures == []
    assert counters[0] == counters[1]
    named = set(_machine_independent({n: 0 for n, _, _ in tracing.per_layer_metrics()}))
    assert named - set(counters[0]) == {"trace_overhead_ratio"}
    assert counters[0]["cli.main.calls"] == len(cmds)


def test_tracer_restores_originals():
    before = (cli.main, poset.leq, poset.apply_letter, evaluation.Assignment.with_pair)
    with tracing.Tracer():
        assert poset.leq is not before[1]
        assert poset.apply_letter is not before[2]
    assert (cli.main, poset.leq, poset.apply_letter, evaluation.Assignment.with_pair) == before


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.per_layer_metrics()
    )
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_sampler_restores_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 3 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2 and sampler.mean > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
