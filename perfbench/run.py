"""Benchmark of the cofinitary CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's commands in this process through ``cofinitary.cli.main``
with the argv a user types: a closed loop with one client, one command at a
time.  One pass runs every command of the workload once.  Passes repeat while
the next one, judged by the last, should end within ``--seconds``; there are
at least two.  After each pass, outside the timed region, every report is
rechecked and hashed; all passes of a run must give equal digests.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mib); the
times are read at a reference machine speed (see speed.py).  --trace 1 runs
one untraced and one traced pass and prints the per-layer metrics.  The last
stdout line is the result JSON; details (all pass times, quartiles, digests,
failures, spans) go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_PASSES = 2
SETUP_SAMPLES = 11
SETUP_SNIPPET = (
    "import time, speed\n"
    "probe_s = speed.sample(25)\n"
    "t0 = time.perf_counter()\n"
    "import cofinitary.cli\n"
    "cofinitary.cli._build_parser()\n"
    "print(time.perf_counter() - t0, probe_s)\n"
)


def at_reference(seconds: float, probe_s: float) -> float:
    return seconds * speed.REFERENCE_S / probe_s


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import cofinitary and build the CLI parser, each in a fresh
    interpreter, and the mean probe time measured just before in the same
    interpreter.  A first, untimed process compiles the bytecode."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times, probes = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            took, probe_s = map(float, done.stdout.split())
            times.append(took)
            probes.append(probe_s)
    return times, probes


def run_pass(cli, cmds) -> tuple[float, list]:
    """One timed pass over the commands; returns wall seconds and the exit
    codes (or the exception a command raised)."""
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints report paths
        start = time.perf_counter()
        for cmd in cmds:
            try:
                codes.append(cli.main(list(cmd.argv)))
            except Exception as err:  # a crash counts as a failed command
                codes.append(f"raised {err!r}")
        wall = time.perf_counter() - start
    return wall, codes


class Checker:
    """Rechecks reports and compares their digests across the passes of a run."""

    def __init__(self, cmds) -> None:
        self.cmds = cmds
        self.digests: list[str | None] = [None] * len(cmds)
        self.attempted = 0
        self.failures: list[str] = []
        self.report_bytes = 0
        self.stages = 0
        self.frozen_words = 0

    def check(self, pass_no: int, codes: list) -> None:
        self.report_bytes = self.stages = self.frozen_words = 0
        for i, (cmd, code) in enumerate(zip(self.cmds, codes)):
            self.attempted += 1
            problems = [] if code == 0 else [code if isinstance(code, str) else f"exit code {code}"]
            try:
                blob = cmd.report.read_bytes()
                report = json.loads(blob)
                problems += cmd.recheck(report)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
                blob, report = b"", {}
                problems.append(f"unreadable report: {err!r}")
            digest = hashlib.sha256(blob).hexdigest()
            if self.digests[i] is None:
                self.digests[i] = digest
            elif digest != self.digests[i]:
                problems.append(f"digest {digest} differs from the first pass's {self.digests[i]}")
            self.report_bytes += len(blob)
            self.stages += len(report.get("goal_log", ()))
            self.frozen_words += len(report.get("frozen_fix", ()))
            if problems:
                self.failures.append(f"pass {pass_no} `{' '.join(cmd.argv)}`: {'; '.join(problems)}")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failed_ratio": len(self.failures) / self.attempted,
            "failures": self.failures[:50],
            "digests": {
                " ".join(c.argv[:-2]): d for c, d in zip(self.cmds, self.digests)
            },
        }


def sampled_pass(cli, cmds) -> tuple[float, float, list]:
    """run_pass under the speed probe; returns the wall seconds, the probe
    time during the pass and the exit codes."""
    gc.collect()
    with speed.Sampler() as sampler:
        wall, codes = run_pass(cli, cmds)
    return wall, sampler.mean, codes


def traced_pass(cli, cmds, checker: Checker, pass_no: int):
    """One pass under the tracer, then its rechecks; returns the wall seconds
    at reference speed, the per-layer metrics (all but trace_overhead_ratio)
    and the tracer."""
    with tracing.Tracer() as tracer:
        wall, probe_s, codes = sampled_pass(cli, cmds)
    wall = at_reference(wall, probe_s)
    checker.check(pass_no, codes)
    metrics = tracer.metrics()
    metrics["builder.stages"] = checker.stages
    metrics["builder.frozen_words"] = checker.frozen_words
    metrics["cli.report_bytes"] = checker.report_bytes
    return wall, metrics, tracer


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cofinitary" / "cli.py").is_file():
        print(f"no cofinitary sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cofinitary.cli as cli

    if args.workload not in workloads.WHY:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WHY)}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported cofinitary from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    work.mkdir(parents=True, exist_ok=True)
    cmds = workloads.commands(args.workload, args.seed, work)
    checker = Checker(cmds)
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace:
        plain_wall, probe_s, codes = sampled_pass(cli, cmds)
        plain_wall = at_reference(plain_wall, probe_s)
        checker.check(0, codes)
        traced_wall, metrics, tracer = traced_pass(cli, cmds, checker, 1)
        metrics["trace_overhead_ratio"] = traced_wall / plain_wall
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        details.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.span_dump()))
    else:
        setup_raw, setup_probes = measure_setup()
        setup = [at_reference(t, p) for t, p in zip(setup_raw, setup_probes)]
        raw: list[float] = []
        probes: list[float] = []
        budget_start = time.perf_counter()
        while len(raw) < MIN_PASSES or (
            time.perf_counter() - budget_start + raw[-1] <= args.seconds
        ):
            wall, probe_s, codes = sampled_pass(cli, cmds)
            raw.append(wall)
            probes.append(probe_s)
            checker.check(len(raw), codes)
        walls = [at_reference(t, p) for t, p in zip(raw, probes)]
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": rss_mib,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
        details.update(
            wall_s=quartiles(walls), raw_wall_s=quartiles(raw),
            raw_wall_s_samples=raw, probe_s_samples=probes,
            setup_s=quartiles(setup), raw_setup_s=quartiles(setup_raw),
            raw_setup_s_samples=setup_raw, setup_probe_s_samples=setup_probes,
        )

    summary = checker.summary()
    details.update(summary, metrics=metrics)
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    for failure in summary["failures"]:
        print(failure, file=sys.stderr)
    print(
        f"{tag}: {summary['attempted']} commands, {summary['failed']} failed "
        f"(failed_ratio {summary['failed_ratio']:g}); details in {OUT / f'result-{tag}.json'}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
