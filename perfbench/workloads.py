"""The benchmark's workloads and the independent rechecks of their reports.

Each workload is a list of commands, given as the argv a user would type to
``cofinitary``.  Every command writes one JSON report; after the timed region
the report is read back from disk and rechecked against what it claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

# Sizes.  build-wide must stay above 16 points: its length-4 words are frozen
# after point 15, so only later points run against the full side set of 2,432
# hat words.  At 20 points those goals make about a third of a pass, beside
# the freeze phase's re-validation.  The other sizes keep one pass to a few
# seconds, so that a run holds several passes.
WIDE_POINTS = 20
LONG_COFINITARY_POINTS = 300
LONG_VARIANT_POINTS = 200
FFP_SAMPLES = 500
HIT_SAMPLES = 100
SUSLIN_SAMPLES = 10_000

WHY = {
    "build-wide": (
        "4 generators, words up to length 4: 2,432 frozen hat words, so cost is word walks "
        "in poset.leq and O(|F|^2) validate/is_hat re-checks"
    ),
    "build-long": (
        "few frozen words, many pairs, all four disciplines: poset.leq cost is the O(|s|) "
        "triples difference and contains check, not word walks"
    ),
    "suites": (
        "many tiny sampled conditions (ffp-suite, hit-density, suslin, template): hat_words "
        "pools, suslin meets and templates; no cost scales with side-set or map size"
    ),
}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    report: Path
    recheck: Callable[[dict], list[str]]


def _cmd(name: str, out: Path, recheck, *argv: str) -> Command:
    report = out / f"{name}.json"
    return Command((*argv, "--out", str(report)), report, recheck)


def commands(workload: str, seed: int, out: Path) -> list[Command]:
    s = str(seed)
    if workload == "build-wide":
        return [
            _cmd(
                "wide", out, partial(check_cofinitary_build, points=WIDE_POINTS),
                "build-group", "--mode", "cofinitary", "--generators", "4",
                "--max-word-len", "4", "--points", str(WIDE_POINTS), "--seed", s,
            )
        ]
    if workload == "build-long":
        cmds = [
            _cmd(
                "long-cofinitary", out,
                partial(check_cofinitary_build, points=LONG_COFINITARY_POINTS),
                "build-group", "--mode", "cofinitary", "--generators", "2",
                "--max-word-len", "2", "--points", str(LONG_COFINITARY_POINTS), "--seed", s,
            )
        ]
        for mode in ("adp", "edf", "mad"):
            cmds.append(
                _cmd(
                    f"long-{mode}", out,
                    partial(check_variant_build, points=LONG_VARIANT_POINTS),
                    "build-group", "--mode", mode, "--generators", "4",
                    "--points", str(LONG_VARIANT_POINTS), "--seed", s,
                )
            )
        return cmds
    if workload == "suites":
        cmds = [
            _cmd(
                f"ffp-{mode}", out, partial(check_ffp, samples=FFP_SAMPLES),
                "ffp-suite", "--mode", mode, "--samples", str(FFP_SAMPLES), "--seed", s,
            )
            for mode in ("cofinitary", "adp", "edf", "mad")
        ]
        cmds.append(
            _cmd(
                "hit-density", out, partial(check_hit_density, samples=HIT_SAMPLES),
                "hit-density", "--generators", "3", "--words", "4", "--maxN", "50",
                "--window", "64", "--samples", str(HIT_SAMPLES), "--seed", s,
            )
        )
        for poset, n in (("hechler", "1"), ("loc", "2")):
            cmds.append(
                _cmd(
                    f"suslin-{poset}", out, partial(check_suslin, samples=SUSLIN_SAMPLES),
                    "suslin", "--poset", poset, "--n", n,
                    "--samples", str(SUSLIN_SAMPLES), "--seed", s,
                )
            )
        cmds.append(
            _cmd(
                "template", out, check_template,
                "template", "--lambdas", "2,3", "--omega1", "2", "--seed", s,
            )
        )
        return cmds
    raise KeyError(workload)


# -- rechecks ---------------------------------------------------------------


def _maps(report: dict) -> dict[int, dict[int, int]]:
    """Generator -> forward map of the final assignment, read from the report."""
    return {
        int(token[1:]): {n: m for n, m in pairs}
        for token, pairs in report["final"]["s"].items()
    }


def _covers(report: dict, points: int, both_sides: bool) -> list[str]:
    maps = _maps(report)
    want = set(range(points))
    problems = []
    for g in report["generators"]:
        fwd = maps.get(g, {})
        if not want <= fwd.keys():
            problems.append(f"g{g}: domain misses {sorted(want - fwd.keys())[:5]}")
        if both_sides and not want <= set(fwd.values()):
            problems.append(f"g{g}: image misses {sorted(want - set(fwd.values()))[:5]}")
    return problems


def check_cofinitary_build(report: dict, points: int) -> list[str]:
    """Recompute every recorded frozen fix set on the final assignment."""
    from cofinitary.evaluation import EMPTY_GROUND, Assignment, fix_points
    from cofinitary.words import parse_word

    problems = [f"violation: {v}" for v in report["violations"]]
    s = Assignment.from_json(report["final"]["s"])
    if set(report["frozen_fix"]) != set(report["final"]["F"]):
        problems.append("frozen_fix and the final side set differ")
    for text, rec in report["frozen_fix"].items():
        res = fix_points(parse_word(text), s, EMPTY_GROUND)
        if not res.exact or sorted(res.points) != rec["fix"]:
            problems.append(f"{text}: recorded fix {rec['fix']}, recomputed {sorted(res.points)}")
    return problems + _covers(report, points, both_sides=True)


def check_variant_build(report: dict, points: int) -> list[str]:
    """Recompute each pairwise agreement set (adp, edf) or 1-set (mad)."""
    problems = [f"violation: {v}" for v in report["violations"]]
    maps = _maps(report)
    frozen = report["frozen_fix"]
    if report["mode"] == "mad":
        stage = {int(text[1:]): rec["stage"] for text, rec in frozen.items()}
        for text, rec in frozen.items():
            g = int(text[1:])
            ones_g = {n for n, v in maps.get(g, {}).items() if v == 1}
            now: set[int] = set()
            for b, st in stage.items():
                if st < rec["stage"]:
                    now |= ones_g & {n for n, v in maps.get(b, {}).items() if v == 1}
            if sorted(now) != rec["fix"]:
                problems.append(f"{text}: recorded 1-set {rec['fix']}, recomputed {sorted(now)}")
    else:
        for text, rec in frozen.items():
            a_tok, b_tok = text.split()
            fa, fb = maps.get(int(a_tok[1:]), {}), maps.get(int(b_tok[1:-3]), {})
            now = sorted(n for n, v in fa.items() if fb.get(n) == v)
            if now != rec["fix"]:
                problems.append(f"{text}: recorded agreement {rec['fix']}, recomputed {now}")
    expected = len(report["generators"])
    if report["mode"] != "mad":
        expected = expected * (expected - 1) // 2
    if len(frozen) != expected:
        problems.append(f"{len(frozen)} frozen entries, expected {expected}")
    return problems + _covers(report, points, both_sides=report["mode"] == "adp")


def check_ffp(report: dict, samples: int) -> list[str]:
    return [
        f"clause {c['name']}: passed={c['passed']} checks={c['checks']}"
        for c in report["clauses"]
        if not c["passed"] or c["checks"] != samples
    ]


def check_hit_density(report: dict, samples: int) -> list[str]:
    problems = [f"miss {m}" for m in report["misses"]]
    if len(report["conditions"]) != samples:
        problems.append(f"{len(report['conditions'])} conditions, expected {samples}")
    return problems


def check_suslin(report: dict, samples: int) -> list[str]:
    problems = []
    if report["failures"]:
        problems.append(f"{report['failures']} suslin failures")
    if report["samples"] != samples:
        problems.append(f"{report['samples']} samples, expected {samples}")
    return problems


def check_template(report: dict) -> list[str]:
    problems = [f"clause {a['clause']}: {a['detail']}" for a in report["axioms"]]
    if report["interval_nesting_failures"]:
        problems.append(f"{report['interval_nesting_failures']} interval nesting failures")
    if "rank" not in report:
        problems.append("no rank reported")
    return problems
