"""Read a build report's goal log back as one row per goal.

A schema-2 build report writes its goal log as runs (see the README's Data
formats).  rows() expands them, from the report's JSON alone, into the
(goal, stage, witness) rows a schema-1 report held, one per goal:

- a "points" run: the point goals of points first..last, points
  ascending, then generators ascending, then domain before range where the
  mode's maps are injections, at stages stage, stage + 1, ..., taking
  count of them, with their witnesses;
- a "freeze" run: count freeze goals, the word of each stage read off
  frozen_fix (or off a later extra freeze that gives it as its first);
- any other run: one extra goal, whose text is its kind.

schema1() gives the whole report in its schema-1 form and schema1_bytes()
its bytes, written by json.dumps as a report file is.

    PYTHONPATH=src python tests/goal_log.py REPORT.json

prints one `goal stage witness` line per goal.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path
from typing import Optional

from cofinitary.poset import DISCIPLINES, PosetMode
from cofinitary.writer import encode_report

Row = tuple[str, int, Optional[int]]


def rows(report: dict) -> list[Row]:
    gens = report["generators"]
    ways = ("domain", "range") if DISCIPLINES[PosetMode(report["mode"])].injective else ("domain",)
    words = {entry["stage"]: text for text, entry in report["frozen_fix"].items()}
    for run in report["goal_log"]:
        if run["kind"].startswith("freeze:") and run["first"] is not None:
            words[run["first"]] = run["kind"][len("freeze:"):]
    out: list[Row] = []
    for run in report["goal_log"]:
        kind, stage, count = run["kind"], run["stage"], run["count"]
        stages = range(stage, stage + count)
        if kind == "points":
            goals = (
                f"{way}:g{g}@{n}"
                for n in range(run["first"], run["last"] + 1) for g in gens for way in ways
            )
            out += zip(islice(goals, count), stages, run["witnesses"])
        elif kind == "freeze":
            out += [(f"freeze:{words[st]}", st, None) for st in stages]
        else:
            out.append((kind, stage, run["witnesses"][0]))
    return out


def schema1(report: dict) -> dict:
    goals = [{"goal": g, "stage": st, "witness": w} for g, st, w in rows(report)]
    return {**report, "schema": "1", "goal_log": goals}


def schema1_bytes(data: bytes) -> bytes:
    """The schema-1 report file of a schema-2 report file's bytes."""
    return json.dumps(schema1(json.loads(data)), sort_keys=True, indent=1).encode() + b"\n"


def logged(report) -> list[Row]:
    """The rows of a builder.BuildReport, read back from its report bytes."""
    return rows(json.loads(encode_report(report.to_json())))


def main(paths: list[str]) -> int:
    for path in paths:
        for goal, stage, witness in rows(json.loads(Path(path).read_text())):
            print(goal, stage, "null" if witness is None else witness)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
