"""References for the build report's JSON form.

plain gives a payload's dict form: every writer.Rows becomes the list of
dicts, or the dict of dicts, that it stands for, so json.dumps can write
it and a test can read it by key.  reference_to_json is the schema-1 form
of a report, BuildReport.to_json as it was before it handed the writer
rows and wrote its goal log as runs: one dict per goal, from the
(goal, stage, witness) rows given, and per frozen entry, the frozen words
sorted again by Word.sort_key, F read off the final condition and each
map's pairs as lists.  A schema-2 report read back by tests/goal_log.py
must give its bytes.
"""

from __future__ import annotations

from typing import Optional

from cofinitary.builder import BuildReport
from cofinitary.poset import DISCIPLINES
from cofinitary.words import class_hat_count, format_word
from cofinitary.writer import Rows


def plain(o):
    """o with each Rows in it replaced by its dict form."""
    if type(o) is Rows:
        if o.keyed:
            return {row[0]: dict(zip(o.fields, row[1:])) for row in o.rows}
        return [dict(zip(o.fields, row)) for row in o.rows]
    if isinstance(o, dict):
        return {k: plain(v) for k, v in o.items()}
    if isinstance(o, list):
        return [plain(x) for x in o]
    return o


def reference_to_json(report: BuildReport, goal_log: Optional[list] = None) -> dict:
    """The schema-1 dict of report with the goal rows goal_log, by default
    report.goal_log (a reference builder's rows)."""
    frozen = sorted(report.frozen_fix.items(), key=lambda kv: kv[0].sort_key())
    entries = {}
    for w, (stage, fix) in frozen:
        entry = {"stage": stage, "fix": sorted(fix)}
        if DISCIPLINES[report.mode].shape == "hat":
            entry["hat_words"] = class_hat_count(w)
        entries[format_word(w)] = entry
    return {
        "schema": "1",
        "mode": report.mode.value,
        "generators": list(report.generators),
        "point_budget": report.point_budget,
        "word_budget": report.word_budget,
        "seed": report.seed,
        "final": report.final.to_json(),
        "frozen_fix": entries,
        "goal_log": [{"goal": g, "stage": st, "witness": wit} for g, st, wit in (
            report.goal_log if goal_log is None else goal_log
        )],
    }
