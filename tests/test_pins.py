"""The pin table of tests/pins.py, without running it.

Every row parses, its digest is its own and its argv is one the CLI's
parser takes.  The rules derived from each command pick the runs and
checks the pins had before they were one table: a second run on CPU 0 for
the 16 suslin and ffp-suite pins, a class expansion for the 13 cofinitary
builds not marked "not expanded".  The check passes on one cheap pin, run
for real; a stub command runner shows it failing, and naming the pin, for
each way a run can go wrong.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

import pins
from cofinitary import cli

CHEAP = "083a1c68e84519ad22f9b825ebde01ac645b2f80c99d31b15b5585ef578a5a47"


def _pin(digest: str) -> pins.Pin:
    (pin,) = [p for p in pins.PINS if p.digest == digest]
    return pin


def test_every_row_parses_and_the_digests_are_distinct():
    rows = [line for line in pins.TABLE.splitlines() if line and not line.startswith("#")]
    assert len(rows) == len(pins.PINS) == 48
    assert len({p.digest for p in pins.PINS}) == 48
    assert len({p.argv for p in pins.PINS}) == 48


@pytest.mark.parametrize("row", [
    "083a1c68 template --lambdas 2,3",
    "083A1C68E84519AD22F9B825EBDE01AC645B2F80C99D31B15B5585EF578A5A47 template",
    f"{CHEAP}",
    f"{CHEAP} build-group --seed 0 | not expanded: ",
], ids=["short digest", "upper-case digest", "no argv", "no reason"])
def test_a_broken_row_is_refused(row):
    with pytest.raises(ValueError):
        pins.parse(row)


def test_every_argv_parses():
    parser = cli._build_parser()
    for pin in pins.PINS:
        assert parser.parse_args(pin.argv).command == pin.argv[0]


def test_the_derived_rules():
    twice = [p for p in pins.PINS if p.cpu_sets == (None, frozenset({0}))]
    assert len(twice) == 16
    assert {p.argv[0] for p in twice} == {"suslin", "ffp-suite"}
    assert all(p.cpu_sets == (None,) for p in pins.PINS if p not in twice)

    builds = [p for p in pins.PINS if p.argv[0] == "build-group"]
    assert len(builds) == 25
    assert {p.timeout for p in builds} == {120}
    assert {p.timeout for p in pins.PINS if p not in builds} == {60}

    # the rule of the old CI loop: every build but adp, edf and mad ones
    cofinitary = [p for p in builds if not {"adp", "edf", "mad"} & set(p.argv)]
    marked = [p for p in pins.PINS if p.marked]
    assert [p.argv[2] for p in marked] == ["1", "50"]  # --generators
    assert all(p in cofinitary for p in marked)
    expanded = [p for p in pins.PINS if p.expanded]
    assert expanded == [p for p in cofinitary if p not in marked]
    assert len(expanded) == 13


def test_the_cheap_pin_passes(capsys):
    assert pins.check(_pin(CHEAP)) == []
    (line,) = capsys.readouterr().out.splitlines()
    assert line == f"template --lambdas 2,3 --omega1 2 --seed 3 cpus=all exit=0 {CHEAP}"


# -- a stub command runner ------------------------------------------------------

GOOD = json.dumps({"a": [1, 2]}, sort_keys=True, indent=1).encode() + b"\n"
NOT_DUMPS = b'{"a": [1, 2]}\n'


def _stub(report: bytes, code=0, stderr="", calls=None):
    def run(argv, out, cpus, timeout):
        if calls is not None:
            calls.append((argv, cpus, timeout))
        out.write_bytes(report)
        return code, stderr

    return run


@pytest.mark.parametrize("report, pinned, code, stderr, problem", [
    (GOOD, NOT_DUMPS, 0, "", "the digest differs"),
    (GOOD, GOOD, 0, "a stray line\n", "stderr is not empty"),
    (GOOD, GOOD, 1, "", "exit 1"),
    (GOOD, GOOD, "timeout", "", "exit timeout"),
    (NOT_DUMPS, NOT_DUMPS, 0, "", "the report is not json.dumps of its contents"),
    (b"{", b"{", 0, "", "the report is not JSON"),
], ids=["digest", "stderr", "exit", "timeout", "not json.dumps", "not json"])
def test_a_failing_run_names_the_pin(report, pinned, code, stderr, problem, capsys):
    pin = replace(_pin(CHEAP), digest=hashlib.sha256(pinned).hexdigest())
    (failure,) = pins.check(pin, _stub(report, code, stderr))
    head, digest, err = failure.splitlines()
    assert head == f"FAILED template --lambdas 2,3 --omega1 2 --seed 3 cpus=all: {problem}"
    assert digest == f"  pinned digest {pin.digest}"
    assert err == f"  stderr: {stderr!r}"


def test_a_missing_report_fails():
    def run(argv, out, cpus, timeout):
        return 1, "build aborted: ...\n"

    (failure,) = pins.check(_pin(CHEAP), run)
    assert failure.startswith("FAILED template --lambdas 2,3 --omega1 2 --seed 3 cpus=all: "
                              "exit 1; stderr is not empty; the digest differs\n")


def test_a_split_command_runs_again_on_cpu_0(capsys):
    suslin = pins.PINS[0]
    calls = []
    failures = pins.check(suslin, _stub(b"{}\n", calls=calls))
    assert calls == [(suslin.argv, None, 60), (suslin.argv, frozenset({0}), 60)]
    assert [f.splitlines()[0].rpartition(":")[0] for f in failures] == [
        f"FAILED {' '.join(suslin.argv)} cpus=all", f"FAILED {' '.join(suslin.argv)} cpus=0",
    ]


def test_a_cofinitary_build_is_expanded(tmp_path, capsys):
    # the real report passes; one recorded fix point moved fails the class
    # expansion alone
    pin = _pin("86f4a66806a66872ac9c4fc906e541db572217efe7ccb66197babf2a35149ead")
    assert pin.expanded
    assert pins.check(pin) == []
    assert pins.run_cli(pin.argv, tmp_path / "r.json", None, pin.timeout) == (0, "")
    payload = json.loads((tmp_path / "r.json").read_bytes())
    entry = next(e for e in payload["frozen_fix"].values() if e["fix"])
    entry["fix"][0] += 1000
    report = json.dumps(payload, sort_keys=True, indent=1).encode() + b"\n"
    (failure,) = pins.check(replace(pin, digest=hashlib.sha256(report).hexdigest()), _stub(report))
    assert failure.startswith(f"FAILED {' '.join(pin.argv)} cpus=all: class expansion: ")
    # a report the expansion cannot read fails its run, and only its run
    (failure,) = pins.check(replace(pin, digest=hashlib.sha256(GOOD).hexdigest()), _stub(GOOD))
    assert failure.startswith(f"FAILED {' '.join(pin.argv)} cpus=all: class expansion raised ")
