"""The pin table of tests/pins.py, without running it.

Every row parses, its digest is its own and its argv is one the CLI's
parser takes.  The rules derived from each command pick the runs and
checks the pins had before they were one table: a second run on CPU 0 for
the 16 suslin and ffp-suite pins, a class expansion for the 14 cofinitary
builds not marked "not expanded"; each of the 25 builds also carries the
digest of its schema-1 readback (tests/goal_log.py).  The check passes on
one cheap pin, run for real; a stub command runner shows it failing, and
naming the pin, for each way a run can go wrong, and on a stub clock each
run's line showing the run's wall seconds.
"""

from __future__ import annotations

import hashlib
import json
import re
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
    f"{CHEAP} {CHEAP} template --lambdas 2,3",
], ids=["short digest", "upper-case digest", "no argv", "no reason", "readback of no build"])
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
    assert all(p.schema1 for p in builds)
    assert not any(p.schema1 for p in pins.PINS if p not in builds)
    assert len({p.schema1 for p in builds}) == 25
    assert {p.timeout for p in builds} == {120}
    assert {p.timeout for p in pins.PINS if p not in builds} == {60}

    # the rule of the old CI loop: every build but adp, edf and mad ones
    cofinitary = [p for p in builds if not {"adp", "edf", "mad"} & set(p.argv)]
    marked = [p for p in pins.PINS if p.marked]
    assert [p.argv[2] for p in marked] == ["50"]  # --generators
    assert all(p in cofinitary for p in marked)
    expanded = [p for p in pins.PINS if p.expanded]
    assert expanded == [p for p in cofinitary if p not in marked]
    assert len(expanded) == 14


def test_the_cheap_pin_passes(capsys):
    assert pins.check(_pin(CHEAP)) == []
    (line,) = capsys.readouterr().out.splitlines()
    head, wall = line.rsplit(" ", 1)
    assert head == f"template --lambdas 2,3 --omega1 2 --seed 3 cpus=all exit=0 {CHEAP}"
    assert re.fullmatch(r"wall=\d+\.\d\ds", wall) and 0 < float(wall[5:-1]) < 60


# -- a stub command runner ------------------------------------------------------

GOOD = json.dumps({"a": [1, 2]}, sort_keys=True, indent=1).encode() + b"\n"
NOT_DUMPS = b'{"a": [1, 2]}\n'


def _stub(report: bytes, code=0, stderr="", calls=None, clock=None, seconds=0.0):
    """A runner that writes the report and returns (code, stderr); with a
    clock (a one-item list that stands for pins.perf_counter) each run
    takes `seconds` on it."""

    def run(argv, out, cpus, timeout):
        if calls is not None:
            calls.append((argv, cpus, timeout))
        if clock is not None:
            clock[0] += seconds
        out.write_bytes(report)
        return code, stderr

    return run


@pytest.fixture
def clock(monkeypatch):
    """pins.perf_counter, read from the list's one item."""
    now = [1000.0]
    monkeypatch.setattr(pins, "perf_counter", lambda: now[0])
    return now


@pytest.mark.parametrize("report, pinned, code, stderr, problem", [
    (GOOD, NOT_DUMPS, 0, "", "the digest differs"),
    (GOOD, GOOD, 0, "a stray line\n", "stderr is not empty"),
    (GOOD, GOOD, 1, "", "exit 1"),
    (GOOD, GOOD, "timeout", "", "exit timeout"),
    (NOT_DUMPS, NOT_DUMPS, 0, "", "the report is not json.dumps of its contents"),
    (b"{", b"{", 0, "", "the report is not JSON"),
], ids=["digest", "stderr", "exit", "timeout", "not json.dumps", "not json"])
def test_a_failing_run_names_the_pin(report, pinned, code, stderr, problem, capsys, clock):
    pin = replace(_pin(CHEAP), digest=hashlib.sha256(pinned).hexdigest())
    (failure,) = pins.check(pin, _stub(report, code, stderr, clock=clock, seconds=61.5))
    head, digest, err = failure.splitlines()
    assert head == f"FAILED template --lambdas 2,3 --omega1 2 --seed 3 cpus=all: {problem}"
    assert digest == f"  pinned digest {pin.digest}"
    assert err == f"  stderr: {stderr!r}"
    # the run's line still shows its exit code, digest and time
    (line,) = capsys.readouterr().out.splitlines()
    assert line == (f"template --lambdas 2,3 --omega1 2 --seed 3 cpus=all exit={code} "
                    f"{hashlib.sha256(report).hexdigest()} wall=61.50s")


def test_each_run_line_shows_its_wall_seconds(capsys, clock):
    pin = replace(_pin(CHEAP), digest=hashlib.sha256(GOOD).hexdigest())
    assert pins.check(pin, _stub(GOOD, clock=clock, seconds=2.5)) == []
    assert capsys.readouterr().out.splitlines() == [
        f"template --lambdas 2,3 --omega1 2 --seed 3 cpus=all exit=0 {pin.digest} wall=2.50s"
    ]
    # a split command's two runs are timed one by one
    suslin = replace(pins.PINS[0], digest=pin.digest)
    assert pins.check(suslin, _stub(GOOD, clock=clock, seconds=0.25)) == []
    assert [line.rpartition(" ")[2] for line in capsys.readouterr().out.splitlines()] == [
        "wall=0.25s", "wall=0.25s"
    ]


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
    pin = _pin("a019b45a884efa36815f4dfe5a509f335ba0e6293d3f3fba4f87fde596eeecda")
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


def test_a_build_is_read_back_to_its_schema_1_digest(tmp_path, capsys):
    # the real report passes; a report whose goal log reads back to other
    # rows fails on its readback digest alone, and one that cannot be read
    # back fails its run
    pin = _pin("92618b3f7acc83fd310e0fb138a51d4d3da833493338fabc539030ad2fd6c26f")
    assert pins.run_cli(pin.argv, tmp_path / "r.json", None, pin.timeout) == (0, "")
    report = (tmp_path / "r.json").read_bytes()
    assert pins.check(pin, _stub(report)) == []
    payload = json.loads(report)
    payload["goal_log"][0]["witnesses"][0] += 1
    report = json.dumps(payload, sort_keys=True, indent=1).encode() + b"\n"
    (failure,) = pins.check(replace(pin, digest=hashlib.sha256(report).hexdigest(), marked=True),
                            _stub(report))
    assert failure.startswith(f"FAILED {' '.join(pin.argv)} cpus=all: "
                              "the schema-1 readback's digest is ")
    del payload["goal_log"]
    report = json.dumps(payload, sort_keys=True, indent=1).encode() + b"\n"
    (failure,) = pins.check(replace(pin, digest=hashlib.sha256(report).hexdigest(), marked=True),
                            _stub(report))
    assert failure.startswith(f"FAILED {' '.join(pin.argv)} cpus=all: "
                              "the schema-1 readback raised KeyError('goal_log')")
