"""The build and its verifier read frozen values through separate kernels.

A build records each frozen entry's value through poset.frozen_value: a
hat word's fixed points from evaluation.fix_points, a pair's agreement set
from poset._agreement, a letter's common 1-points from poset._ones.  The
verifier recomputes them from kernels of its own (builder._frozen_values,
evaluation.fix_sets and fix_table), so a fault in one kernel cannot hide
itself by recording and checking the same wrong value.  In every mode the
kernels a build-group command's build calls and those its verifier calls
are disjoint; and a build kernel that drops a point makes the command
exit 1.  Every call counts, a kernel's calls of another kernel too.
"""

from __future__ import annotations

import sys

import pytest

from cofinitary import builder, cli, evaluation, poset

KERNELS = {
    "fix_points": evaluation,
    "fix_sets": evaluation,
    "fix_table": evaluation,
    "_agreement": poset,
    "_ones": poset,
}
PHASES = {"build": "build", "verify_cofinitary": "verify"}

# mode -> (the kernels the build calls, those the verifier calls)
EXPECTED = {
    "cofinitary": ({"fix_points"}, {"fix_sets", "fix_table"}),
    "adp": ({"_agreement"}, set()),
    "edf": ({"_agreement"}, set()),
    "mad": ({"_ones"}, set()),
}


def _swap(monkeypatch, original, replacement) -> None:
    """replacement for original in every module of the package holding it."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.partition(".")[0] == "cofinitary":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _kernels_called(monkeypatch, argv) -> dict[str, set[str]]:
    """Run the command; the kernels called inside build and inside
    verify_cofinitary, by phase."""
    phase = [None]
    called = {"build": set(), "verify": set()}

    def recording(name, kernel):
        def wrapper(*args, **kwargs):
            called[phase[-1]].add(name)
            return kernel(*args, **kwargs)

        return wrapper

    def entering(key, step):
        def wrapper(*args, **kwargs):
            phase.append(key)
            try:
                return step(*args, **kwargs)
            finally:
                phase.pop()

        return wrapper

    for name, module in KERNELS.items():
        kernel = getattr(module, name)
        _swap(monkeypatch, kernel, recording(name, kernel))
    for name, key in PHASES.items():
        step = getattr(builder, name)
        _swap(monkeypatch, step, entering(key, step))
    assert cli.main(argv) == cli.OK
    return called


@pytest.mark.parametrize("mode", list(EXPECTED))
def test_the_build_and_the_verifier_share_no_kernel(mode, monkeypatch, tmp_path, capsys):
    argv = ["build-group", "--mode", mode, "--generators", "3", "--points", "30", "--seed", "3",
            "--out", str(tmp_path / "report.json")]
    if mode == "cofinitary":
        argv += ["--max-word-len", "4"]
    called = _kernels_called(monkeypatch, argv)
    assert not called["build"] & called["verify"]
    assert (called["build"], called["verify"]) == EXPECTED[mode]


def _drops_its_largest(kernel):
    def mutant(*args):
        points = kernel(*args)
        return points - {max(points)} if points else points

    return mutant


@pytest.mark.parametrize("mode, kernel", [
    ("adp", "_agreement"), ("edf", "_agreement"), ("mad", "_ones"),
])
def test_a_build_kernel_that_drops_a_point_fails_the_command(
    mode, kernel, monkeypatch, tmp_path, capsys
):
    out = tmp_path / "report.json"
    argv = ["build-group", "--mode", mode, "--generators", "4", "--points", "200", "--seed", "3",
            "--out", str(out)]
    monkeypatch.setattr(poset, kernel, _drops_its_largest(getattr(poset, kernel)))
    assert cli.main(argv) == cli.VIOLATION
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(": frozen at stage " in line for line in lines)
