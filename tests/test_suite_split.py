"""The ffp-suite's samples split across forked children: every worker count
gives the serial run's clauses, witnesses included, a clause's witness is
its first failing sample's, a chunk that dies is an internal error naming
its samples, and no child outlives a call.  Children are started only by
the code under test; the worker count is forced through
os.sched_getaffinity, and the `clean` and `forks` fixtures live in
conftest.py."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from cofinitary import poset, sampling, suslin
from cofinitary.cli import main
from cofinitary.extension import ContractViolation
from cofinitary.poset import PosetMode, leq
from cofinitary.sampling import Draws, TrialWorkerLost, split_samples
from cofinitary.suslin import FFP_CHUNK_FLOOR, FFP_CLAUSES, ffp_axiom_suite

SAMPLES = 4 * FFP_CHUNK_FLOOR  # four full chunks at four workers


def permissive(p, q):
    return p.s.contains(q.s) and p.words >= q.words


# leq_override mutants -> the clauses each must fail
MUTANTS = {
    "permissive": (permissive, {"freeze-guard"}),
    "always": (lambda p, q: True, {"freeze-guard"}),
    "maps-only": (lambda p, q: p.s.contains(q.s), {"freeze-guard"}),
    "never": (lambda p, q: False, set(FFP_CLAUSES) - {"freeze-guard"}),
    "flipped": (lambda p, q: leq(q, p), set(FFP_CLAUSES) - {"freeze-guard"}),
}


def on_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def serial(mode, samples, seed, override=None):
    """The suite's clauses from one chunk over every sample, in this process."""
    return suslin._suite_chunk(mode, seed, override, 0, samples)


def as_lists(results):
    return [[r.passed, r.checks, r.witness] for r in results]


@pytest.mark.parametrize("mode", list(PosetMode))
def test_every_worker_count_is_the_serial_run(monkeypatch, mode, forks, clean):
    want = serial(mode, SAMPLES, 3)
    assert all(passed for passed, _, _ in want)
    for k in range(1, 5):
        on_cpus(monkeypatch, k)
        assert as_lists(ffp_axiom_suite(mode, SAMPLES, 3)) == want, k
    assert len(forks) == 0 + 1 + 2 + 3


@pytest.mark.parametrize("seed", [3, 7, 1009])
def test_a_mutants_witnesses_are_the_serial_runs(monkeypatch, seed, clean):
    # the mutant fails in every chunk, each time at another sample, so
    # chunks joined out of order or a later chunk's witness would show
    chunks = [suslin._suite_chunk(PosetMode.COFINITARY, seed, permissive, lo, lo + 100)
              for lo in range(0, SAMPLES, 100)]
    assert len({chunk[-1][2] for chunk in chunks}) == 4
    assert all(not chunk[-1][0] for chunk in chunks)
    want = serial(PosetMode.COFINITARY, SAMPLES, seed, permissive)
    for k in range(1, 5):
        on_cpus(monkeypatch, k)
        got = ffp_axiom_suite(PosetMode.COFINITARY, SAMPLES, seed, leq_override=permissive)
        assert [r.name for r in got] == list(FFP_CLAUSES)
        assert as_lists(got) == want, k


@pytest.mark.parametrize("name", list(MUTANTS))
@pytest.mark.parametrize("mode", list(PosetMode))
def test_every_mutant_is_caught(monkeypatch, mode, name, clean):
    mutant, failing = MUTANTS[name]
    for samples, cpus in ((25, 1), (SAMPLES, 4)):
        on_cpus(monkeypatch, cpus)
        results = ffp_axiom_suite(mode, samples, 7, leq_override=mutant)
        assert {r.name for r in results if not r.passed} == failing, samples
        assert all(r.witness for r in results if not r.passed)
        assert all(r.checks == samples for r in results)


def test_chunks_join_in_sample_order(clean):
    assert split_samples(lambda lo, hi: [lo, hi], 10, 4) == [[0, 2], [2, 5], [5, 7], [7, 10]]


# -- the first failing sample -------------------------------------------------


class Marked(Draws):
    """Draws that records the sample its last reseed started."""

    at = None

    def seed(self, a=None, version=2):
        Marked.at = None if a is None else a % 1_000_003
        super().seed(a, version)


def raise_at(monkeypatch, intercept, name, bad):
    """Make suslin's calls of poset's `name` raise at the samples in bad,
    naming the sample."""
    real = getattr(poset, name)

    def op(*args):
        if Marked.at in bad:
            raise ValueError(f"sample {Marked.at}")
        return real(*args)

    monkeypatch.setattr(suslin, "Draws", Marked)
    if name in vars(suslin):  # bound by name, not reached through poset
        monkeypatch.setattr(suslin, name, op)
    else:
        intercept(suslin, poset, **{name: op})


@pytest.mark.parametrize("op, clause", [("merge_disjoint", "disjoint-merge"),
                                        ("add_words", "side-set-growth")])
@pytest.mark.parametrize("bad", [{30, 60}, {130, 370}, {390, 399}])
def test_a_clause_keeps_its_first_failure(monkeypatch, intercept, op, clause, bad, clean):
    raise_at(monkeypatch, intercept, op, bad)
    for k in range(1, 5):
        on_cpus(monkeypatch, k)
        results = ffp_axiom_suite(PosetMode.ADP, SAMPLES, 3)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == [clause]
        assert failed[0].witness == f"sample {min(bad)}", k


# -- errors -------------------------------------------------------------------


def fail_in_sampling(monkeypatch, intercept, fail):
    """Make every sample_condition call of the suite call fail(sample) first."""
    real = sampling.sample_condition

    def sample_condition(rng, mode, gens):
        fail(Marked.at)
        return real(rng, mode, gens)

    monkeypatch.setattr(suslin, "Draws", Marked)
    intercept(suslin, sampling, sample_condition=sample_condition)


def die_at(sample, how):
    parent = os.getpid()

    def fail(i):
        if i == sample and os.getpid() != parent:
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
    return fail


def ffp_cli(tmp_path, samples=SAMPLES):
    return main(["ffp-suite", "--mode", "edf", "--samples", str(samples), "--seed", "3",
                 "--out", str(tmp_path / "f.json")])


@pytest.mark.parametrize("how, cause", [("signal", "died by signal 9"),
                                        ("exit", "exited with status 3")])
def test_cli_exits_1_without_a_traceback_when_a_chunk_dies(monkeypatch, intercept, capsys, tmp_path,
                                                           how, cause, clean):
    on_cpus(monkeypatch, 2)
    fail_in_sampling(monkeypatch, intercept, die_at(300, how))
    code = ffp_cli(tmp_path)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("internal error: TrialWorkerLost('samples 200..399: worker ")
    assert cause in err and "Traceback" not in err
    assert not (tmp_path / "f.json").exists()


def test_a_chunks_error_is_the_serial_runs(monkeypatch, intercept, capsys, tmp_path, forks,
                                           clean):
    def fail(i):
        if i in (250, 350):
            raise ContractViolation(f"sample {i}: random extension fails the order check")

    fail_in_sampling(monkeypatch, intercept, fail)
    for k in (1, 4):
        on_cpus(monkeypatch, k)
        assert ffp_cli(tmp_path) == 1
        assert capsys.readouterr().err == "sample 250: random extension fails the order check\n"
    assert len(forks) == 3


def test_a_dead_chunk_is_an_internal_error(monkeypatch, intercept, clean):
    fail_in_sampling(monkeypatch, intercept, die_at(150, "exit"))
    on_cpus(monkeypatch, 4)
    with pytest.raises(TrialWorkerLost, match="^samples 100..199: worker .* exited with status 3"):
        ffp_axiom_suite(PosetMode.MAD, SAMPLES, 3)


def test_below_the_floor_nothing_is_forked(monkeypatch, forks, clean):
    on_cpus(monkeypatch, 4)
    ffp_axiom_suite(PosetMode.COFINITARY, 2 * FFP_CHUNK_FLOOR - 1, 3)
    assert forks == []


# -- what a split run loads ---------------------------------------------------

SPLIT_RUNS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from cofinitary.cli import main
out = sys.argv[1]
assert main(["suslin", "--poset", "loc", "--n", "2", "--samples", "10000", "--seed", "3",
             "--out", os.path.join(out, "s.json")]) == 0
assert main(["ffp-suite", "--mode", "adp", "--samples", "500", "--seed", "3",
             "--out", os.path.join(out, "f.json")]) == 0
print(len(forks), sorted(m for m in ("pickle", "multiprocessing") if m in sys.modules))
"""


def test_a_split_run_loads_no_pickle_or_pool(tmp_path):
    # each costs the parent's peak RSS; a child loads pickle only to send an error
    src = str(Path(suslin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", SPLIT_RUNS, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "2 []"  # one child for each command
