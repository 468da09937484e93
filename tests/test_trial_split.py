"""The Suslin trials split across forked children: the chunks joined in order
are the serial run, an error is the one the serial run raises first, a child
that dies without a result is an internal error, and no child outlives a
call.  Children are started only by the code under test, a few at a time;
fork and pipe failures are simulated by patching os.fork and os.pipe."""

import errno
import os
import signal
import threading
from functools import partial
from itertools import chain

import pytest

import suslin_reference as ref
from cofinitary import sampling, suslin
from cofinitary.cli import main
from cofinitary.extension import ContractViolation
from cofinitary.sampling import Draws, TrialWorkerLost, split_samples

CASES = [("hechler", 1), ("hechler", 2), ("loc", 1), ("loc", 2)]
SAMPLES = (0, 1, 3, 1001, 2999)
SEEDS = (3, 11, 1009)


def split_failures(poset, n, seed, samples, k):
    """The failing trials of range(samples), run as k chunks."""
    run = partial(suslin._trial_failures, poset, n, seed)
    return list(chain.from_iterable(split_samples(run, samples, k, "trials")))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("poset, n", CASES)
def test_split_is_the_serial_run(poset, n, seed, clean):
    # the reference draws each trial from a fresh Random, so a shorter run's
    # failures are the prefix of a longer one's
    reference = ref.n_suslin_trial(poset, n, max(SAMPLES), seed)
    if (poset, n) == ("loc", 1):
        assert len(reference) > 100  # the order of failure_seeds is checked too
    for samples in SAMPLES:
        serial = suslin._trial_failures(poset, n, seed, 0, samples)
        assert serial == [t for t in reference if t < samples]
        for workers in range(1, 5):
            assert split_failures(poset, n, seed, samples, workers) == serial, (
                samples, workers)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


def test_one_worker_forks_nothing(forks, clean):
    assert split_failures("loc", 1, 3, 2000, 1) == suslin._trial_failures(
        "loc", 1, 3, 0, 2000)
    assert forks == []


# -- errors ------------------------------------------------------------------


class Marked(Draws):
    """Draws that knows the trial its last reseed started."""

    trial = None

    def seed(self, a=None, version=2):
        self.trial = None if a is None else a % 1_000_003
        super().seed(a, version)


def fail_in_draw(monkeypatch, poset, fail):
    """Make every draw of the poset call fail(trial) first."""
    name = {"hechler": "_dom_draw", "loc": "_loc_draw"}[poset]
    real = getattr(suslin, name)

    def draw(rng, n):
        fail(rng.trial)
        return real(rng, n)

    monkeypatch.setattr(suslin, "Draws", Marked)
    monkeypatch.setattr(suslin, name, draw)


def raise_at(bad):
    def fail(t):
        if t in bad:
            raise ContractViolation(f"trial {t}: random extension fails the order check")
    return fail


@pytest.mark.parametrize(
    "workers, bad, first",
    [(2, {2500}, 2500), (2, {100, 2500}, 100), (3, {1600, 2600}, 1600), (4, {0, 2999}, 0),
     (4, {2999}, 2999)],
)
def test_the_serial_runs_error_is_raised(monkeypatch, workers, bad, first, clean):
    fail_in_draw(monkeypatch, "loc", raise_at(bad))
    with pytest.raises(ContractViolation) as serial:
        suslin._trial_failures("loc", 2, 3, 0, 3000)
    with pytest.raises(ContractViolation) as split:
        split_failures("loc", 2, 3, 3000, workers)
    assert str(split.value) == str(serial.value)
    assert str(split.value).startswith(f"trial {first}:")


def test_cli_reports_a_childs_error_as_the_serial_run(monkeypatch, capsys, tmp_path, forks,
                                                       clean):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    fail_in_draw(monkeypatch, "hechler", raise_at({2500}))
    code = main(["suslin", "--poset", "hechler", "--n", "1", "--samples", "3000", "--seed",
                 "3", "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert len(forks) == 2  # three chunks: 2500 is in a child's
    assert code == 1
    assert err == "trial 2500: random extension fails the order check\n"


def die_at(trial, how):
    parent = os.getpid()

    def fail(t):
        if t == trial and os.getpid() != parent:
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
    return fail


@pytest.mark.parametrize("how, cause", [("signal", "died by signal 9"),
                                        ("exit", "exited with status 3")])
def test_a_child_that_dies_is_an_internal_error(monkeypatch, how, cause, clean):
    fail_in_draw(monkeypatch, "loc", die_at(2500, how))
    with pytest.raises(TrialWorkerLost, match=f"trials 1500..2999: worker .* {cause}"):
        split_failures("loc", 2, 3, 3000, 2)


def test_an_earlier_dead_child_comes_before_a_later_error(monkeypatch, clean):
    dead = die_at(1200, "exit")

    def fail(t):
        dead(t)
        raise_at({2200})(t)

    fail_in_draw(monkeypatch, "loc", fail)
    with pytest.raises(TrialWorkerLost, match="trials 1000..1999"):
        split_failures("loc", 2, 3, 3000, 3)


def test_an_unpicklable_error_is_an_internal_error(monkeypatch, clean):
    def fail(t):
        if t == 2500:
            err = ContractViolation("carries a lambda")
            err.hook = lambda: None
            raise err

    fail_in_draw(monkeypatch, "loc", fail)
    with pytest.raises(TrialWorkerLost, match="exited with status 1"):
        split_failures("loc", 2, 3, 3000, 2)


@pytest.mark.parametrize("how", ["signal", "exit"])
def test_cli_exits_1_without_a_traceback_when_a_child_dies(monkeypatch, capsys, tmp_path, how,
                                                           clean):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fail_in_draw(monkeypatch, "loc", die_at(7000, how))
    code = main(["suslin", "--poset", "loc", "--n", "2", "--samples", "10000", "--seed", "3",
                 "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("internal error: TrialWorkerLost('trials 5000..9999: worker ")
    assert "Traceback" not in err


# -- when the split does not fork --------------------------------------------


def test_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    got = {s: sampling.workers(s, suslin.CHUNK_FLOOR)
           for s in (0, 999, 1999, 2000, 5500, 10_000)}
    assert got == {0: 1, 999: 1, 1999: 1, 2000: 2, 5500: 5, 10_000: 8}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert sampling.workers(10_000, suslin.CHUNK_FLOOR) == 1


def fork_fails(monkeypatch, after=0):
    """os.fork fails once `after` real forks were made; returns the calls."""
    calls = []
    real = os.fork

    def fork():
        calls.append(os.getpid())
        if len(calls) > after:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.parametrize("after", [0, 1, 2])
def test_a_fork_that_fails_runs_its_chunks_here(monkeypatch, after, clean):
    calls = fork_fails(monkeypatch, after)
    serial = suslin._trial_failures("loc", 1, 11, 0, 2999)
    assert split_failures("loc", 1, 11, 2999, 4) == serial
    assert len(calls) == after + 1  # no fork is tried after one failed


def test_a_childs_error_comes_before_a_later_chunk_run_here(monkeypatch, clean):
    # chunk 1 runs in a child, chunks 0 and 2 here: chunk 1 fails first
    calls = fork_fails(monkeypatch, after=1)
    fail_in_draw(monkeypatch, "loc", raise_at({1500, 2500}))
    with pytest.raises(ContractViolation, match="^trial 1500:"):
        split_failures("loc", 2, 3, 3000, 3)
    assert len(calls) == 2


def test_a_pipe_that_fails_runs_the_chunk_here(monkeypatch, forks, clean):
    def pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", pipe)
    serial = suslin._trial_failures("loc", 1, 3, 0, 2000)
    assert split_failures("loc", 1, 3, 2000, 2) == serial
    assert forks == []


def test_cli_runs_here_when_no_fork_can_be_made(monkeypatch, capsys, tmp_path, clean):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = fork_fails(monkeypatch)
    code = main(["suslin", "--poset", "loc", "--n", "1", "--samples", "3000", "--seed", "11",
                 "--out", str(tmp_path / "s.json")])
    assert code == 0 and len(calls) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_no_split_without_fork_or_a_cpu_set(monkeypatch, missing, clean):
    monkeypatch.delattr(os, missing)
    assert sampling.workers(10_000, suslin.CHUNK_FLOOR) == 1
    report = suslin.n_suslin_trial("loc", 1, 3000, 11)  # a fork would raise AttributeError
    assert report.failure_seeds == suslin._trial_failures("loc", 1, 11, 0, 3000)


def test_no_split_while_another_thread_runs(monkeypatch, forks, clean):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert sampling.workers(10_000, suslin.CHUNK_FLOOR) == 1
    report = suslin.n_suslin_trial("hechler", 1, 3000, 3)
    assert report.failures == 0 and forks == []
