"""Seeded random generators for conditions and their extensions, and the
splitter that runs independent samples on every usable CPU.

Sampling steps one point phase per call (extension.PointPhase), so every
sampled extension is an extension by construction; tests that want raw
(possibly invalid) material build it by hand.
"""

from __future__ import annotations

import json
import os
import random
import threading
from functools import partial
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

from . import poset
from .evaluation import Assignment, PartialMap
from .extension import PointPhase
from .poset import DISCIPLINES, Condition, PosetMode, pair_word, side_words
from .words import Word, single

_ONE = 1  # randrange's default step, compared by identity as random.Random does


class Draws(random.Random):
    """random.Random whose randrange, choice and sample read getrandbits
    directly, in the order and amounts the base methods do, so a seed gives
    the same values; each draw saves the base methods' _randbelow call.
    sample takes the pool path for populations of at most 21, where the
    base method takes it for every sample size.  Any other call goes to
    the base method."""

    def randrange(self, start, stop=None, step=_ONE):
        if step is _ONE and start.__class__ is int:
            if stop is None:
                base, n = 0, start
            elif stop.__class__ is int:
                base, n = start, stop - start
            else:
                n = 0
            if n > 0:
                k = n.bit_length()
                r = self.getrandbits(k)
                while r >= n:
                    r = self.getrandbits(k)
                return base + r
        return super().randrange(start, stop, step)

    def choice(self, seq):
        n = len(seq)
        if not n:
            return super().choice(seq)
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return seq[r]

    def sample(self, population, k, *, counts=None):
        cls = population.__class__
        if counts is not None or not (cls is list or cls is tuple or cls is range):
            return super().sample(population, k, counts=counts)
        n = len(population)
        if n > 21 or not 0 <= k <= n:
            return super().sample(population, k)
        getrandbits = self.getrandbits
        pool = list(population)
        result = [None] * k
        for i in range(k):
            left = n - i
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[left - 1]  # move a non-selected item into the vacancy
        return result


def _draw_entries(
    rng: random.Random, mode: PosetMode, gens: Sequence[int], length: int, count: int
) -> set[Word]:
    """count random side entries of the mode's shape over gens: hat words of
    length <= length, pairs a b^-1 or single letters; none when gens admit
    no entry."""
    shape = DISCIPLINES[mode].shape
    if shape == "hat":
        pool = side_words(mode, tuple(sorted(set(gens))), length)
        draw = (lambda: rng.choice(pool)) if pool else None
    elif shape == "pair":
        draw = (lambda: pair_word(*rng.sample(gens, 2))) if len(gens) >= 2 else None
    else:
        draw = (lambda: single(rng.choice(gens)))
    return {draw() for _ in range(count)} if draw else set()


def sample_condition(
    rng: random.Random,
    mode: PosetMode,
    gens: Sequence[int],
    max_pairs: int = 4,
    max_words: int = 3,
    value_range: int = 24,
    word_len: int = 3,
) -> Condition:
    """A random valid condition, built pair by pair on a point phase so
    freezing always holds along the way."""
    gens = list(gens)
    if DISCIPLINES[mode].shape == "letter":  # distinct letters
        picked = rng.sample(gens, rng.randrange(min(max_words, len(gens)) + 1))
        words = {single(g) for g in picked}
    else:
        words = _draw_entries(rng, mode, gens, word_len, rng.randrange(max_words + 1))
    phase = PointPhase(poset.add_words(Condition(mode=mode), frozenset(words)))
    floor = partial(rng.randrange, value_range)  # drawn only for a chosen value
    for _ in range(rng.randrange(max_pairs + 1) * max(1, len(gens) // 2)):
        g = rng.choice(gens)
        n = rng.randrange(value_range)
        phase.domain(g, n, floor)
    return phase.close()


def sample_extension(
    rng: random.Random, p: Condition, avoid: Iterable[int] = (), steps: Optional[int] = None
) -> Condition:
    """A random extension of p: new pairs on p's own or fresh generators and
    extra frozen words, never touching `avoid`."""
    avoid = frozenset(avoid)
    taken = p.occurring() | avoid
    fresh_base = max(taken | {7}) + 1
    usable = sorted(p.occurring() - avoid)
    candidates = usable + [fresh_base, fresh_base + 1]
    cond = p
    if steps is None:
        steps = rng.randrange(4)
    if DISCIPLINES[p.mode].shape != "letter" and rng.random() < 0.5:
        extra = _draw_entries(rng, p.mode, sorted(set(candidates))[:4], 2, 1)
        if extra:
            cond = poset.add_words(cond, cond.words | extra)
    phase = PointPhase(cond)
    floor = partial(rng.randrange, 24)  # drawn only for a chosen value
    for _ in range(steps):
        g = rng.choice(candidates)
        n = rng.randrange(24)
        phase.domain(g, n, floor)
    return phase.close()


def sample_fresh_assignment(rng: random.Random, p: Condition) -> Assignment:
    """A small assignment on generators not occurring anywhere in p."""
    d = DISCIPLINES[p.mode]
    base = max(p.occurring() | {11}) + 1
    table = {}
    for k in range(rng.randrange(1, 3)):
        pairs = set()
        for _ in range(rng.randrange(3)):
            n, m = rng.randrange(16), rng.randrange(16)
            if d.values is not None:
                m = rng.choice(d.values)
            if all(n != a for a, _ in pairs) and (
                not d.injective or all(m != b for _, b in pairs)
            ):
                pairs.add((n, m))
        if pairs:
            table[base + k] = PartialMap(frozenset(pairs))
    return Assignment(table)


def sample_extra_words(rng: random.Random, p: Condition) -> frozenset[Word]:
    """A few more frozen entries valid for p's mode."""
    gens = sorted(p.occurring() | {0, 1})
    draws = rng.randrange(1, 3) if DISCIPLINES[p.mode].shape == "hat" else 1
    return frozenset(_draw_entries(rng, p.mode, gens, 2, draws))


# ---------------------------------------------------------------------------
# independent samples across CPUs

T = TypeVar("T")


class TrialWorkerLost(RuntimeError):
    """A forked chunk of samples ended without sending its result."""


def workers(samples: int, floor: int) -> int:
    """Processes to share samples independent draws: one per CPU this
    process may run on, at most one per floor samples.  1 where os.fork or
    the CPU set is unavailable, and while another thread runs, since a fork
    copies only the calling thread and may copy a lock another one holds."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), samples // floor))


def split_samples(
    run: Callable[[int, int], T], samples: int, workers: int, what: str = "samples"
) -> list[T]:
    """[run(lo, hi) for each of workers contiguous chunks of range(samples)],
    in chunk order: this process runs chunk 0, a forked child each other
    chunk.  A child's result comes back as JSON text, so run returns JSON
    data (lists, not tuples).  A chunk whose child cannot be started (no
    pids or descriptors left) runs here too.  Every child is reaped before
    the first chunk's error is raised; a child that dies without a result
    raises TrialWorkerLost, naming its chunk as `what lo..hi - 1`."""
    bounds = [samples * k // workers for k in range(workers + 1)]
    chunks = list(zip(bounds, bounds[1:]))
    children: dict[int, tuple[int, int]] = {}
    outcomes: dict[int, object] = {}
    try:
        for k in range(1, workers):
            try:
                children[k] = _fork_chunk(run, *chunks[k])
            except OSError:
                break
        for k, chunk in enumerate(chunks):
            if k not in children:
                try:
                    outcomes[k] = run(*chunk)
                except Exception as err:
                    outcomes[k] = err
                    break  # a later chunk cannot fail first
    finally:
        for k, (pid, fd) in children.items():
            lo, hi = chunks[k]
            outcomes[k] = _collect(pid, fd, f"{what} {lo}..{hi - 1}")
    results = []
    for k in range(workers):
        got = outcomes[k]
        if isinstance(got, BaseException):
            raise got
        results.append(got)
    return results


def _fork_chunk(run: Callable[[int, int], object], lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that runs one chunk and writes its outcome to a pipe:
    "R" and the result as JSON text, or "E" and the pickled exception;
    returns (pid, read end).  pickle is imported on the error path only:
    loading it costs the calling process about 0.5 MiB.  The child leaves
    only through os._exit, so it runs no exit handler and flushes no buffer
    it shares with this process."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                data = memoryview(b"R" + json.dumps(run(lo, hi)).encode())
            except BaseException as err:  # sent on: the parent raises it
                import pickle

                data = memoryview(b"E" + pickle.dumps(err))
            while data:
                data = data[os.write(w, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _collect(pid: int, fd: int, chunk: str) -> Union[object, BaseException]:
    """A child's outcome: read its pipe to the end, then reap it.  A child
    that exits nonzero, dies by a signal or sends nothing readable gives a
    TrialWorkerLost."""
    parts = []
    try:
        while part := os.read(fd, 1 << 16):
            parts.append(part)
    finally:
        os.close(fd)
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    data = b"".join(parts)
    lost = f"{chunk}: worker {pid} "
    if code != 0:
        how = f"died by signal {-code}" if code < 0 else f"exited with status {code}"
        return TrialWorkerLost(lost + how + " without a result")
    if data[:1] == b"R":
        return json.loads(data[1:])
    try:
        import pickle

        return pickle.loads(data[1:])
    except Exception as err:
        return TrialWorkerLost(lost + f"sent an unreadable result ({err!r})")
