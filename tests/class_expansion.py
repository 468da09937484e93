"""Expand a cofinitary build report's frozen classes to every hat word.

A cofinitary build freezes one hat word per class under rotation and
inversion and records that word's fixed points.  The rest of the class is
read through the bijection, on partial injections:

    w = uv:  n -> e_v(n) maps Fix(uv) onto Fix(vu),  and  Fix(w^-1) = Fix(w).

expand() does that from the report's JSON alone, with its own word walks;
check() compares the result with the fix set of every hat word up to the
report's word budget on the final assignment, which is what the build
recorded when it froze every hat word.  It reads them from
evaluation.fix_sets walks of the hat words' trie, one per first-applied
letter, which the build does not use: it freezes through fix_points.

    PYTHONPATH=src python tests/class_expansion.py REPORT.json [...]

prints each problem and exits 1 when a report has any.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

Letter = tuple[int, int]  # (generator, sign)


def parse(text: str) -> tuple[Letter, ...]:
    """The letters of a word in the report's text form (`g3^-2 g1`)."""
    letters: list[Letter] = []
    for chunk in text.split():
        gen, _, exp = chunk[1:].partition("^")
        k = int(exp or 1)
        letters += [(int(gen), 1 if k > 0 else -1)] * abs(k)
    return tuple(letters)


def text(letters: tuple[Letter, ...]) -> str:
    """The report's text form of reduced letters."""
    parts: list[str] = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        gen, sign = letters[i]
        exp = sign * (j - i)
        parts.append(f"g{gen}" if exp == 1 else f"g{gen}^{exp}")
        i = j
    return " ".join(parts)


def is_hat(letters: tuple[Letter, ...]) -> bool:
    gens = {g for g, _ in letters}
    return letters[0][0] != letters[-1][0] or len(gens) == 1


def _maps(report: dict) -> dict[Letter, dict[int, int]]:
    """(g, +1) -> g's forward map and (g, -1) -> its inverse."""
    maps: dict[Letter, dict[int, int]] = {}
    for token, pairs in report["final"]["s"].items():
        g = int(token[1:])
        maps[(g, 1)] = {n: m for n, m in pairs}
        maps[(g, -1)] = {m: n for n, m in pairs}
    return maps


def _apply(letters: tuple[Letter, ...], maps, n: int):
    """e at n of the word with these letters, rightmost first; None where
    a lookup fails."""
    for letter in reversed(letters):
        n = maps.get(letter, {}).get(n)
        if n is None:
            return None
    return n


def expand(report: dict) -> tuple[dict[str, list[int]], list[str]]:
    """(hat word text -> fix set read through the bijection from its
    class's recorded set, problems).  A problem is a class whose members
    get two sets, a recorded "hat_words" that is not the number of hat
    words in the class, or a hat word reached from two records."""
    maps = _maps(report)
    out: dict[str, list[int]] = {}
    problems: list[str] = []
    for name, entry in report["frozen_fix"].items():
        word = parse(name)
        inverse = tuple((g, -s) for g, s in reversed(word))
        fix = entry["fix"]
        members: dict[str, list[int]] = {}
        for t in (word, inverse):  # Fix(w^-1) = Fix(w)
            for i in range(len(t)):
                u, v = t[:i], t[i:]  # t = uv; rotation vu
                rotated = v + u
                if not is_hat(rotated):
                    continue
                key = text(rotated)
                points = [_apply(v, maps, n) for n in fix]
                if None in points:
                    problems.append(f"{name}: a recorded point leaves the maps along {key}")
                    continue
                points.sort()
                if members.setdefault(key, points) != points:
                    problems.append(f"{name}: rotation {key} gets {members[key]} and {points}")
        if entry.get("hat_words") != len(members):
            problems.append(
                f"{name}: hat_words {entry.get('hat_words')}, but its class has {len(members)}"
            )
        for key, points in members.items():
            if key in out:
                problems.append(f"{key}: in the classes of two records")
            out[key] = points
    return out, problems


def check(report: dict) -> list[str]:
    """Every hat word up to the word budget gets, by expand, exactly its
    fix set on the final assignment (evaluation.fix_sets); the recorded
    hat_words add up to the number of hat words."""
    from cofinitary.evaluation import Assignment, fix_sets
    from cofinitary.words import format_word, hat_words

    expanded, problems = expand(report)
    s = Assignment.from_json(report["final"]["s"])
    words = hat_words(report["generators"], report["word_budget"])
    total = sum(entry["hat_words"] for entry in report["frozen_fix"].values())
    if total != len(words):
        problems.append(f"hat_words add up to {total}, not {len(words)}")
    # one walk per first-applied letter: the walks share no trie node, so
    # only one group's trie and fix sets are held at a time
    groups: dict[tuple[int, int], list] = {}
    for w in words:
        groups.setdefault(w.letters[-1], []).append(w)
    for group in groups.values():
        fix = fix_sets([w.letters for w in group], s)
        for w in group:
            name = format_word(w)
            want = sorted(fix[w.letters])
            got = expanded.pop(name, None)
            if got != want:
                problems.append(f"{name}: expanded {got}, fix set {want}")
    problems += [f"{name}: expanded, but no hat word of the budget" for name in expanded]
    return problems


def main(paths: list[str]) -> int:
    bad = 0
    for path in paths:
        problems = check(json.loads(Path(path).read_text()))
        for p in problems:
            print(f"{path}: {p}")
        print(f"{path}: {'ok' if not problems else f'{len(problems)} problems'}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
