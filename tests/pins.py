"""Every pinned report, and the one check each of them gets.

    PYTHONPATH=src python tests/pins.py

runs `python -m cofinitary.cli ARGV --out REPORT` for every row of the
table below, each in a fresh interpreter, and requires of every run:

- exit 0 and nothing on stderr;
- the report's pinned sha256, and for a build-group report, whose goal
  log is written as runs (schema 2), the pinned sha256 of its schema-1
  form as tests/goal_log.py reads it back, the report's digest before;
- a report that is json.dumps(json.loads(report), sort_keys=True,
  indent=1) and a newline, a check that reads no code of the writer;
- an exit within 120 s for build-group and 60 s for every other command.

The rest comes from the command too.  suslin and ffp-suite split their
samples across CPUs, so each also runs with the child on CPU 0 alone, as
`taskset -c 0` would, which takes the serial path.  A cofinitary
build-group report records one hat word per class: class_expansion.check
expands each class to all of its hat words and compares them with their
fix sets, unless the row is marked "not expanded".

Every pin runs, whatever fails before it.  One line is printed per run
(argv, CPU set, exit code, digest and the run's wall seconds, so a CI log
shows what each build took next to its digest), then each failure with
the pinned digest and the run's stderr; the exit code is 1 when any run
failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from class_expansion import check as expansion_problems
from cofinitary import cli
from goal_log import schema1_bytes

# One row per pin: the report's sha256, for a build its schema-1 readback's
# sha256, and the cofinitary argv.  A row that ends in "| not expanded: why"
# spares a cofinitary build class_expansion.
TABLE = """
# the Suslin trials at the benchmark's size: the law holds for hechler
# n = 1, 2 and loc n = 2; loc n = 1 records its failures without a
# contract to break
2799843258e2038d03f2e85038fc2229a75016ddd41e58b00e59e3b5a932995d suslin --poset hechler --n 1 --samples 10000 --seed 3
b4376ac0b2c7c2cef2fb53f110e00d2d0859a52a9d32824deb9cbdb52b6a5da9 suslin --poset hechler --n 2 --samples 10000 --seed 3
a9e71555ec0ae42efd29b43cf8a2c4330959144926c6150a3291efec3f15b964 suslin --poset loc --n 1 --samples 10000 --seed 3
74c586c9c4ecca284febd5b9beb3dcb7b36ffa394401c31f488329364958743e suslin --poset loc --n 2 --samples 10000 --seed 3
68608730e80c320b7ede008e43215aee2425e83dbb1b33cb52c3597457ba7e2e suslin --poset hechler --n 1 --samples 10000 --seed 1009
a06e25fd212aaf020067621a515a6da618df5d04a6193b7fd69fd3cde27db300 suslin --poset hechler --n 2 --samples 10000 --seed 1009
2df67b80dfefe5322b605b6f950232f54a489fc0a3174868c4c6d41ab115cb7b suslin --poset loc --n 1 --samples 10000 --seed 1009
f981d77b137fda4feab6e99b04b3d96fbd12c721da5a2981d68b51f512cb4da9 suslin --poset loc --n 2 --samples 10000 --seed 1009
# the ffp axiom suite at the benchmark's size: every clause holds in all
# four disciplines
fb6488fde59c3ffee3962a163e6a2d65b86d3b41f754ad07e14090255299439c ffp-suite --mode cofinitary --samples 500 --seed 3
a93f4c36bbfb09c18d3358524e1325ee572440f35ae8fcb8105b210a3c63526f ffp-suite --mode adp --samples 500 --seed 3
94654902de2f0beb0c10ba5c1fd020d23dafa68492b1fa22568346aecbdfc5e2 ffp-suite --mode edf --samples 500 --seed 3
7fbe92f6d1ff5e80008740a2e802215cbf6aa59922bb430c65ce56d20a9face0 ffp-suite --mode mad --samples 500 --seed 3
2e3236c500926db060203c07c4d80bcf2741cf152ef30a0640f56abc4718407b ffp-suite --mode cofinitary --samples 500 --seed 1009
99ea5161ab3b7fdad0f76b2114a10ad05070a9c29628a2292b089ce3cad42ae6 ffp-suite --mode adp --samples 500 --seed 1009
76503d3d5a2df1871e695decdea1831f5db2e19bbe847b3fb1421f0f0e7f153e ffp-suite --mode edf --samples 500 --seed 1009
1c6b37c4948895adbe2417b6b5a5f4400c74bd5a7dbb011c2f8566825bb82bb3 ffp-suite --mode mad --samples 500 --seed 1009
# hit-density reads zshift and hit_threshold.  The three-level template
# (496 positions, its family held as 205 atoms and never enumerated) and
# the (2,4) one, whose 499,664 members are past the 400,000 family cap,
# are counted from their atoms, not listed
3b7898204e3b32bbeff90388b4ebac1935ec876b5b9645a22c7dfae971d0edd1 hit-density --generators 3 --words 4 --maxN 50 --window 64 --samples 100 --seed 3
f007ccf745c40c17bb45930d5521c50677b2e26409a65692dd8c074ae7b388ae hit-density --generators 3 --words 4 --maxN 50 --window 64 --samples 100 --seed 1009
083a1c68e84519ad22f9b825ebde01ac645b2f80c99d31b15b5585ef578a5a47 template --lambdas 2,3 --omega1 2 --seed 3
33416e8d36ed96569e11a17ac4790d30b84d8b9f9df7ab307b13f944e663818b template --lambdas 2,3 --omega1 2 --seed 1009
cc1c24d74f783d701501d3fe3a6d0bf2aa17ff90069c01ffbcfc0324f1198574 template --lambdas 2,3,4 --omega1 2 --seed 3
7f19e44d542c0abf38a352a5eea64470067331eb6896b1534966f74817754da1 template --lambdas 2,3,4 --omega1 2 --seed 1009
511a5c43bd4cac46afe3ff4e30d9c5c67f088d3168c90ffba83f06372aee4262 template --lambdas 2,4 --omega1 2 --seed 3
# criterion 5, build-wide and the four build-long commands
c2746a7537c72ec48986e109fae9a2ba39cdab71baceaa884b1aeacb027a1d72 52e60301b332adc05096f03c71df62eeeb70391e0bb83d1c31c9f6732e2d2ca7 build-group --generators 4 --max-word-len 4 --points 200 --seed 3
1aabc1fe386ee4d4c69478ed7131e319cbbc24c94204d730e45a1059bddb1427 9210d8813ff1d59fe8bd527e1bc548465deb0baeae6fbe8025d0c7524986390d build-group --generators 4 --max-word-len 4 --points 200 --seed 1009
a019b45a884efa36815f4dfe5a509f335ba0e6293d3f3fba4f87fde596eeecda 86f4a66806a66872ac9c4fc906e541db572217efe7ccb66197babf2a35149ead build-group --mode cofinitary --generators 4 --max-word-len 4 --points 20 --seed 3
e2edd0a447597ab6a6f214ea7bc586cda6718b8ae3bcb5ec0ceec331c483b883 ce9d794adb02ccbdd3642c69db8f753f0d08630fe1ab624ad666750b6e5a9f04 build-group --mode cofinitary --generators 4 --max-word-len 4 --points 20 --seed 1009
92618b3f7acc83fd310e0fb138a51d4d3da833493338fabc539030ad2fd6c26f b3e28bf1b696498287f7251344a1105cd78a914a46b4f5f816ab95d8ccc0dcce build-group --mode cofinitary --generators 2 --max-word-len 2 --points 300 --seed 3
ce40cc94153c43bb3d76f4f1d53797268ac36437e47181748fea7f39fe58745f 06f3a57ef2e8a834c7971cc0781d128511106b5a9742365e7244c12790752a52 build-group --mode adp --generators 4 --points 200 --seed 3
71567adaa9191524505f32cc8b09cb977d270121bddfeceb58b39b67e328106f 2d356b3f519ecd83867ed302a0cb854193f594d36a3f3f4f03372ef57bb35e47 build-group --mode edf --generators 4 --points 200 --seed 3
5bfda275cdd0c5684b146ef02b4b00d3623f919ee48329983c1ff769acc646cb 36592ce6cf7256a3bcc6c02338543711bcdfaa23284be79fad9c343cf1216824 build-group --mode mad --generators 4 --points 200 --seed 3
5d57bee092dd5bcbab61fe868f5cb1f11526e2d460f895c5863f11becc810257 5d0098daa058ca6b97dee1b0c8a59cf88834d668862dd4818dbbd60bee1ebede build-group --mode cofinitary --generators 2 --max-word-len 2 --points 300 --seed 1009
7b60f8ca04f104edf579d0ab898de81a37e752adf80aff7b1b8dbfe7369fbb48 bb65719c9dadd6270466915761aeb993b7a5df8c60d6695cf3b2bf84f89779db build-group --mode adp --generators 4 --points 200 --seed 1009
a782cf5fe3864ac8a9e4ef17baa0730ed35377f379b01c463b5a63063f65d272 32c73547dea124b90be7582a6a8631d5b5782a55b72eb24a3a0ec750c136e89f build-group --mode edf --generators 4 --points 200 --seed 1009
f0e87449456c398cafdd5f6cdd7443781c00ac389b27960ef68415f7566dfc0c f39dbc6a06731b04987d15c75403517717d9a6630acbe92b80ea890403909a48 build-group --mode mad --generators 4 --points 200 --seed 1009
# 1,000-point builds, words up to length 5, 6 and 7, and the point phase
# at scale
03d224320afa4830f032296ce64e33e555e828781e824c89ae3d98443b45a84d 4930618f9a8f1e9ccae5918e297f39e04368ec0df93ff0f61958eebc1b5533d3 build-group --mode cofinitary --generators 2 --max-word-len 2 --points 1000 --seed 3
b29d6365d8370a0fa5677e08488fca67d6ffb1044e447c310a062a22fdfedd73 13f7a5b95127e0e4c770ee395f92d99de7697d9e620c91a0912b41c284ceeb1b build-group --mode adp --generators 4 --points 1000 --seed 3
adbd3c2c7fe0fc33f76aa5beb110558ab431813b4ff0ff1898c7f06c4f709acb 26f807e057f41747bf793b8d0208d34a18c654d07326736c9c510af9f648caad build-group --generators 4 --max-word-len 5 --points 40 --seed 3
b78653cc293df76e098a973fc2ec64d7af1002440ec2fa3bd36af4eca626664e f21afa968d05be1f93f04d92eb96f570f1c0ba0ee2a743cbb8f5d02db1136575 build-group --generators 4 --max-word-len 6 --points 20 --seed 3
9e138440621341f5c06152732b898258a9bd29b27f628d20a28cf472e9b18a04 bbd031204574b031d15d09cc77611e90e29295ff1a65928770d278c36d091765 build-group --generators 4 --max-word-len 6 --points 20 --seed 1009
5292d9aa23a2c25010fb6c315441b49d0243c33466a03243ebc17658d9ad4ea2 5416e2e08a20433a09f89cbd96b91ac0af73fd6290d9c812e8e9e76543895240 build-group --mode cofinitary --generators 2 --max-word-len 2 --points 3000 --seed 3
c2250174d1e28206f467daeeccfe4deed7e9720956fe4c47c4b64bbf36524ca4 c86d78c82d89c4f90bca957a2eb4932fa67efb59cc1e6d7ef154be50aa60c980 build-group --mode cofinitary --generators 2 --max-word-len 2 --points 10000 --seed 3
664f209df80faee5756fe0fbb2c1c52771a972767b7f2cbeed207a11e783d6b1 6a3bbf1cc99a0b8e2421745e2b574834a589c45248c10f68018131f640161a93 build-group --mode adp --generators 8 --points 2000 --seed 3
f9b52c9835d93019462bf70cc28e42240945254f99a62db6fc57351e1cbe9cca b4905b240a73f969e7219f7794a598791a01d75fcb886182a9275124558da61c build-group --mode edf --generators 4 --points 2000 --seed 3
e7f85e16224dd975aaad7744d12a579b9e575213376363a67716cbabeeb2a5b6 c79c6200f2a236be76bf8210133cdcf905ef423d6697ac07703856aae1eb007b build-group --mode mad --generators 4 --points 2000 --seed 3
35988c22970ebf22df9015d26d0ca2aa193d65ae4873fb6c81298a2763047e7e a92498f7e1e7ed7b993d46d3984d579c6534bd2cda3d3b4597b4108e89ff649e build-group --generators 4 --max-word-len 7 --points 20 --seed 3
# a word budget past Python's recursion limit: the word walkers keep their
# own stacks.  The frozen entries' order at scale: F in Word.sort_key order
# and frozen_fix in the order of the entries' texts
4715ef24c91c38f8a7aa986369159dc331f896b66f950c9635778860b5d16ec3 f60a3da6a73ceffc080d542bd6584c4de0642cbde3694e4989f47ae4f3f14e5a build-group --generators 1 --max-word-len 1000 --points 1 --seed 0
f46e0d127c4a307740e88a2d9832e8848a30d7abd762d8781b5474ceb323a3fb fddcf259fdedf74ee05d5a9b5ee0bb008228a908303df2356da5de573fab13c7 build-group --generators 50 --max-word-len 3 --points 20 --seed 3 | not expanded: all 164,300 of its classes would be expanded
"""

SPLIT = ("suslin", "ffp-suite")  # the commands that split their samples across CPUs
NOT_EXPANDED = " | not expanded: "

# the child runs the package this script imports
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)}


@dataclass(frozen=True)
class Pin:
    digest: str
    argv: tuple[str, ...]
    marked: bool = False  # "not expanded"
    schema1: Optional[str] = None  # a build's schema-1 readback digest

    @property
    def cpu_sets(self) -> tuple[Optional[frozenset], ...]:
        """The CPUs of each run; None inherits this process's."""
        return (None, frozenset({0})) if self.argv[0] in SPLIT else (None,)

    @property
    def timeout(self) -> int:
        return 120 if self.argv[0] == "build-group" else 60

    @property
    def expanded(self) -> bool:
        if self.argv[0] != "build-group" or self.marked:
            return False
        mode = cli._build_parser().parse_args(self.argv).mode
        return mode is None or mode.value == "cofinitary"


def _is_digest(text: str) -> bool:
    return len(text) == 64 and not set(text) - set("0123456789abcdef")


def parse(table: str) -> list[Pin]:
    pins = []
    for line in table.splitlines():
        if not line or line.startswith("#"):
            continue
        row, marker, why = line.partition(NOT_EXPANDED)
        digest, *argv = row.split()
        schema1 = argv.pop(0) if argv and _is_digest(argv[0]) else None
        if not _is_digest(digest) or not argv or marker and not why or (
            schema1 and argv[0] != "build-group"
        ):
            raise ValueError(f"not a pin row: {line!r}")
        pins.append(Pin(digest, tuple(argv), bool(marker), schema1))
    return pins


PINS = parse(TABLE)

# (argv, report path, CPUs or None, time limit in s) -> (exit code, stderr)
Runner = Callable[[tuple, Path, Optional[frozenset], int], tuple]


def run_cli(argv, out: Path, cpus: Optional[frozenset], timeout: int) -> tuple:
    """Run the CLI in a fresh interpreter, the child alone on cpus when
    given; (its exit code, or "timeout", and its stderr)."""
    on_cpus = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cofinitary.cli", *argv, "--out", str(out)], env=_ENV,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout, preexec_fn=on_cpus,
        )
    except subprocess.TimeoutExpired as err:
        return "timeout", (err.stderr or b"").decode(errors="replace")
    return done.returncode, done.stderr.decode(errors="replace")


def check(pin: Pin, run: Runner = run_cli) -> list[str]:
    """Run the pin once per CPU set, printing one line per run with its
    wall seconds; one text per failed run, naming the pin, with the pinned
    digest and stderr."""
    failures = []
    for cpus in pin.cpu_sets:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            start = perf_counter()
            code, stderr = run(pin.argv, out, cpus, pin.timeout)
            wall = perf_counter() - start
            report = out.read_bytes() if out.exists() else None
        digest = "no-report" if report is None else hashlib.sha256(report).hexdigest()
        where = "all" if cpus is None else ",".join(map(str, sorted(cpus)))
        name = f"{' '.join(pin.argv)} cpus={where}"
        print(f"{name} exit={code} {digest} wall={wall:.2f}s", flush=True)
        problems = [f"exit {code}"] if code != 0 else []
        if stderr:
            problems.append("stderr is not empty")
        if digest != pin.digest:
            problems.append("the digest differs")
        if report is not None:
            problems += _report_problems(report, pin.expanded)
            if pin.schema1 is not None:
                problems += _readback_problems(report, pin.schema1)
        if problems:
            failures.append(f"FAILED {name}: {'; '.join(problems)}\n"
                            f"  pinned digest {pin.digest}\n  stderr: {stderr!r}")
    return failures


def _report_problems(report: bytes, expanded: bool) -> list[str]:
    try:
        payload = json.loads(report)
    except ValueError:
        return ["the report is not JSON"]
    problems = []
    if json.dumps(payload, sort_keys=True, indent=1).encode() + b"\n" != report:
        problems.append("the report is not json.dumps of its contents")
    if expanded:
        try:
            problems += [f"class expansion: {p}" for p in expansion_problems(payload)]
        except Exception as err:  # a report of another shape; the other pins still run
            problems.append(f"class expansion raised {err!r}")
    return problems


def _readback_problems(report: bytes, schema1: str) -> list[str]:
    try:
        digest = hashlib.sha256(schema1_bytes(report)).hexdigest()
    except Exception as err:  # a report of another shape; the other pins still run
        return [f"the schema-1 readback raised {err!r}"]
    return [] if digest == schema1 else [f"the schema-1 readback's digest is {digest}"]


def main() -> int:
    failed = 0
    for pin in PINS:
        for failure in check(pin):
            print(failure, flush=True)
            failed += 1
    print(f"{len(PINS)} pins: {failed} failed runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
