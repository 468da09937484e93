"""Command line front end.

Every command is a pure function of its configuration: reruns write
byte-identical reports.  stdout carries nothing but the report path; human
diagnostics go to stderr.  Exit codes: 0 all contracts hold, 1 contract
violation or internal error, 2 usage or configuration error.

The module imports no layer: each command imports what it runs when it
runs, so building the parser, --help and a usage error load none, and
`template` loads only cofinitary.templates.  main maps a layer's error
classes to exit codes only once that layer is loaded; before, no instance
of them can exist.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .poset import PosetMode
    from .templates import TemplateOrder

REPORT_DIR_ENV = "COFINITARY_REPORT_DIR"

OK, VIOLATION, USAGE = 0, 1, 2

DEFAULT_WORD_LEN = 3  # --max-word-len of a cofinitary build


class ConfigError(Exception):
    pass


def _report_path(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    base = Path(os.environ.get(REPORT_DIR_ENV, "."))
    return base / default_name


def encode_report(payload: dict) -> bytes:
    """The bytes of a report file: json.dumps(payload, sort_keys=True,
    indent=1) and a final newline, byte for byte.

    Written directly, because CPython's json runs its pure-Python encoder
    whenever indent is set: a list of plain ints or of plain strings is
    joined in one step, and strings are escaped by json's own
    encode_basestring_ascii.  Any other scalar goes to json.dumps, whose C
    encoder writes it as the indented encoder would; a value of a type it
    rejects raises TypeError."""
    out: list[str] = []
    _encode(payload, "\n", out)
    out.append("\n")
    return "".join(out).encode()


_INTS, _STRS = {int}, {str}


def _encode(o, nl: str, out: list[str]) -> None:
    """Append the JSON text of o to out; nl is a newline and o's indent."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + " "
        sep, comma = "{" + inner, "," + inner
        for k, v in sorted(o.items()):
            key = f"{sep}{encode_basestring_ascii(k if type(k) is str else _key_text(k))}: "
            kind = type(v)
            if kind is int:  # the common leaves are written without a call
                out.append(key + int.__repr__(v))
            elif kind is str:
                out.append(key + encode_basestring_ascii(v))
            elif v is None:
                out.append(key + "null")
            elif isinstance(v, (dict, list, tuple)):
                out.append(key)
                _encode(v, inner, out)
            else:
                out.append(key + json.dumps(v))
            sep = comma
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + " "
        kinds = set(map(type, o))
        if kinds == _INTS:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, o))}{nl}]")
        elif kinds == _STRS:
            out.append(f"[{inner}{(',' + inner).join(map(encode_basestring_ascii, o))}{nl}]")
        else:
            sep, comma = "[" + inner, "," + inner
            for x in o:
                out.append(sep)
                _encode(x, inner, out)
                sep = comma
            out.append(nl + "]")
    else:
        out.append(json.dumps(o))


def _key_text(k) -> str:
    """The text of a key before it is quoted, as json.dumps reads it."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write_report(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_report(payload))
    print(path)


def _positive(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return n


def _non_negative(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return n


def _mode(value: str) -> PosetMode:
    from .poset import PosetMode

    try:
        return PosetMode(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown mode {value!r}")


def cmd_build_group(args) -> int:
    from .builder import BuildError, build, verify_cofinitary
    from .poset import DISCIPLINES, PosetMode

    mode = args.mode or PosetMode.COFINITARY
    word_budget = DISCIPLINES[mode].word_budget
    if word_budget is None:
        word_budget = args.max_word_len or DEFAULT_WORD_LEN
    elif args.max_word_len is not None:
        raise ConfigError(
            f"--max-word-len does not apply to --mode {mode.value}: "
            f"its side entries have fixed length {word_budget}"
        )
    try:
        report = build(
            mode,
            range(args.generators),
            point_budget=args.points,
            word_budget=word_budget,
            seed=args.seed,
            value_ceiling=args.ceiling,
        )
        violations = verify_cofinitary(report)
    except BuildError as err:
        print(f"build aborted: {err}", file=sys.stderr)
        return VIOLATION
    payload = report.to_json()
    payload["violations"] = violations
    path = _report_path(args, f"build-{mode.value}-{args.seed}.json")
    csv = Path(args.csv) if args.csv else None
    # both directories first: a path that cannot be made leaves neither file
    for target in (path, csv):
        if target is not None:
            target.parent.mkdir(parents=True, exist_ok=True)
    _write_report(path, payload)
    if csv is not None:
        csv.write_text(report.to_csv())
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return VIOLATION
    return OK


def _load_template_file(path: str) -> TemplateOrder:
    from .templates import TemplateOrder, template_from_parts

    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ConfigError("bad template file: expected a JSON object")
    key = "elements"  # the field being read, for the error message
    try:
        names = {name: i for i, name in enumerate(obj[key])}
        if len(names) != len(obj[key]):
            raise ValueError("an element name is repeated")
        key = "less"
        if obj[key] == "by-rank":  # the elements are listed in order
            less = list(itertools.combinations(names.values(), 2))
        else:
            less = [(names[a], names[b]) for a, b in obj[key]]
        key = "I"
        if not isinstance(obj[key], list):
            raise TypeError("expected a list of members; an export past MAX_FAMILY omits them")
        ideals = [[names[x] for x in a] for a in obj[key]]
        key = "L0"
        part0 = [names[x] for x in obj[key]]
        key = "L1"
        part1 = [names[x] for x in obj[key]]
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad template file: field {key!r}: {err!r}")
    t = template_from_parts(list(names.values()), less, ideals, part0, part1)
    return TemplateOrder(
        t.elements, t.order_key, t.family, t.part0, t.part1,
        {i: name for name, i in names.items()},
    )


def cmd_template(args) -> int:
    from .templates import SurrogateParams, build_surrogate_template, check_axioms, rank

    if args.template_file:
        try:
            t = _load_template_file(args.template_file)
            violations = check_axioms(t)  # refuses families beyond its budget
        except (KeyError, ValueError, json.JSONDecodeError) as err:
            raise ConfigError(f"bad template file: {err}")
        payload = {
            "schema": "1",
            "source": "file",
            "elements": len(t.elements),
            "axioms": [
                {"clause": v.clause, "detail": v.detail} for v in violations
            ],
        }
        if not violations:
            payload["rank"] = rank(t)
        path = _report_path(args, "template-file.json")
        _write_report(path, payload)
        if violations:
            for v in violations:
                print(f"clause {v.clause}: {v.detail}", file=sys.stderr)
            return VIOLATION
        return OK
    try:
        sizes = tuple(int(x) for x in args.lambdas.split(","))
        params = SurrogateParams(
            sizes, args.omega1, element_cap=args.cap, last_negative_full=not args.bounded_last
        )
        surrogate = build_surrogate_template(params)  # refuses parameters beyond element_cap
    except ValueError as err:
        raise ConfigError(f"bad template parameters: {err}")
    t = surrogate.order
    violations = check_axioms(t)
    nesting = _check_interval_nesting(surrogate)
    payload = {
        "schema": "1",
        "source": "surrogate",
        "lambdas": list(sizes),
        "omega1": args.omega1,
        "seed": args.seed,
        "elements": len(t.elements),
        "family_size": f">{params.family_cap}" if t.family is None else len(t.family),
        "family_atoms": sorted(surrogate.atom_provenance),
        "relevant": len(surrogate.relevant_ids),
        "axioms": [{"clause": v.clause, "detail": v.detail} for v in violations],
        "interval_nesting_failures": nesting,
    }
    if not violations:
        payload["rank"] = rank(t)
    path = _report_path(args, f"template-{args.lambdas}-{args.omega1}.json")
    _write_report(path, payload)
    if violations or nesting:
        for v in violations:
            print(f"clause {v.clause}: {v.detail}", file=sys.stderr)
        if nesting:
            print(f"{nesting} interval nesting failures", file=sys.stderr)
        return VIOLATION
    return OK


def _check_interval_nesting(surrogate) -> int:
    from .templates import interval_finder

    ids = sorted(surrogate.relevant_ids)
    interval = interval_finder(surrogate.positions)
    intervals = {i: interval(surrogate.positions[i]) for i in ids}
    bad = 0
    for i in ids:
        for j in ids:
            if i == j:
                continue
            a, b = intervals[i], intervals[j]
            if i < j and a & b and not (a <= b or b <= a):
                bad += 1
            if a < b:
                pi, pj = surrogate.positions[i], surrogate.positions[j]
                if len(pj.seq) > len(pi.seq):
                    bad += 1
                elif pi.seq[: len(pj.seq) - 1] != pj.seq[: len(pj.seq) - 1]:
                    bad += 1
    return bad


def cmd_suslin(args) -> int:
    from .suslin import n_suslin_trial

    report = n_suslin_trial(args.poset, args.n, args.samples, args.seed)
    path = _report_path(args, f"suslin-{args.poset}-{args.n}-{args.seed}.json")
    _write_report(path, report.to_json())
    # the law at n implies it at every larger n: a trial at n + 1 agrees on
    # more indices, so it is also a trial at n
    expected_zero = args.n >= (1 if args.poset == "hechler" else 2)
    if expected_zero and report.failures:
        print(f"{report.failures} failures out of {args.samples}", file=sys.stderr)
        return VIOLATION
    return OK


def cmd_ffp_suite(args) -> int:
    from .suslin import ffp_axiom_suite

    results = ffp_axiom_suite(args.mode, args.samples, args.seed)
    payload = {
        "schema": "1",
        "mode": args.mode.value,
        "samples": args.samples,
        "seed": args.seed,
        "clauses": [r.to_json() for r in results],
    }
    path = _report_path(args, f"ffp-{args.mode.value}-{args.seed}.json")
    _write_report(path, payload)
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"{r.name}: {r.witness}", file=sys.stderr)
    return VIOLATION if failed else OK


def cmd_hit_density(args) -> int:
    from .evaluation import zshift
    from .extension import hit_search, hit_threshold
    from .poset import PosetMode
    from .sampling import Draws, sample_condition

    sigma = zshift()
    rng = Draws(args.seed)
    misses = []
    records = []
    for k in range(args.samples):
        cond = sample_condition(
            rng,
            PosetMode.COFINITARY,
            list(range(args.generators)),
            max_words=args.words,
            word_len=min(3, args.words),
        )
        gen = rng.randrange(args.generators)
        threshold = hit_threshold(cond, gen, sigma)
        for start in range(args.max_n + 1):
            hit = hit_search(cond, gen, sigma, start, args.window)
            if hit is None:
                misses.append({"sample": k, "start": start})
        records.append(
            {
                "sample": k,
                "generator": f"g{gen}",
                "pairs": sum(len(pm) for pm in cond.s.table.values()),
                "words": len(cond.words),
                "threshold": threshold,
            }
        )
    payload = {
        "schema": "1",
        "samples": args.samples,
        "max_n": args.max_n,
        "window": args.window,
        "seed": args.seed,
        "misses": misses,
        "conditions": records,
    }
    path = _report_path(args, f"hit-density-{args.seed}.json")
    _write_report(path, payload)
    if misses:
        print(f"{len(misses)} searches found no hit", file=sys.stderr)
        return VIOLATION
    return OK


# Built once per process: a parser per main call cost about 1 ms and grew
# argparse's allocations.  No parse changes it (_apply_config restores the
# flags it relaxes).
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cofinitary")
    sub = parser.add_subparsers(dest="command", required=True)

    bg = sub.add_parser("build-group", help="run a greedy family build and verify it")
    # no string default: argparse would convert it through _mode, loading the
    # poset layer, before it reports a missing required flag
    bg.add_argument("--mode", type=_mode, default=None)
    bg.add_argument("--generators", type=_positive, required=True)
    bg.add_argument("--points", type=_positive, required=True)
    bg.add_argument(
        "--max-word-len", type=_positive,
        help=f"longest frozen hat word (--mode cofinitary only; default {DEFAULT_WORD_LEN})",
    )
    bg.add_argument("--seed", type=int, required=True)
    bg.add_argument("--ceiling", type=_non_negative, default=None)
    bg.add_argument("--out", default=None)
    bg.add_argument("--csv", default=None)
    bg.set_defaults(func=cmd_build_group)

    tp = sub.add_parser("template", help="build a surrogate template and check the axioms")
    tp.add_argument("--lambdas", default="2,3")
    tp.add_argument("--omega1", type=_positive, default=2)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--cap", type=_positive, default=5000)
    tp.add_argument("--bounded-last", action="store_true")
    tp.add_argument("--template-file", default=None)
    tp.add_argument("--out", default=None)
    tp.set_defaults(func=cmd_template)

    su = sub.add_parser("suslin", help="run n-compatibility trials")
    su.add_argument("--poset", choices=["hechler", "loc"], required=True)
    su.add_argument("--n", type=_positive, required=True)
    su.add_argument("--samples", type=_positive, required=True)
    su.add_argument("--seed", type=int, required=True)
    su.add_argument("--out", default=None)
    su.set_defaults(func=cmd_suslin)

    ff = sub.add_parser("ffp-suite", help="run the finite function poset axiom suite")
    ff.add_argument("--mode", type=_mode, required=True)
    ff.add_argument("--samples", type=_positive, required=True)
    ff.add_argument("--seed", type=int, required=True)
    ff.add_argument("--out", default=None)
    ff.set_defaults(func=cmd_ffp_suite)

    hd = sub.add_parser("hit-density", help="check hitting-extension density")
    hd.add_argument("--generators", type=_positive, required=True)
    hd.add_argument("--words", type=_positive, default=4)
    hd.add_argument("--maxN", dest="max_n", type=_non_negative, required=True)
    hd.add_argument("--window", type=_positive, required=True)
    hd.add_argument("--samples", type=_positive, default=100)
    hd.add_argument("--seed", type=int, required=True)
    hd.add_argument("--out", default=None)
    hd.set_defaults(func=cmd_hit_density)

    for p in (bg, tp, su, ff, hd):
        p.add_argument("--config", default=None, help="JSON file of defaults; flags win")
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config value read as its flag would read it on the command line:
    through the flag's own type and choices."""
    if action.nargs == 0:  # an on/off flag
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false")
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        value = action.type(text) if action.type else text
    except (TypeError, ValueError, argparse.ArgumentTypeError) as err:
        raise ConfigError(f"bad config value for {key!r}: {err}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"bad config value for {key!r}: {text!r} not in {list(action.choices)}")
    return value


def _apply_config(argv: Sequence[str], parser: argparse.ArgumentParser):
    """The parsed arguments, with the --config file's values for the flags
    not typed.  A required flag may come from either; when it comes from
    neither, the error is argparse's own."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    required = [a for sub in commands.choices.values() for a in sub._actions if a.required]
    try:
        for action in required:
            action.required = False
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = parser.parse_args(argv)
    except SystemExit:  # help or a usage error: the strict parse below reports it
        args = None
    finally:
        for action in required:
            action.required = True
    if args is None or not getattr(args, "config", None):
        return parser.parse_args(argv)
    try:
        defaults = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as err:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"bad config file: {err}")
    if not isinstance(defaults, dict):
        raise ConfigError("bad config file: expected a JSON object")
    sub = commands.choices[args.command]
    actions = {a.dest: a for a in sub._actions}
    # flags as typed: argparse also takes --flag=value and unique prefixes
    typed = {a.split("=")[0] for a in argv if a.startswith("--") and len(a) > 2}
    for key, value in defaults.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if not any(o.startswith(t) for t in typed for o in action.option_strings):
            setattr(args, action.dest, _config_value(action, key, value))
    missing = [a for a in sub._actions if a.required and getattr(args, a.dest) is None]
    if missing:
        names = ", ".join("/".join(a.option_strings) for a in missing)
        sub.error(f"the following arguments are required: {names}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _apply_config(list(argv) if argv is not None else sys.argv[1:], _build_parser())
    except ConfigError as err:
        print(err, file=sys.stderr)
        return USAGE
    except SystemExit as err:  # argparse reports usage errors with code 2
        return USAGE if err.code else OK
    # Each command starts from cold side-word pools and side-set indexes,
    # so the work it does (and what a trace of it counts) does not depend
    # on earlier commands.  Before the poset layer is loaded they are cold.
    poset = sys.modules.get("cofinitary.poset")
    if poset is not None:
        poset.side_words.cache_clear()
        poset.side_index.cache_clear()
    try:
        return args.func(args)
    except ConfigError as err:
        print(err, file=sys.stderr)
        return USAGE
    except _loaded("extension", "CertificateError", "ContractViolation") as err:
        print(err, file=sys.stderr)
        return VIOLATION
    except OSError as err:
        print(err, file=sys.stderr)
        return USAGE
    except Exception as err:
        # input is judged before this point: a bug; never a traceback
        print(f"internal error: {err!r}", file=sys.stderr)
        return VIOLATION


def _loaded(layer: str, *names: str) -> tuple:
    """The named classes of a layer, or () while the layer is not loaded:
    no instance of them can exist yet.  An except clause reads this only
    when an exception reaches it, so the success path loads nothing."""
    module = sys.modules.get(f"cofinitary.{layer}")
    return tuple(getattr(module, name) for name in names) if module is not None else ()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
