"""What a process loads, and that loading a layer late changes nothing.

The package and the CLI import a layer only when a command first uses it.
Each check of what is loaded runs in a fresh interpreter:

- the parser, --help, an unknown command and a bad flag value load no
  layer; `template` loads only the template layer; `build-group` loads no
  sampling, suslin or template code; `ffp-suite` and `hit-density` load no
  builder code (the point phase they step lives in extension); a command
  that writes a report also loads the report writer;
- every public name of the package resolves to its submodule's object;
- an error raised by a layer first loaded inside main keeps its exit code.

The benchmark's tracer (perfbench/tracing.py) swaps each traced function in
every loaded cofinitary module.  A module that bound another module's traced
function at import time, while a tracer was active, would keep the wrapper
after the tracer left.  So no module holds such a function as a global (a
static check), and two traced passes that import the layers under the
tracer count what a run that imported every layer first counts.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cofinitary

SRC = Path(cofinitary.__file__).resolve().parents[1]
BENCH = SRC.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)
LAYERS = [m for m in tracing.LAYERS if m != "cli"]

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'cofinitary')"


def fresh(snippet: str, *args: str):
    """Run snippet in a new interpreter with src/ and perfbench/ on the path;
    its last stdout line, read as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH)])}
    run = subprocess.run([sys.executable, "-c", snippet, *args], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def package(*layers: str) -> list[str]:
    return sorted(["cofinitary", "cofinitary.cli", *(f"cofinitary.{m}" for m in layers)])


# -- what each entry point loads ------------------------------------------------

RUN_CLI = f"""
import contextlib, io, json, sys
import cofinitary.cli as cli
cli._build_parser()
code = None
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps([code, {LOADED}]))
"""


@pytest.mark.parametrize("argv, code", [
    ([], None),
    (["--help"], 0),
    (["build-group", "--help"], 0),
    (["frobnicate"], 2),
    (["build-group", "--generators", "2", "--points", "0", "--seed", "1"], 2),
    (["suslin", "--poset", "laver", "--n", "1", "--samples", "10", "--seed", "0"], 2),
    (["build-group", "--generators", "2", "--points", "4"], 2),  # no --seed
])
def test_the_parser_help_and_usage_errors_load_no_layer(argv, code):
    assert fresh(RUN_CLI, *argv) == [code, package()]


def test_template_loads_only_the_template_layer(tmp_path):
    argv = ["template", "--lambdas", "2,3", "--out", str(tmp_path / "t.json")]
    assert fresh(RUN_CLI, *argv) == [0, package("templates", "writer")]


def test_build_group_loads_no_sampling_suslin_or_template_code(tmp_path):
    argv = ["build-group", "--generators", "2", "--points", "4", "--max-word-len", "2",
            "--seed", "1", "--out", str(tmp_path / "b.json")]
    code, loaded = fresh(RUN_CLI, *argv)
    assert code == 0
    assert loaded == package("words", "evaluation", "poset", "extension", "builder", "writer")


@pytest.mark.parametrize("argv, layers", [
    (["ffp-suite", "--mode", "cofinitary", "--samples", "20", "--seed", "3"],
     ("words", "evaluation", "poset", "extension", "sampling", "suslin", "writer")),
    (["hit-density", "--generators", "3", "--maxN", "5", "--window", "64", "--samples", "5",
      "--seed", "3"],
     ("words", "evaluation", "poset", "extension", "sampling", "writer")),
], ids=["ffp-suite", "hit-density"])
def test_the_suite_commands_load_no_builder_code(argv, layers, tmp_path):
    code, loaded = fresh(RUN_CLI, *argv, "--out", str(tmp_path / "r.json"))
    assert code == 0
    assert loaded == package(*layers)
    assert "cofinitary.builder" not in loaded


PUBLIC_NAMES = f"""
import importlib, json, sys
import cofinitary
bare = {LOADED}
table = cofinitary._SOURCE
wrong = [n for n, m in table.items()
         if getattr(cofinitary, n) is not getattr(importlib.import_module("cofinitary." + m), n)]
try:
    cofinitary.no_such_name
    unknown = "resolved"
except AttributeError as err:
    unknown = str(err)
print(json.dumps({{
    "bare": bare, "wrong": wrong, "table": sorted(table), "all": cofinitary.__all__,
    "dir": dir(cofinitary), "unknown": unknown, "hasattr": hasattr(cofinitary, "no_such_name"),
}}))
"""


def test_public_names_resolve_to_their_submodules():
    got = fresh(PUBLIC_NAMES)
    assert got["bare"] == ["cofinitary"]  # import cofinitary loads no layer
    assert got["table"] and got["wrong"] == []
    assert got["all"] == got["table"]
    assert set(got["table"]) <= set(got["dir"])
    others = set(got["dir"]) - set(got["table"])
    assert all(n.startswith("_") or n in LAYERS for n in others), others
    assert got["unknown"] == "module 'cofinitary' has no attribute 'no_such_name'"
    assert got["hasattr"] is False


# -- exit codes of errors raised by a layer first loaded inside main ------------

RAISE_IN_LAYER = f"""
import importlib, importlib.machinery, json, sys
layer, attr, error, message, *argv = sys.argv[1:]


def broken(*args, **kwargs):
    owner, _, cls = error.rpartition(".")
    raise getattr(importlib.import_module(owner or "builtins"), cls)(message)


class BreakOnLoad:
    # a meta path finder: once the layer has run its body, attr raises
    def find_spec(self, fullname, path, target=None):
        if fullname != "cofinitary." + layer:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        run_body = spec.loader.exec_module

        def exec_module(module):
            run_body(module)
            setattr(module, attr, broken)

        spec.loader.exec_module = exec_module
        return spec


sys.meta_path.insert(0, BreakOnLoad())
import cofinitary.cli as cli
before = {LOADED}
code = cli.main(argv)
print(json.dumps([before, code]))
"""


@pytest.mark.parametrize("layer, attr, error, argv, code, shown", [
    ("builder", "build", "cofinitary.extension.CertificateError",
     ["build-group", "--generators", "2", "--points", "4", "--seed", "1"], 1, "{}"),
    ("suslin", "n_suslin_trial", "cofinitary.extension.ContractViolation",
     ["suslin", "--poset", "hechler", "--n", "1", "--samples", "10", "--seed", "1"], 1, "{}"),
    ("templates", "build_surrogate_template", "OSError",
     ["template", "--lambdas", "2,3"], 2, "{}"),
    ("suslin", "ffp_axiom_suite", "cofinitary.sampling.TrialWorkerLost",
     ["ffp-suite", "--mode", "adp", "--samples", "10", "--seed", "1"], 1,
     "internal error: TrialWorkerLost('{}')"),
    ("templates", "check_axioms", "KeyError", ["template", "--lambdas", "2,3"], 1,
     "internal error: KeyError('{}')"),
])
def test_an_error_from_a_layer_loaded_inside_main_keeps_its_exit_code(
        layer, attr, error, argv, code, shown, tmp_path):
    message = f"{layer}.{attr} broke"
    env = {**os.environ, "PYTHONPATH": str(SRC), "COFINITARY_REPORT_DIR": str(tmp_path)}
    run = subprocess.run(
        [sys.executable, "-c", RAISE_IN_LAYER, layer, attr, error, message, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    before, got = json.loads(run.stdout.splitlines()[-1])
    assert before == package()
    assert got == code
    assert run.stderr == shown.format(message) + "\n"
    assert list(tmp_path.iterdir()) == []


# -- tracer safety --------------------------------------------------------------

def traced_functions() -> dict:
    """Each function the tracer swaps in module namespaces, keyed
    "module.name": the plain functions of tracing.LAYERS and the letter
    counter's apply_letter."""
    out = {}
    for module, targets in tracing.LAYERS.items():
        mod = importlib.import_module(f"cofinitary.{module}")
        out.update({f"{module}.{t}": getattr(mod, t) for t in targets if "." not in t})
    out["evaluation.apply_letter"] = importlib.import_module("cofinitary.evaluation").apply_letter
    return out


def test_no_module_binds_another_modules_traced_function():
    traced = traced_functions()
    held = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or name.split(".")[0] != "cofinitary":
            continue
        for attr, value in vars(mod).items():
            for where, fn in traced.items():
                if value is fn and f"cofinitary.{where.split('.')[0]}" != name:
                    held.append(f"{name}.{attr} is {where}")
    # poset keeps apply_letter: the tracer swaps it only after importing every
    # layer, and perfbench's own tests read it there
    assert held == ["cofinitary.poset.apply_letter is evaluation.apply_letter"]


TRACED_PASSES = f"""
import importlib, json, sys
from pathlib import Path
import run, tracing, workloads
workload, out, first = sys.argv[1:]
import cofinitary.cli as cli
if first == "eager":
    for layer in tracing.LAYERS:
        importlib.import_module("cofinitary." + layer)
before = {LOADED}
cmds = workloads.commands(workload, 1, Path(out))
checker = run.Checker(cmds)
passes = [run.traced_pass(cli, cmds, checker, i)[1] for i in range(2)]
counters = [{{k: v for k, v in m.items() if not k.endswith(".self_s")}} for m in passes]
print(json.dumps({{"before": before, "failures": checker.failures, "counters": counters}}))
"""


@pytest.mark.parametrize("workload", ["build-long", "build-wide", "suites"])
def test_layers_loaded_under_the_tracer_count_as_if_loaded_first(workload, tmp_path):
    lazy = fresh(TRACED_PASSES, workload, str(tmp_path / "lazy"), "lazy")
    eager = fresh(TRACED_PASSES, workload, str(tmp_path / "eager"), "eager")
    assert lazy["before"] == package()
    assert eager["before"] == package(*LAYERS)
    assert lazy["failures"] == eager["failures"] == []
    first, second = lazy["counters"]
    assert first["cli.main.calls"] > 0 and first["poset.leq.calls"] > 0
    if workload == "suites":  # the meets the trials run are the traced ones
        assert first["suslin.dom_meet.calls"] > 0 and first["suslin.loc_meet.calls"] > 0
    assert first == second == eager["counters"][0] == eager["counters"][1]
