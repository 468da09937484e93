"""The package's modules import one another in one order only.

The pipeline runs words < evaluation < poset < extension < sampling <
{builder, suslin} < cli: a module may import only modules below it, so the
order rule that leq and a point phase share lives in poset, and poset never
reaches up into extension.  templates and writer stand apart: neither
imports another module of the package.  Only cli imports templates; cli
and builder, whose report hands the writer its rows, import writer.  The
package's __init__ loads its layers lazily, by name, and imports none of
them.  Every import counts, the ones inside functions too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cofinitary

PACKAGE = Path(cofinitary.__file__).parent

RANK = {
    "words": 0,
    "evaluation": 1,
    "poset": 2,
    "extension": 3,
    "sampling": 4,
    "builder": 5,
    "suslin": 5,
    "cli": 6,
}
# module -> the modules that may import it
STANDALONE = {"templates": {"cli"}, "writer": {"cli", "builder"}}


def _imports(module: str) -> set[str]:
    """The package modules that `module` imports by relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, (module, node.module)
            if node.module is None:  # from . import a, b
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_every_module_has_a_place():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == RANK.keys() | STANDALONE.keys()


def test_the_package_init_imports_no_layer():
    assert _imports("__init__") == set()


def test_imports_point_down_the_pipeline():
    for module, rank in RANK.items():
        for target in _imports(module):
            if target in STANDALONE:
                assert module in STANDALONE[target], (module, target)
            else:
                assert RANK[target] < rank, (module, target)


def test_templates_stand_alone():
    for module in STANDALONE:
        assert _imports(module) == set(), module
