"""Module layering: each module of the package imports only lower layers.

The rank, bottom up: the shared leaves (``errors``, ``seeding``, ``dist``),
causal models (``nondet``), then deterministic models and token models
(``detscm``, ``tokenlm``), then what builds on token models (``fixtures``,
``generators``), the claim harness (``oracle``), the command line (``cli``)
and the package façade (``__init__``). A module may import only modules of
a lower rank; among the leaves, only ``errors`` may be imported, since
every layer raises its exceptions. This keeps one home per concept: the
shared ``draw`` and ``argmax`` live in ``dist``, so ``detscm`` responds
through ``draw`` without importing the token layer.

Every name a module imports is read in that module (the package façade
aside, whose imports are its exports), so a deletion cannot strand an
import.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import cfgen

PACKAGE = Path(cfgen.__file__).resolve().parent

RANK = {
    "errors": 0,
    "seeding": 0,
    "dist": 0,
    "nondet": 1,
    "detscm": 2,
    "tokenlm": 2,
    "fixtures": 3,
    "generators": 3,
    "oracle": 4,
    "cli": 5,
    "__init__": 6,
}


def package_imports(path: Path) -> set[str]:
    """The package modules a source file imports, at any depth in it."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 0 and node.module and node.module.split(".")[0] == "cfgen":
                parts = node.module.split(".")
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cfgen" and len(parts) > 1:
                    found.add(parts[1])
    return found


def unused_imports(path: Path) -> list[str]:
    """The names a source file imports, at any depth in it, and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def may_import(importer: str, imported: str) -> bool:
    if imported == "errors":
        return importer != "errors"
    return RANK[imported] < RANK[importer]


def test_every_module_is_ranked():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(RANK)


@pytest.mark.parametrize("module", sorted(RANK))
def test_imports_only_lower_layers(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    assert imported <= set(RANK), f"{module} imports unknown modules {imported - set(RANK)}"
    upward = sorted(m for m in imported if not may_import(module, m))
    assert not upward, f"{module} (rank {RANK[module]}) imports {upward}"


def test_checker_sees_every_import_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from .tokenlm import ToyLM\n"
        "from . import oracle\n"
        "import cfgen.generators\n"
        "from cfgen import cli\n"
        "def f():\n"
        "    from cfgen.fixtures import lm3_model\n"
    )
    assert package_imports(src) == {"tokenlm", "oracle", "generators", "cli", "fixtures"}
    assert not may_import("detscm", "tokenlm")
    assert not may_import("dist", "seeding")
    assert may_import("dist", "errors") and may_import("detscm", "dist")


@pytest.mark.parametrize("module", sorted(set(RANK) - {"__init__"}))
def test_every_import_is_used(module):
    unused = unused_imports(PACKAGE / f"{module}.py")
    assert not unused, f"{module} imports {unused} and never uses them"


def test_unused_import_checker_sees_what_is_read(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .errors import InputError, ModelError as Bad\n"
        "from .dist import draw\n"
        "def f(x: Bad) -> None:\n"
        "    from .nondet import World\n"
        "    raise InputError(json.dumps(os.path.sep))\n"
    )
    assert unused_imports(src) == ["World", "draw"]


def test_moved_names_still_resolve():
    import cfgen.nondet
    import cfgen.oracle

    assert cfgen.oracle.VerificationReport is cfgen.nondet.VerificationReport
    assert cfgen.VerificationReport is cfgen.nondet.VerificationReport
