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


def test_moved_names_still_resolve():
    import cfgen.nondet
    import cfgen.oracle

    assert cfgen.oracle.VerificationReport is cfgen.nondet.VerificationReport
    assert cfgen.VerificationReport is cfgen.nondet.VerificationReport
