"""One unchecked way to build a ``TokenSeq``, confined to the exact-law walk.

``TokenSeq._unchecked`` skips the padded-form check, and the slot setters
behind it skip the frozen dataclass's guard. The walk alone may use the
constructor, since it builds every outcome in padded form; the setters are
read only inside it. Every other way in keeps the check: ``TokenSeq(...)``
and the three edges that read token strings (``Vocab.seq``, the CLI's
``--factual-output`` and trace files) reject a token after EMPTY, and a
negative id that reaches them.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import cfgen
from cfgen.cli import _parse_output
from cfgen.errors import InputError
from cfgen.fixtures import lm3_model
from cfgen.generators import trace_from_json
from cfgen.tokenlm import TokenSeq, Vocab

PACKAGE = Path(cfgen.__file__).resolve().parent


def uses(name: str) -> set[str]:
    """Qualified names of the package's functions that read ``name`` as a
    variable or an attribute; a read inside a nested function counts for
    the outermost function around it, and a module-level read as the module."""
    found: set[str] = set()

    def visit(node: ast.AST, owner: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = owner if in_function else f"{owner}.{child.name}"
                visit(child, inner, in_function or not isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Attribute) and child.attr == name:
                found.add(owner)
            elif isinstance(child, ast.Name) and child.id == name:
                found.add(owner)
            visit(child, owner, in_function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, False)
    return found


def test_only_the_walk_builds_unchecked():
    assert uses("_unchecked") == {"tokenlm.walk_law"}


@pytest.mark.parametrize("setter", ["_set_ids", "_set_hash"])
def test_the_slot_setters_serve_only_the_unchecked_constructor(setter):
    # bound once at module level, right after the class
    assert uses(setter) == {"tokenlm", "tokenlm.TokenSeq._unchecked"}


def test_the_finder_sees_nested_and_method_reads(tmp_path, monkeypatch):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class A:\n"
        "    def m(self):\n"
        "        return self._unchecked\n"
        "def f():\n"
        "    def g():\n"
        "        return _unchecked(1)\n"
        "    return g\n"
        "x = _unchecked\n"
    )
    monkeypatch.setattr(f"{__name__}.PACKAGE", tmp_path)
    assert uses("_unchecked") == {"probe.A.m", "probe.f", "probe"}


def test_unchecked_equals_checked():
    for ids in [(), (1,), (2, 1, 0), (0, 0, 0)]:
        fast, checked = TokenSeq._unchecked(ids), TokenSeq(ids)
        assert fast == checked and hash(fast) == hash(checked) and fast.ids is ids


class TestEdgesKeepTheCheck:
    def test_constructor(self):
        with pytest.raises(InputError, match="nonnegative"):
            TokenSeq((1, -1))
        with pytest.raises(InputError, match="after EMPTY"):
            TokenSeq((1, 0, 2))

    @pytest.fixture
    def lm(self):
        return lm3_model()

    @staticmethod
    def read_trace(lm, y):
        payload = {
            "x": ["a"], "y": y, "kind": "uniform", "noise": [0.5] * lm.k,
            "params": {"temperature": 1.0, "top_k": None, "top_p": None},
        }
        return trace_from_json(lm, json.dumps(payload))

    def edges(self, lm):
        x, x_star = lm.vocab.seq(["a"]), lm.vocab.seq(["b"])
        return {
            "Vocab.seq": lambda toks: lm.vocab.seq(toks),
            "_parse_output": lambda toks: _parse_output(lm, " ".join(toks), x, x_star),
            "trace_from_json": lambda toks: self.read_trace(lm, toks),
        }

    @pytest.mark.parametrize("edge", ["Vocab.seq", "_parse_output", "trace_from_json"])
    def test_token_after_empty(self, lm, edge):
        with pytest.raises(InputError, match="after EMPTY"):
            self.edges(lm)[edge](["a", "</e>", "b"])

    @pytest.mark.parametrize("edge", ["Vocab.seq", "_parse_output", "trace_from_json"])
    def test_negative_id(self, lm, edge, monkeypatch):
        # a vocabulary maps strings to ids 0 and up, so map one to -1 to see
        # that the edge builds its sequence through the check
        read, index = self.edges(lm)[edge], Vocab.index
        monkeypatch.setattr(Vocab, "index", lambda v, t: -1 if t == "b" else index(v, t))
        with pytest.raises(InputError, match="nonnegative"):
            read(["a", "b"])
