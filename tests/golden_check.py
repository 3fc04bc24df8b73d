"""Check both golden corpora on an interpreter that has no pytest.

    PYTHONPATH=src python tests/golden_check.py

The two golden test modules need pytest only for their decorators. Where
pytest is missing, a stand-in that hands each decorated function back
unchanged lets them load. The script then compares ``golden_cli.json`` (in
its listed order) and ``golden_seeded.json`` with what the code gives now,
prints each entry that differs, and exits 1 if there is one.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import types
from pathlib import Path


def _decorator(*args, **kwargs):
    if len(args) == 1 and callable(args[0]) and not kwargs:
        return args[0]
    return lambda fn: fn


try:
    import pytest  # noqa: F401
except ModuleNotFoundError:
    stub = types.ModuleType("pytest")
    stub.fixture = _decorator
    stub.mark = types.SimpleNamespace(parametrize=_decorator)
    sys.modules["pytest"] = stub

import test_golden_cli  # noqa: E402
import test_seeded_golden  # noqa: E402


def _leaves(value, path: str, depth: int):
    """(path, value) for each entry ``depth`` dict or list-of-dict levels down."""
    if depth and isinstance(value, dict):
        for key in value:
            yield from _leaves(value[key], f"{path}/{key}", depth - 1)
    elif depth and isinstance(value, list) and value and isinstance(value[0], dict):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]", depth - 1)
    else:
        yield path, value


def mismatches() -> list[str]:
    os.environ.pop("CFGEN_ENUM_CAP", None)
    with tempfile.TemporaryDirectory() as tmp:
        got_cli = test_golden_cli.run_corpus(list(test_golden_cli.cases()), Path(tmp))
    out = []
    # one entry per request, and per case and law or per case, seed and output
    for golden, got, depth in (
        (test_golden_cli.GOLDEN, got_cli, 1),
        (test_seeded_golden.GOLDEN, test_seeded_golden.golden_values(), 4),
    ):
        want = dict(_leaves(json.loads(golden.read_text()), golden.name, depth))
        have = dict(_leaves(got, golden.name, depth))
        out += [p for p in sorted(want.keys() | have.keys()) if want.get(p) != have.get(p)]
    return out


if __name__ == "__main__":
    bad = mismatches()
    for path in bad:
        print(path)
    print(f"python {sys.version.split()[0]}: {len(bad)} golden entries differ")
    sys.exit(1 if bad else 0)
