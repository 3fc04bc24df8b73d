"""CLI requests pinned to their exit codes and output bytes.

Each case is one ``cfgen`` invocation writing to ``--out``. ``golden_cli.json``
holds its exit code and the sha256 of the bytes it wrote (null when it
wrote none). The whole corpus runs in one process, once in its listed order
and once shuffled, so a request whose result depends on what an earlier
request in the same process did shows up as a mismatch. Regenerate the file
only when a change to CLI output is intended, and record it in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from cfgen.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cli.json"
FIXTURES = HERE.parent / "fixtures"

# fixture -> (prompt, counterfactual prompt, factual output)
TOKEN_MODELS = {
    "lm3": ("a", "b", "a b a"),
    "lm_asym": ("p", "q", "p b"),
    "lm_topk": ("p", "q", "p b"),
}
PARAMS = {
    "t1": [],
    "t0_5": ["--temperature", "0.5"],
    "topk2": ["--top-k", "2"],
    "topp0_9": ["--top-p", "0.9"],
}
METHODS = ("simple", "stable", "gumbel", "its")
MODES = {"exact": ["--exact"], "sample": ["--samples", "40", "--seed", "7"]}


def cases() -> dict[str, list[str]]:
    """Case name -> argv without ``--out``; model paths relative to ``fixtures/``."""
    out: dict[str, list[str]] = {}
    for name, (x, x_star, y) in TOKEN_MODELS.items():
        model = ["--model", f"{name}.json", "--prompt", x, "--cf-prompt", x_star]
        for label, params in PARAMS.items():
            for method in METHODS:
                for mode, flags in MODES.items():
                    out[f"counterfactual/{name}/{label}/{method}/{mode}"] = [
                        "counterfactual", *model, "--method", method,
                        "--factual-output", y, *flags, *params,
                    ]
            out[f"compare/{name}/{label}"] = [
                "compare", *model, "--factual-output", y, "--samples", "200", "--seed", "5",
                *params,
            ]
        out[f"counterfactual/{name}/kept/gumbel"] = [
            "counterfactual", "--model", f"{name}.json", "--prompt", x, "--cf-prompt", x,
            "--method", "gumbel", "--factual-output", y, "--samples", "10", "--seed", "3",
        ]
    out["counterfactual/lm_asym/tsv"] = [
        "counterfactual", "--model", "lm_asym.json", "--prompt", "p", "--cf-prompt", "q",
        "--method", "its", "--factual-output", "p b", "--samples", "20", "--seed", "1",
        "--format", "tsv",
    ]
    out["counterfactual/lm_asym/zero_probability"] = [
        "counterfactual", "--model", "lm_asym.json", "--prompt", "p", "--cf-prompt", "q",
        "--method", "stable", "--factual-output", "p p", "--exact",
    ]
    out["counterfactual/usage_error"] = [
        "counterfactual", "--model", "lm3.json", "--prompt", "a", "--cf-prompt", "b",
    ]
    for query in ("Y*=0|Y=1,X=1,X*=0", "Y*=1|Y=0,X=0,X*=1", "Y*=1|Y=1,X=0,X*=1"):
        for p, q in (("0.3", "0.7"), ("0.07", "0.93")):
            out[f"bounds/{p}/{q}/{query}"] = ["bounds", "--p", p, "--q", q, "--query", query]
    out["bounds/invalid"] = ["bounds", "--p", "0.7", "--q", "0.3", "--query", "Y*=0|Y=1,X=1,X*=0"]
    out["validate/example1"] = ["validate", "--model", "example1_nondet.json"]
    out["verify/example1"] = ["verify", "--suite", "example1"]
    out["verify/corollary"] = ["verify", "--suite", "corollary"]
    out["verify/all"] = ["verify", "--suite", "all"]
    out["verify/all/seed7"] = ["verify", "--suite", "all", "--seed", "7"]
    return out


def run_case(argv: list[str], out: Path) -> dict:
    """Run one case in this process: its exit code and the sha256 of ``--out``."""
    full = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([*full, "--out", str(out)])
        except SystemExit as e:  # argparse usage errors
            code = e.code
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    out.unlink(missing_ok=True)
    return {"exit": code, "sha256": digest}


def run_corpus(names: list[str], work: Path) -> dict:
    corpus = cases()
    return {name: run_case(corpus[name], work / "request.out") for name in names}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_names_the_whole_corpus(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("order", ["listed", "shuffled"])
def test_corpus_matches_golden(order, golden, tmp_path, monkeypatch):
    monkeypatch.delenv("CFGEN_ENUM_CAP", raising=False)
    names = list(cases())
    if order == "shuffled":
        random.Random(2024).shuffle(names)
    got = run_corpus(names, tmp_path)
    mismatched = sorted(n for n in names if got[n] != golden[n])
    assert not mismatched, mismatched


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = run_corpus(list(cases()), Path(tmp))
    json.dump(values, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
