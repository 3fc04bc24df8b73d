"""Command-line behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfgen.cli as cli
from cfgen.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_MODEL,
    EXIT_OK,
    main,
)
from cfgen.errors import EnumerationCapError, InputError, ModelError
from cfgen.generators import (
    CfQuery,
    gumbel_factual_run,
    its_factual_run,
    simple_cf_dist,
    trace_to_json,
)
from cfgen.tokenlm import SamplingParams

SRC = Path(cli.__file__).resolve().parents[1]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_cfgen(argv, **env):
    """``cfgen argv`` in a new Python process."""
    return subprocess.run(
        [sys.executable, "-m", "cfgen.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        check=False,
    )


class TestValidate:
    def test_valid_fixture(self, capsys, fixture_dir):
        code, out, _ = run(["validate", "--model", str(fixture_dir / "example1_nondet.json")], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_cyclic_model(self, capsys, tmp_path):
        bad = tmp_path / "cyclic.json"
        bad.write_text(
            json.dumps(
                {
                    "vars": [
                        {"name": "X", "domain": ["0", "1"]},
                        {"name": "Y", "domain": ["0", "1"]},
                    ],
                    "edges": [["X", "Y"], ["Y", "X"]],
                    "cpts": {},
                }
            )
        )
        code, out, _ = run(["validate", "--model", str(bad)], capsys)
        assert code == EXIT_MODEL
        assert any("cycle" in p for p in json.loads(out)["problems"])

    def test_numeric_domains(self, capsys, tmp_path):
        model = tmp_path / "numeric.json"
        model.write_text(
            json.dumps(
                {
                    "vars": [{"name": "X", "domain": [0, 1]}, {"name": "Y", "domain": [0, 1]}],
                    "edges": [["X", "Y"]],
                    "cpts": {"Y": {"parents": ["X"], "rows": {"0": [0.5, 0.5], "1": [0.2, 0.8]}}},
                }
            )
        )
        code, out, _ = run(["validate", "--model", str(model)], capsys)
        assert (code, json.loads(out)["problems"]) == (EXIT_OK, [])

    def test_unnormalized_row(self, capsys, tmp_path):
        bad = tmp_path / "badrow.json"
        bad.write_text(
            json.dumps(
                {
                    "vars": [
                        {"name": "X", "domain": ["0", "1"]},
                        {"name": "Y", "domain": ["0", "1"]},
                    ],
                    "edges": [["X", "Y"]],
                    "cpts": {
                        "Y": {"parents": ["X"], "rows": {"0": [0.6, 0.5], "1": [0.5, 0.5]}}
                    },
                }
            )
        )
        code, _, err = run(["validate", "--model", str(bad)], capsys)
        assert code == EXIT_MODEL
        assert "not normalized" in err


    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "the top level must be an object"),
            ('{"edges": []}', "missing key 'vars'"),
            ('{"vars": [{"name": "X"}], "edges": []}', "missing key 'domain'"),
            ('{"vars": 3, "edges": []}', "a value has the wrong shape ('int' object is not iterable)"),
            (
                '{"vars": [{"name": "X", "domain": ["0"]}], "edges": [["X"]]}',
                "a value has the wrong shape (not enough values to unpack (expected 2, got 1))",
            ),
            (
                '{"vars": [{"name": "X", "domain": ["0"]}], "edges": [], "cpts": []}',
                "a value has the wrong shape ('list' object has no attribute 'items')",
            ),
            (
                '{"vars": [{"name": "X", "domain": "01"}], "edges": []}',
                "variable 'X': domain must be a list of strings or numbers",
            ),
            (
                '{"vars": [{"name": "X", "domain": [[1], [2]]}], "edges": []}',
                "variable 'X': domain must be a list of strings or numbers",
            ),
            (
                '{"vars": [{"name": "X", "domain": [1, "1"]}], "edges": []}',
                "variable 'X': domain values must have distinct text with no comma",
            ),
            (
                '{"vars": [{"name": "X", "domain": ["a,b", "c"]}], "edges": []}',
                "variable 'X': domain values must have distinct text with no comma",
            ),
        ],
        ids=[
            "list",
            "no_vars",
            "no_domain",
            "int_vars",
            "short_edge",
            "list_cpts",
            "string_domain",
            "list_values",
            "same_text",
            "comma",
        ],
    )
    def test_bad_structure_is_named_in_words(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(["validate", "--model", str(bad)], capsys)
        assert (code, out) == (EXIT_MODEL, "")
        assert err == f"error (model): bad model JSON structure: {message}\n"

    def test_token_model_goes_through_its_loader(self, capsys, fixture_dir):
        code, out, err = run(["validate", "--model", str(fixture_dir / "lm3.json")], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {
            "ok": True, "problems": [], "notes": ["token model: type table, k=3, 3 tokens, 7 rows"]
        }

    def test_bigram_rows_count_the_empty_context(self, capsys, fixture_dir, tmp_path):
        bigram = {"type": "bigram", "probs": _BIGRAM_ROWS, "unigram": [0, 0.6, 0.4]}
        path = _token_model_with(fixture_dir, tmp_path, **bigram)
        code, out, _ = run(["validate", "--model", path], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["notes"] == ["token model: type bigram, k=3, 3 tokens, 3 rows"]

    def test_malformed_token_model_gets_the_loader_line(self, capsys, fixture_dir, tmp_path):
        path = _token_model_with(fixture_dir, tmp_path, probs=_without(_LM3_PROBS, "b a"))
        code, out, err = run(["validate", "--model", path], capsys)
        assert (code, out) == (EXIT_MODEL, "")
        assert err == f"error (model): no row for context 'b a'; {_EVERY_CONTEXT}\n"


class TestCounterfactual:
    def test_simple_exact_matches_library(self, capsys, fixture_dir, lm3):
        code, out, _ = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm3.json"),
                "--prompt",
                "a",
                "--cf-prompt",
                "b",
                "--method",
                "simple",
                "--exact",
            ],
            capsys,
        )
        assert code == EXIT_OK
        got = json.loads(out)["dist"]
        v = lm3.vocab
        expected = simple_cf_dist(lm3, CfQuery(v.seq(["a"]), v.seq(["a"]), v.seq(["b"])), SamplingParams())
        for seq, p in expected.items():
            key = " ".join(v.strings(seq.stripped()))
            assert got[key] == pytest.approx(p, abs=1e-12)

    def test_gumbel_keep_prompt_returns_y(self, capsys, fixture_dir):
        code, out, _ = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "p",
                "--method",
                "gumbel",
                "--factual-output",
                "p b",
                "--samples",
                "20",
                "--seed",
                "3",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert set(json.loads(out)["draws"]) == {"p b"}

    def test_stable_keep_prompt_is_point_mass(self, capsys, fixture_dir):
        code, out, _ = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "p",
                "--method",
                "stable",
                "--factual-output",
                "p c",
                "--exact",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["dist"] == {"p c": 1.0}

    def test_stable_sample_mode(self, capsys, fixture_dir):
        code, out, _ = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "q",
                "--method",
                "stable",
                "--factual-output",
                "p b",
                "--samples",
                "400",
                "--seed",
                "17",
            ],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        # excluded branch never shows up; surviving branches roughly 3:5
        assert set(payload["empirical"]) == {"q b", "q c"}
        assert payload["empirical"]["q c"] == pytest.approx(0.625, abs=0.08)

    def test_its_with_trace_file(self, capsys, fixture_dir, tmp_path, asym_lm):
        from cfgen.generators import its_factual_run, trace_to_json

        y, trace = its_factual_run(asym_lm, asym_lm.vocab.seq(["p"]), SamplingParams(), 5)
        tp = tmp_path / "trace.json"
        tp.write_text(trace_to_json(asym_lm, trace))
        code, out, _ = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "q",
                "--method",
                "its",
                "--trace",
                str(tp),
                "--samples",
                "1",
                "--seed",
                "0",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert len(json.loads(out)["draws"]) == 1

    def test_exact_mode_rejects_samples(self, capsys, fixture_dir):
        code, _, err = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm3.json"),
                "--prompt",
                "a",
                "--cf-prompt",
                "b",
                "--method",
                "simple",
                "--exact",
                "--samples",
                "10",
            ],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "exact mode" in err

    def test_sample_mode_requires_seed(self, capsys, fixture_dir):
        code, _, err = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm3.json"),
                "--prompt",
                "a",
                "--cf-prompt",
                "b",
                "--method",
                "simple",
                "--samples",
                "10",
            ],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "--seed" in err

    def test_gumbel_requires_factual_context(self, capsys, fixture_dir):
        code, _, err = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "q",
                "--method",
                "gumbel",
                "--samples",
                "5",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "factual-output" in err

    def test_length_mismatch_is_config_error(self, capsys, fixture_dir):
        code, _, err = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "p q",
                "--method",
                "gumbel",
                "--factual-output",
                "p b",
                "--samples",
                "2",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "length mismatch" in err

    def test_cap_exceeded_exit_code(self, capsys, fixture_dir, monkeypatch):
        monkeypatch.setenv("CFGEN_ENUM_CAP", "2")
        code, _, err = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm3.json"),
                "--prompt",
                "a",
                "--cf-prompt",
                "b",
                "--method",
                "simple",
                "--exact",
            ],
            capsys,
        )
        assert code == EXIT_CAP
        assert "cap" in err

    def test_zero_probability_output_is_model_error(self, capsys, fixture_dir):
        code, _, err = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "q",
                "--method",
                "stable",
                "--factual-output",
                "p p",
                "--exact",
            ],
            capsys,
        )
        assert code == EXIT_MODEL
        assert err == "error (model): observed output has zero probability at position 2 (token 'p')\n"

    @pytest.mark.parametrize("method", ["simple", "stable", "gumbel", "its"])
    def test_empty_factual_output_is_config_error(self, capsys, fixture_dir, method):
        code, out, err = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm3.json"),
                "--prompt",
                "a",
                "--cf-prompt",
                "b",
                "--method",
                method,
                "--factual-output",
                "",
                "--samples",
                "1",
                "--seed",
                "0",
            ],
            capsys,
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error (config): factual output must extend the factual prompt\n"

    def test_byte_identical_outputs(self, fixture_dir, tmp_path, capsys):
        args = [
            "counterfactual",
            "--model",
            str(fixture_dir / "lm3.json"),
            "--prompt",
            "a",
            "--cf-prompt",
            "b",
            "--method",
            "simple",
            "--samples",
            "50",
            "--seed",
            "9",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_tsv_format(self, capsys, fixture_dir):
        code, out, _ = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "q",
                "--method",
                "simple",
                "--exact",
                "--format",
                "tsv",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln]
        assert all("\t" in ln for ln in lines)


    @pytest.mark.parametrize("temperature", ["nan", "inf", "1e-320"])
    def test_unusable_temperature_is_config_error(self, capsys, fixture_dir, temperature):
        code, out, err = run(
            [
                "counterfactual",
                "--model",
                str(fixture_dir / "lm3.json"),
                "--prompt",
                "a",
                "--cf-prompt",
                "b",
                "--method",
                "simple",
                "--exact",
                "--temperature",
                temperature,
            ],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error (config): temperature") and err.count("\n") == 1


def _token_model_with(fixture_dir, tmp_path, **changes):
    payload = json.loads((fixture_dir / "lm3.json").read_text())
    payload.update(changes)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _exact_simple(model_path):
    return [
        "counterfactual", "--model", model_path, "--prompt", "a", "--cf-prompt", "b",
        "--method", "simple", "--exact",
    ]


class TestRejectedModels:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_token_row(self, capsys, fixture_dir, tmp_path, bad):
        probs = json.loads((fixture_dir / "lm3.json").read_text())["probs"]
        probs["a b"] = [bad, 0.5, 0.5]
        code, out, err = run(
            _exact_simple(_token_model_with(fixture_dir, tmp_path, probs=probs)), capsys
        )
        assert code == EXIT_MODEL
        assert out == ""
        assert err.startswith("error (model): row 'a b' not normalized") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_causal_row(self, capsys, tmp_path, bad):
        path = tmp_path / "nan.json"
        path.write_text(
            json.dumps(
                {
                    "vars": [
                        {"name": "X", "domain": ["0", "1"]},
                        {"name": "Y", "domain": ["0", "1"]},
                    ],
                    "edges": [["X", "Y"]],
                    "cpts": {"Y": {"parents": ["X"], "rows": {"0": [bad, 0.5], "1": [0.5, 0.5]}}},
                }
            )
        )
        code, out, err = run(["validate", "--model", str(path)], capsys)
        assert code == EXIT_MODEL
        assert out == ""
        assert err.startswith("error (model): Y: row '0' not normalized") and err.count("\n") == 1

    @pytest.mark.parametrize("k", [1.9, "3", True, 3.0])
    def test_non_integer_k(self, capsys, fixture_dir, tmp_path, k):
        code, out, err = run(_exact_simple(_token_model_with(fixture_dir, tmp_path, k=k)), capsys)
        assert code == EXIT_MODEL
        assert out == ""
        assert err.startswith("error (model): k must be a JSON integer") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (
                "counterfactual",
                "[1, 2]",
                "bad model JSON structure: the top level must be an object",
            ),
            (
                "counterfactual",
                '{"vocab": ["</e>", "a"], "k": 1, "type": "table", "probs": []}',
                "bad model JSON structure: a value has the wrong shape "
                "('list' object has no attribute 'items')",
            ),
            (
                "counterfactual",
                '{"vocab": ["</e>", "a"], "type": "table", "probs": {}}',
                "bad model JSON structure: missing key 'k'",
            ),
            (
                "counterfactual",
                '{"vocab": ["</e>", "a", "a"], "k": 1, "type": "table", "probs": {}}',
                "vocabulary tokens must be distinct",
            ),
            # the rows below sum to 1, so only the sign check can see the fault
            (
                "counterfactual",
                '{"vocab": ["</e>", "a"], "k": 1, "type": "table", "probs": {"": [1.5, -0.5]}}',
                "row '' has a negative probability",
            ),
            (
                "validate",
                "[" * 100_000 + "]" * 100_000,
                "bad model JSON: maximum recursion depth exceeded while decoding a JSON array "
                "from a unicode string",
            ),
            (
                "validate",
                '{"vars": [{"name": "X", "domain": ["0", "1"]},'
                ' {"name": "Y", "domain": ["0", "1"]}], "edges": [["X", "Y"]],'
                ' "cpts": {"Y": {"parents": ["X"], "rows": {"0": [1.5, -0.5], "1": [0.5, 0.5]}}}}',
                "Y: row '0' has a negative probability",
            ),
            # a boolean is not a number, though it sums like one
            (
                "validate",
                '{"vars": [{"name": "X", "domain": ["0", "1"]},'
                ' {"name": "Y", "domain": ["0", "1"]}], "edges": [["X", "Y"]],'
                ' "cpts": {"Y": {"parents": ["X"], "rows": {"0": [true, 0], "1": [0.5, 0.5]}}}}',
                "Y: row '0' must be a list of numbers",
            ),
            (
                "validate",
                '{"vars": [{"name": "X", "domain": ["0", "1"]},'
                ' {"name": "Y", "domain": ["0", "1"]}], "edges": [["X", "Y"]],'
                ' "cpts": {"Y": {"parents": ["X"], "rows": {"0": "01", "1": [0.5, 0.5]}}}}',
                "Y: row '0' must be a list of numbers",
            ),
            (
                "validate",
                '{"vars": [{"name": "X", "domain": ["0", "1"]}],'
                ' "edges": [["X", "Z"]], "cpts": {}}',
                "edge ['X', 'Z'] names an undeclared variable",
            ),
        ],
        ids=[
            "token_list",
            "token_list_probs",
            "token_no_k",
            "token_repeated",
            "token_negative",
            "causal_too_deep",
            "causal_negative",
            "causal_boolean",
            "causal_not_a_list",
            "causal_undeclared_edge",
        ],
    )
    def test_faults_are_named_in_one_line(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        if command == "validate":
            argv = ["validate", "--model", str(path)]
        else:
            argv = _exact_simple(str(path))
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_MODEL, "")
        assert err == f"error (model): {message}\n"


_LM3_PROBS = json.loads((SRC.parent / "fixtures" / "lm3.json").read_text())["probs"]
_NO_SPACES = "is not a nonempty string without spaces"
_NOT_IN_VOCAB = "which is not in the vocabulary"
_NOT_JOINED = "is not its tokens joined by single spaces"
_NAMES_EMPTY = "names '</e>', which ends the output, not a context"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"probs": {**_LM3_PROBS, "z": [1.0, 0.0, 0.0]}}, f"row 'z' names 'z', {_NOT_IN_VOCAB}"),
        ({"probs": {**_LM3_PROBS, "a z": [1, 0, 0]}}, f"row 'a z' names 'z', {_NOT_IN_VOCAB}"),
        (
            {"type": "bigram", "probs": {"a": [0.2, 0.5, 0.3], "z": [1, 0, 0]},
             "unigram": [0, 0.6, 0.4]},
            f"row 'z' names 'z', {_NOT_IN_VOCAB}",
        ),
        ({"vocab": ["</e>", "a b", "b"]}, f"vocabulary entry 'a b' {_NO_SPACES}"),
        ({"vocab": ["</e>", 1, 2]}, f"vocabulary entry 1 {_NO_SPACES}"),
        ({"vocab": ["</e>", "", "b"]}, f"vocabulary entry '' {_NO_SPACES}"),
        ({"vocab": {"</e>": 1, "a": 2, "b": 3}}, "vocab must be a list of tokens"),
        ({"probs": {**_LM3_PROBS, "a b": [True, 0, 0]}}, "row 'a b' must be a list of numbers"),
        ({"probs": {**_LM3_PROBS, "a b": "abc"}}, "row 'a b' must be a list of numbers"),
        # rows the model would never read, or would read in place of another
        ({"probs": {**_LM3_PROBS, "a  b": [1, 0, 0]}}, f"row 'a  b' {_NOT_JOINED}"),
        ({"probs": {**_LM3_PROBS, " a": [1, 0, 0]}}, f"row ' a' {_NOT_JOINED}"),
        ({"probs": {**_LM3_PROBS, "</e> a": [1, 0, 0]}}, f"row '</e> a' {_NAMES_EMPTY}"),
        (
            {"type": "bigram", "probs": {"a": [0.2, 0.5, 0.3], "b": [0.5, 0.25, 0.25],
                                         "</e>": [1, 0, 0]}, "unigram": [0, 0.6, 0.4]},
            f"row '</e>' {_NAMES_EMPTY}",
        ),
        (
            {"probs": {**_LM3_PROBS, "a b a": [1, 0, 0]}},
            "row 'a b a' has a context of 3 tokens; k=3 reads at most 2",
        ),
        # the checks above come after this one, which every key would fail too
        ({"k": 0}, "k must be at least 1"),
    ],
    ids=[
        "table_key", "table_key_in_context", "bigram_key", "vocab_space", "vocab_numbers",
        "vocab_empty", "vocab_object", "row_boolean", "row_string", "table_key_two_spaces",
        "table_key_leading_space", "table_key_names_empty", "bigram_key_names_empty",
        "table_key_too_long", "k_zero",
    ],
)
def test_token_model_names_only_its_vocabulary(capsys, fixture_dir, tmp_path, changes, message):
    code, out, err = run(_exact_simple(_token_model_with(fixture_dir, tmp_path, **changes)), capsys)
    assert (code, out) == (EXIT_MODEL, "")
    assert err == f"error (model): {message}\n"


def _without(probs, *keys):
    return {key: row for key, row in probs.items() if key not in keys}


_EVERY_CONTEXT = "k=3 reads every context of fewer than 3 tokens"
_BIGRAM_ROWS = {"a": [0.2, 0.5, 0.3], "b": [0.5, 0.25, 0.25]}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"probs": _without(_LM3_PROBS, "b a")}, f"no row for context 'b a'; {_EVERY_CONTEXT}"),
        ({"probs": _without(_LM3_PROBS, "")}, f"no row for context ''; {_EVERY_CONTEXT}"),
        # shortest first
        ({"probs": _without(_LM3_PROBS, "b a", "b")}, f"no row for context 'b'; {_EVERY_CONTEXT}"),
        (
            {"type": "bigram", "probs": _without(_BIGRAM_ROWS, "b"), "unigram": [0, 0.6, 0.4]},
            "no row for token 'b'; k=3 reads a row for every token",
        ),
    ],
    ids=["table_two_tokens", "table_empty_context", "table_shortest_first", "bigram"],
)
@pytest.mark.parametrize("prompts", [("a", "b"), ("b", "a")], ids=["a_to_b", "b_to_a"])
def test_token_model_needs_every_row_a_prompt_can_reach(
    capsys, fixture_dir, tmp_path, changes, message, prompts
):
    # before any query runs, whichever rows the query itself would read
    argv = _exact_simple(_token_model_with(fixture_dir, tmp_path, **changes))
    argv[4], argv[6] = prompts
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_MODEL, "")
    assert err == f"error (model): {message}\n"


@pytest.mark.parametrize(
    "changes",
    [
        # at k = 1 the empty context is the only one, so no bigram row is read
        {"type": "bigram", "k": 1, "probs": {}, "unigram": [0, 0.6, 0.4]},
        {"k": 1, "probs": {"": [0, 0.6, 0.4]}},
    ],
    ids=["bigram_k1", "table_k1"],
)
def test_token_model_with_every_reachable_row_loads(capsys, fixture_dir, tmp_path, changes):
    code, _, err = run(_exact_simple(_token_model_with(fixture_dir, tmp_path, **changes)), capsys)
    assert (code, err) == (EXIT_OK, "")


class TestErrorCodeMapping:
    def test_each_error_class_has_its_own_exit_code(self, capsys, monkeypatch):
        # route each package error through main's handler via a stub command
        import cfgen.cli as cli

        cases = [
            (InputError("x"), EXIT_CONFIG),
            (ModelError("x"), EXIT_MODEL),
            (EnumerationCapError("x"), EXIT_CAP),
        ]
        for exc, expected in cases:
            def boom(args, _e=exc):
                raise _e

            monkeypatch.setitem(cli._DISPATCH, "validate", boom)
            code, _, _ = run(["validate", "--model", "whatever"], capsys)
            assert code == expected


class TestBounds:
    def test_flip_query_json(self, capsys):
        code, out, _ = run(
            ["bounds", "--p", "0.3", "--q", "0.7", "--query", "Y*=0|Y=1,X=1,X*=0"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lo"] == 0.0 and payload["hi"] == 1.0
        assert payload["resampling_answer_within_bounds"] is True
        assert payload["positivity"]["arg_lo"] == "boundary (non-positive)"

    @pytest.mark.parametrize(
        "query", ["Y*=0|Y=0,X=0,X*=1", "Y*=1|Y=0,X=0,X*=1", "Y*=1|Y=0,X=1,X*=0"]
    )
    def test_bounds_are_clamped_to_the_unit_interval(self, capsys, query):
        # unclamped, these print -1.586e-15, 1.0000000000000016 and 1.0000000000000002
        code, out, _ = run(["bounds", "--p", "0.07", "--q", "0.93", "--query", query], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert 0.0 <= payload["lo"] <= payload["hi"] <= 1.0
        assert payload["resampling_answer_within_bounds"] is True

    def test_invalid_pq(self, capsys):
        code, _, err = run(
            ["bounds", "--p", "0.7", "--q", "0.3", "--query", "Y*=0|Y=1,X=1,X*=0"], capsys
        )
        assert code == EXIT_CONFIG
        assert "0 < p < q < 1" in err


class TestVerify:
    def test_example1_suite(self, capsys):
        code, out, _ = run(["verify", "--suite", "example1"], capsys)
        assert code == EXIT_OK
        lines = [json.loads(ln) for ln in out.splitlines() if ln]
        assert all(r["passed"] for r in lines)

    def test_thm2_suite(self, capsys):
        code, out, _ = run(["verify", "--suite", "thm2", "--seed", "11"], capsys)
        assert code == EXIT_OK
        lines = [json.loads(ln) for ln in out.splitlines() if ln]
        assert len(lines) == 5
        assert all(r["max_deviation"] <= 1e-12 for r in lines)

    def test_verify_output_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["verify", "--suite", "example1", "--out", str(a)]) == EXIT_OK
        assert main(["verify", "--suite", "example1", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestCompare:
    def test_pairwise_tvds(self, capsys, fixture_dir):
        code, out, _ = run(
            [
                "compare",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "q",
                "--factual-output",
                "p b",
                "--samples",
                "2000",
                "--seed",
                "13",
            ],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["tvd"]["simple|simple"] == 0.0
        # factual token b: stable law is (0, .375, .625) vs resampling (.2, .3, .5)
        assert payload["tvd"]["simple|stable"] == pytest.approx(0.2, abs=1e-9)
        assert payload["tvd"]["simple|gumbel"] <= 1.0
        assert payload["estimator"]["gumbel"].startswith("empirical")

    def test_requires_factual_output(self, capsys, fixture_dir):
        code, _, err = run(
            [
                "compare",
                "--model",
                str(fixture_dir / "lm_asym.json"),
                "--prompt",
                "p",
                "--cf-prompt",
                "q",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "factual-output" in err


    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_must_be_positive(self, capsys, fixture_dir, samples):
        code, out, err = run(
            ["compare", "--model", str(fixture_dir / "lm_asym.json"), "--prompt", "p",
             "--cf-prompt", "q", "--factual-output", "p b", "--samples", samples, "--seed", "13"],
            capsys,
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error (config): compare needs --samples >= 1\n"


LM3_QUERY = ["--prompt", "a", "--cf-prompt", "b", "--factual-output", "a a"]


class TestPromptOfKTokens:
    """A prompt of k tokens leaves no position to generate, so every method
    answers the counterfactual prompt itself; one of k + 1 tokens is refused.
    lm3 has k = 3."""

    MODES = {
        "simple/exact": ["--method", "simple", "--exact"],
        "simple/sample": ["--method", "simple", "--samples", "5", "--seed", "1"],
        "stable/exact": ["--method", "stable", "--exact"],
        "stable/sample": ["--method", "stable", "--samples", "5", "--seed", "1"],
        "gumbel/sample": ["--method", "gumbel", "--samples", "5", "--seed", "1"],
        "its/sample": ["--method", "its", "--samples", "5", "--seed", "1"],
    }

    @staticmethod
    def argv(fixture_dir, command, n, *flags):
        x, x_star = " ".join(["a"] * n), " ".join(["b"] * n)
        return [
            command, "--model", str(fixture_dir / "lm3.json"), "--prompt", x,
            "--cf-prompt", x_star, "--factual-output", x, *flags,
        ]

    @pytest.mark.parametrize("mode", MODES)
    def test_counterfactual_is_the_point_mass_on_x_star(self, capsys, fixture_dir, mode):
        argv = self.argv(fixture_dir, "counterfactual", 3, *self.MODES[mode])
        code, out, err = run(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert payload["dist" if mode.endswith("exact") else "empirical"] == {"b b b": 1.0}

    def test_compare_finds_every_method_equal(self, capsys, fixture_dir):
        argv = self.argv(fixture_dir, "compare", 3, "--samples", "5", "--seed", "1")
        code, out, err = run(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert set(payload["tvd"].values()) == {0.0}
        assert all(d == {"b b b": 1.0} for d in payload["dists"].values())

    @pytest.mark.parametrize("mode", [*MODES, "compare"])
    def test_one_token_more_is_refused_in_one_line(self, capsys, fixture_dir, mode):
        if mode == "compare":
            argv = self.argv(fixture_dir, "compare", 4, "--samples", "5", "--seed", "1")
        else:
            argv = self.argv(fixture_dir, "counterfactual", 4, *self.MODES[mode])
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("error (config): ") and err.count("\n") == 1
        # every flag argv sets to k + 1 tokens is named: both prompts and
        # the factual output, which extends the factual prompt
        for flag in ("--prompt", "--cf-prompt", "--factual-output"):
            assert f"{flag} has 4" in err

    @pytest.mark.parametrize("command", ["counterfactual", "compare"])
    def test_a_long_factual_output_alone_is_named_alone(self, capsys, fixture_dir, command):
        argv = [
            command, "--model", str(fixture_dir / "lm3.json"), "--prompt", "a",
            "--cf-prompt", "b", "--factual-output", "a a a a", "--seed", "1",
            *(["--method", "stable", "--exact"] if command == "counterfactual" else []),
        ]
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error (config): more than k=3 tokens: --factual-output has 4\n"


class TestTruncationFlags:
    """Gumbel noise reuse refuses --top-k/--top-p; the message names the flags."""

    @pytest.mark.parametrize("flag", [["--top-k", "2"], ["--top-p", "0.9"]])
    def test_gumbel_counterfactual(self, capsys, fixture_dir, flag):
        code, out, err = run(
            ["counterfactual", "--model", str(fixture_dir / "lm3.json"), *LM3_QUERY,
             "--method", "gumbel", "--samples", "3", "--seed", "1", *flag],
            capsys,
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (
            "error (config): --top-k/--top-p break noise-reuse stability; "
            "--method gumbel cannot take them\n"
        )

    @pytest.mark.parametrize("flag", [["--top-k", "2"], ["--top-p", "0.9"]])
    def test_compare(self, capsys, fixture_dir, flag):
        code, out, err = run(
            ["compare", "--model", str(fixture_dir / "lm3.json"), *LM3_QUERY,
             "--samples", "5", "--seed", "1", *flag],
            capsys,
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert "--top-k/--top-p" in err and "gumbel" in err

    def test_its_still_takes_them(self, capsys, fixture_dir):
        code, out, _ = run(
            ["counterfactual", "--model", str(fixture_dir / "lm3.json"), *LM3_QUERY,
             "--method", "its", "--samples", "3", "--seed", "1", "--top-k", "2"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["params"]["top_k"] == 2

    def test_model_errors_still_come_first(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, _ = run(
            ["counterfactual", "--model", str(bad), *LM3_QUERY, "--method", "gumbel",
             "--samples", "3", "--seed", "1", "--top-k", "2"],
            capsys,
        )
        assert code == EXIT_MODEL


def _lm3_trace(tmp_path, fixture_dir, lm3, changes):
    """An its trace on lm3 at prompt "a", whose noise replays "a b b", with
    the payload fields in ``changes`` replaced; a list is written instead of
    the whole payload."""
    _, trace = its_factual_run(lm3, lm3.vocab.seq(["a"]), SamplingParams(), 1)
    payload = json.loads(trace_to_json(lm3, trace))
    payload = changes if type(changes) is list else {**payload, **changes}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    return [
        "counterfactual", "--model", str(fixture_dir / "lm3.json"),
        "--prompt", "a", "--cf-prompt", "b", "--method", "its", "--trace", str(path),
        "--samples", "1", "--seed", "0",
    ]


class TestRejectedTraces:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"noise": [0.13, float("nan"), 0.76]}, "trace noise must be finite numbers"),
            ({"noise": [2.5, 2.5, 2.5]}, "uniform noise must lie in [0, 1)"),
            (
                {"y": ["a", "a", "a"]},
                "trace noise replays 'a b b' at its prompt, not its output 'a a a'",
            ),
            ([1, 2], "bad trace JSON structure: the top level must be an object"),
            (
                {"params": [1.0]},
                "bad trace JSON structure: a value has the wrong shape "
                "(list indices must be integers or slices, not str)",
            ),
            (
                {"params": {"temperature": 1.0, "top_k": None, "top_p": True}},
                "trace params must be numbers or null",
            ),
        ],
        ids=[
            "nan_noise", "uniform_above_one", "noise_does_not_replay_y", "list", "list_params",
            "boolean_param",
        ],
    )
    def test_rejected_with_one_line(self, capsys, tmp_path, fixture_dir, lm3, changes, message):
        code, out, err = run(_lm3_trace(tmp_path, fixture_dir, lm3, changes), capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error (config): {message}\n"


class TestTraceParams:
    def test_trace_replays_only_under_its_own_params(self, capsys, tmp_path, fixture_dir, lm3):
        # recorded at T = 0.2, this trace gives "a a"; at the default T = 1
        # the same noise gives "a a a"
        y, trace = gumbel_factual_run(lm3, lm3.vocab.seq(["a"]), SamplingParams(0.2), 3)
        assert lm3.vocab.strings(y.stripped()) == ("a", "a")
        path = tmp_path / "trace.json"
        path.write_text(trace_to_json(lm3, trace))
        argv = [
            "counterfactual", "--model", str(fixture_dir / "lm3.json"), "--prompt", "a",
            "--cf-prompt", "a", "--method", "gumbel", "--trace", str(path),
            "--samples", "1", "--seed", "0",
        ]
        code, out, err = run(argv, capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == (
            "error (config): --temperature/--top-k/--top-p do not match the trace's "
            "SamplingParams(temperature=0.2, top_k=None, top_p=None)\n"
        )
        code, out, _ = run([*argv, "--temperature", "0.2"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["draws"] == ["a a"]

    def test_trace_replays_only_its_own_output(self, capsys, tmp_path, fixture_dir, lm3):
        # this its trace gives "a b" at prompt "a"
        y, trace = its_factual_run(lm3, lm3.vocab.seq(["a"]), SamplingParams(), 2)
        assert lm3.vocab.strings(y.stripped()) == ("a", "b")
        path = tmp_path / "trace.json"
        path.write_text(trace_to_json(lm3, trace))
        argv = [
            "counterfactual", "--model", str(fixture_dir / "lm3.json"), "--prompt", "a",
            "--cf-prompt", "b", "--method", "its", "--trace", str(path),
            "--samples", "1", "--seed", "1",
        ]
        code, out, err = run([*argv, "--factual-output", "a a a"], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error (config): --factual-output does not match the trace's factual output\n"
        replayed = run(argv, capsys)
        assert replayed[0] == EXIT_OK
        for agreeing in ("a b", "a b </e>"):
            code, out, _ = run([*argv, "--factual-output", agreeing], capsys)
            assert code == EXIT_OK
            assert json.loads(out)["draws"] == json.loads(replayed[1])["draws"]

    @pytest.mark.parametrize(
        "mode",
        [["--exact"], ["--samples", "1", "--seed", "1"]],
        ids=["exact", "sample"],
    )
    @pytest.mark.parametrize("method", ["simple", "stable"])
    def test_only_noise_reuse_reads_a_trace(self, capsys, tmp_path, fixture_dir, method, mode):
        argv = [
            "counterfactual", "--model", str(fixture_dir / "lm3.json"), "--prompt", "a",
            "--cf-prompt", "b", "--method", method, "--factual-output", "a b", *mode,
        ]
        assert run(argv, capsys)[0] == EXIT_OK
        code, out, err = run([*argv, "--trace", str(tmp_path / "absent.json")], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (
            f"error (config): {method} does not read --trace; only gumbel and its replay one\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--model", "{missing}"], "model file not found: {missing}"),
        (
            ["counterfactual", "--model", "{missing}", "--prompt", "a", "--cf-prompt", "b",
             "--method", "simple", "--exact"],
            "model file not found: {missing}",
        ),
        (
            ["counterfactual", "--model", "{lm3}", "--prompt", "a", "--cf-prompt", "b",
             "--method", "its", "--trace", "{missing}", "--samples", "1", "--seed", "0"],
            "trace file not found: {missing}",
        ),
    ],
    ids=["validate_model", "counterfactual_model", "counterfactual_trace"],
)
def test_missing_file_is_config_error(capsys, tmp_path, fixture_dir, argv, message):
    paths = {"missing": str(tmp_path / "absent.json"), "lm3": str(fixture_dir / "lm3.json")}
    code, out, err = run([a.format(**paths) for a in argv], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"error (config): {message.format(**paths)}\n"


class TestInProcessReuse:
    """Repeated in-process ``main`` calls share one parser and nothing else."""

    BOUNDS = ["bounds", "--p", "0.3", "--q", "0.7", "--query", "Y*=0|Y=1,X=1,X*=0"]

    def test_import_builds_no_parser(self):
        probe = "import cfgen.cli as c; print(c._build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True,
        )
        assert done.stdout == "0\n"

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        for argv in (self.BOUNDS, ["verify", "--suite", "example1"], self.BOUNDS):
            assert run(argv, capsys)[0] == EXIT_OK
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_errors_leave_nothing_for_the_next_request(self, capsys, tmp_path, fixture_dir):
        asym = str(fixture_dir / "lm_asym.json")
        valid = [
            "counterfactual", "--model", asym, "--prompt", "p", "--cf-prompt", "q",
            "--method", "gumbel", "--factual-output", "p b", "--samples", "30", "--seed", "4",
        ]
        alone = tmp_path / "alone.json"
        assert fresh_cfgen([*valid, "--out", str(alone)]).returncode == EXIT_OK

        with pytest.raises(SystemExit) as usage:
            main(["counterfactual", "--model", asym, "--method", "gumbel"])
        assert usage.value.code == 2
        zero_probability = [
            "counterfactual", "--model", asym, "--prompt", "p", "--cf-prompt", "q",
            "--method", "stable", "--factual-output", "p p", "--exact",
        ]
        assert run(zero_probability, capsys)[0] == EXIT_MODEL
        after = tmp_path / "after.json"
        assert run([*valid, "--out", str(after)], capsys)[0] == EXIT_OK
        assert after.read_bytes() == alone.read_bytes()

    def test_help_matches_a_fresh_process(self, capsys, monkeypatch):
        # build the parser at one width, then ask for help at another
        cli._build_parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "200")
        assert run(self.BOUNDS, capsys)[0] == EXIT_OK
        monkeypatch.setenv("COLUMNS", "60")
        with pytest.raises(SystemExit) as done:
            main(["counterfactual", "--help"])
        assert done.value.code == 0
        in_process = capsys.readouterr().out
        fresh = fresh_cfgen(["counterfactual", "--help"], COLUMNS="60")
        assert fresh.returncode == 0
        assert in_process == fresh.stdout
        assert in_process != fresh_cfgen(["counterfactual", "--help"], COLUMNS="200").stdout
