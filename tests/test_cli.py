"""Command-line behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from cfgen.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_MODEL,
    EXIT_OK,
    EXIT_UNDEFINED,
    main,
)
from cfgen.errors import (
    EnumerationCapError,
    InputError,
    ModelError,
    StableDistUndefinedError,
)
from cfgen.generators import CfQuery, simple_cf_dist
from cfgen.tokenlm import SamplingParams


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestErrorCodeMapping:
    def test_each_error_class_has_its_own_exit_code(self, capsys, monkeypatch):
        # route each package error through main's handler via a stub command
        import cfgen.cli as cli

        cases = [
            (InputError("x"), EXIT_CONFIG),
            (ModelError("x"), EXIT_MODEL),
            (EnumerationCapError("x"), EXIT_CAP),
            (StableDistUndefinedError("x"), EXIT_UNDEFINED),
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
