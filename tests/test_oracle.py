"""Enumeration oracle, empirical harness, and the claim checks themselves."""

from __future__ import annotations

import pytest

from cfgen.dist import DistTable
from cfgen.errors import EnumerationCapError, InputError
from cfgen.nondet import World
from cfgen.oracle import (
    empirical_dist,
    enumerate_worlds,
    random_nondet_model,
    random_table_lm,
    random_u_independent_scm,
    sweep_det_nondet_equivalence,
    verify_canonical_binary,
    verify_compiled_simple_semantics,
    verify_gumbel_stability,
    verify_zero_temperature,
)
from cfgen.seeding import derive_seed, make_rng
from cfgen.tokenlm import SamplingParams, compile_to_nondet, seq_dist


class TestEnumerateWorlds:
    def test_binary_chain_two_worlds(self, binary_chain):
        worlds = enumerate_worlds(binary_chain, World.of({"X": "1"}))
        assert len(worlds) == 2
        assert sum(p for _, p in worlds) == pytest.approx(1.0, abs=1e-9)

    def test_compiled_lm_support_size(self, lm3):
        m = compile_to_nondet(lm3, 1, SamplingParams())
        x = lm3.vocab.seq(["a"])
        worlds = enumerate_worlds(m, World.of({"X": x}))
        assert len(worlds) <= 9
        d = seq_dist(lm3, x, SamplingParams())
        for w, p in worlds:
            assert p == pytest.approx(d.prob(w["Y"]), abs=1e-12)

    def test_cap(self, lm3):
        m = compile_to_nondet(lm3, 1, SamplingParams())
        with pytest.raises(EnumerationCapError):
            enumerate_worlds(m, World.of({"X": lm3.vocab.seq(["a"])}), cap=10)


class TestEmpiricalDist:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            empirical_dist(lambda s: 0, 0, seed=1)

    def test_point_sampler(self):
        d = empirical_dist(lambda s: "only", 100, seed=1)
        assert d == DistTable.point("only")

    def test_uniform_binary_within_ci(self):
        d = empirical_dist(lambda s: make_rng(s).random() < 0.5, 100_000, seed=2)
        assert d.prob(True) == pytest.approx(0.5, abs=0.01)

    def test_deterministic_given_seed(self):
        a = empirical_dist(lambda s: make_rng(s).randint(0, 3), 1000, seed=3)
        b = empirical_dist(lambda s: make_rng(s).randint(0, 3), 1000, seed=3)
        assert a == b


class TestGenerators:
    def test_random_model_is_valid(self):
        from cfgen.nondet import validate_model

        for i in range(10):
            m = random_nondet_model(make_rng(derive_seed(5, i)))
            assert validate_model(m).ok

    def test_random_scm_ignores_noise(self):
        m = random_u_independent_scm(make_rng(7))
        noise = m.noise_worlds()
        for r in m.root_worlds():
            outs = {m.apply(u, r) for u in noise}
            assert len(outs) == 1

    def test_random_lm_rows_are_total(self):
        lm = random_table_lm(make_rng(9), 4, 3)
        assert len(lm.table) == 1 + 3 + 9
        for row in lm.table.values():
            assert row.total == pytest.approx(1.0, abs=1e-9)

    def test_reproducible(self):
        assert random_table_lm(make_rng(1), 3, 3) == random_table_lm(make_rng(1), 3, 3)


class TestClaims:
    def test_det_nondet_sweep_passes(self):
        rep = sweep_det_nondet_equivalence(10, seed=42)
        assert rep.passed
        assert rep.max_deviation <= 1e-12

    def test_compiled_simple_semantics_on_fixture(self, lm3):
        rep = verify_compiled_simple_semantics(lm3, SamplingParams(), 1)
        assert rep.passed and rep.instances == 14

    def test_zero_temperature_exact(self, lm3):
        rep = verify_zero_temperature(lm3, 1)
        assert rep.passed

    def test_canonical_binary(self):
        rep = verify_canonical_binary()
        assert rep.passed

    def test_stability_strict_and_diagnostic(self, asym_lm, topk_lm):
        strict = verify_gumbel_stability(
            asym_lm,
            asym_lm.vocab.seq(["p"]),
            asym_lm.vocab.seq(["q"]),
            n_traces=300,
            seed=8,
        )
        assert strict.passed and strict.max_deviation == 0.0
        diag = verify_gumbel_stability(
            topk_lm,
            topk_lm.vocab.seq(["p"]),
            topk_lm.vocab.seq(["q"]),
            n_traces=300,
            seed=8,
            cf_params=SamplingParams(top_k=1),
        )
        assert diag.passed  # diagnostic mode never fails the build
        assert diag.max_deviation > 0  # but the count is visible
        assert any("diagnostic" in n for n in diag.notes)

    def test_reports_reproducible(self):
        a = sweep_det_nondet_equivalence(5, seed=6)
        b = sweep_det_nondet_equivalence(5, seed=6)
        assert a == b

    def test_bigram_model_satisfies_the_same_claims(self):
        from cfgen.dist import DistTable
        from cfgen.tokenlm import ToyLM, Vocab

        vocab = Vocab(("</e>", "a", "b"))
        lm = ToyLM(
            vocab,
            3,
            "bigram",
            table={
                (): DistTable({"</e>": 0.0, "a": 0.5, "b": 0.5}),
                ("a",): DistTable({"</e>": 0.3, "a": 0.2, "b": 0.5}),
                ("b",): DistTable({"</e>": 0.1, "a": 0.7, "b": 0.2}),
            },
        )
        rep = verify_compiled_simple_semantics(lm, SamplingParams(), 1)
        assert rep.passed and rep.instances > 0
        rep0 = verify_zero_temperature(lm, 1)
        assert rep0.passed
