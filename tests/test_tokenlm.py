"""Token-model decoding, exact sequence laws, and compilation.

Claims:
    - reshaping runs temperature, then top-k, then top-p, renormalizing at
      each stage; temperature 1 with no truncation is the identity
    - temperature 0 is an exact argmax branch with lowest-index ties
    - EMPTY absorbs under every parameter setting
    - the sequence law matches hand-computed chain products and sums to 1
    - samplers are deterministic given the seed and match the exact law
    - compiling reproduces the chain product as a causal-model joint and
      the compiled model satisfies the simple semantics
    - the JSON model format round-trips
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgen.dist import DistTable, max_abs_diff, tvd
from cfgen.errors import EnumerationCapError, InputError
from cfgen.nondet import World, check_simple_semantics, joint_prob, validate_model
from cfgen.oracle import empirical_dist, random_table_lm
from cfgen.seeding import make_rng
from cfgen.tokenlm import (
    SamplingParams,
    TokenSeq,
    ToyLM,
    Vocab,
    compile_to_nondet,
    lm_from_json,
    lm_to_json,
    next_dist,
    next_pairs,
    sample_output,
    seq_dist,
    zero_temp_fn,
)

V3 = Vocab(("</e>", "a", "b"))


def one_step_lm(probs: dict[str, float], vocab: Vocab = V3, k: int = 2) -> ToyLM:
    table = {(): DistTable(probs)}
    for length in range(1, k):
        for ctx in itertools.product(vocab.real_tokens, repeat=length):
            table[ctx] = DistTable.point(vocab.empty)
    return ToyLM(vocab, k, "table", table=table)


class TestTokenSeq:
    def test_padded_form_enforced(self):
        with pytest.raises(InputError):
            TokenSeq((1, 0, 2))

    @pytest.mark.parametrize(
        "ids, message",
        [
            ((-1,), "nonnegative"),
            ((1, 0, 2), "padded form"),
            ((0, -1), "nonnegative"),  # a negative id after EMPTY is reported as negative
            ((1, 0, 2, -1), "padded form"),  # the earlier fault wins
            ((-1, 0, 2), "nonnegative"),
            ((0, 0, 3, 0), "padded form"),
        ],
    )
    def test_first_fault_names_the_message(self, ids, message):
        with pytest.raises(InputError, match=message):
            TokenSeq(ids)

    def test_effective_len(self):
        assert TokenSeq((1, 2, 0)).effective_len == 2
        assert TokenSeq((1, 2)).effective_len == 2
        assert TokenSeq(()).effective_len == 0

    def test_pad_strip_round_trip(self):
        s = TokenSeq((1, 2))
        assert s.padded(4).ids == (1, 2, 0, 0)
        assert s.padded(4).stripped() == s

    def test_extends(self):
        assert TokenSeq((1, 2, 0)).extends(TokenSeq((1,)))
        assert not TokenSeq((2, 1)).extends(TokenSeq((1,)))


class TestNextDist:
    def test_identity_at_unit_temperature(self, lm3):
        d = next_dist(lm3, V3.seq(["a"]), SamplingParams())
        assert d.prob("</e>") == 0.2 and d.prob("a") == 0.5 and d.prob("b") == 0.3

    def test_zero_temperature_argmax(self):
        lm = one_step_lm({"</e>": 0.0, "a": 0.5, "b": 0.5})
        # tie between a and b resolves to the lower vocabulary index
        d = next_dist(lm, TokenSeq(()), SamplingParams(temperature=0.0))
        assert d.prob("a") == 1.0

    def test_top_k_truncates_and_renormalizes(self):
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_dist(lm, TokenSeq(()), SamplingParams(top_k=2))
        assert d.prob("a") == pytest.approx(0.625, abs=1e-12)
        assert d.prob("b") == pytest.approx(0.375, abs=1e-12)
        assert d.prob("</e>") == 0.0

    def test_top_p_smallest_prefix(self):
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_dist(lm, TokenSeq(()), SamplingParams(top_p=0.7))
        assert d.prob("a") == pytest.approx(0.625, abs=1e-12)
        assert d.prob("b") == pytest.approx(0.375, abs=1e-12)
        d1 = next_dist(lm, TokenSeq(()), SamplingParams(top_p=0.5))
        assert d1.prob("a") == 1.0

    def test_temperature_reshapes_by_power(self):
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_dist(lm, TokenSeq(()), SamplingParams(temperature=2.0))
        z = math.sqrt(0.2) + math.sqrt(0.5) + math.sqrt(0.3)
        assert d.prob("a") == pytest.approx(math.sqrt(0.5) / z, abs=1e-12)

    def test_small_temperature_approaches_argmax(self):
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_dist(lm, TokenSeq(()), SamplingParams(temperature=1e-6))
        assert d.prob("a") >= 0.999

    def test_absorbing_overrides_params(self, lm3):
        ctx = TokenSeq((1, 0))  # "a" then EMPTY
        for params in (
            SamplingParams(),
            SamplingParams(temperature=0.0),
            SamplingParams(temperature=3.0, top_k=1),
            SamplingParams(top_p=0.1),
        ):
            d = next_dist(lm3, ctx, params)
            assert d.prob("</e>") == 1.0

    def test_temperature_runs_before_top_p(self):
        # flattening first keeps two tokens at top_p=0.5; the other order
        # would collapse to a point mass
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_dist(lm, TokenSeq(()), SamplingParams(temperature=3.0, top_p=0.5))
        cube = {t: p ** (1.0 / 3.0) for t, p in (("</e>", 0.2), ("a", 0.5), ("b", 0.3))}
        z = sum(cube.values())
        flat = {t: v / z for t, v in cube.items()}
        kept = flat["a"] + flat["b"]
        assert d.prob("a") == pytest.approx(flat["a"] / kept, abs=1e-9)
        assert d.prob("b") == pytest.approx(flat["b"] / kept, abs=1e-9)
        assert d.prob("</e>") == 0.0

    def test_each_stage_normalizes(self, lm3):
        for params in (
            SamplingParams(temperature=0.7),
            SamplingParams(temperature=2.5, top_k=2),
            SamplingParams(temperature=0.5, top_k=2, top_p=0.8),
        ):
            d = next_dist(lm3, V3.seq(["b"]), params)
            assert d.total == pytest.approx(1.0, abs=1e-9)

    def test_context_length_bound(self, lm3):
        with pytest.raises(InputError):
            next_dist(lm3, V3.seq(["a", "b", "a"]), SamplingParams())


@settings(max_examples=40, derandomize=True)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_reshaping_always_normalizes(temp, top_k, top_p):
    lm = one_step_lm({"</e>": 0.1, "a": 0.6, "b": 0.3})
    pairs = next_pairs(lm, (), SamplingParams(temp, top_k, top_p))
    assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-9)
    assert all(p >= 0.0 for _, p in pairs)


class TestSeqDist:
    def test_hand_computed_chain(self, lm3):
        d = seq_dist(lm3, V3.seq(["a"]), SamplingParams())
        expect = {
            ("a",): 0.2,
            ("a", "a"): 0.25,
            ("a", "a", "a"): 0.125,
            ("a", "a", "b"): 0.125,
            ("a", "b"): 0.03,
            ("a", "b", "a"): 0.18,
            ("a", "b", "b"): 0.09,
        }
        assert len(d.support) == len(expect)
        for toks, p in expect.items():
            assert d.prob(V3.seq(toks).padded(3)) == pytest.approx(p, abs=1e-12)
        assert d.total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_lm_point_mass(self, lm3):
        d = seq_dist(lm3, V3.seq(["a"]), SamplingParams(temperature=0.0))
        assert d.is_point_mass
        assert d.prob(zero_temp_fn(lm3, V3.seq(["a"]))) == 1.0

    def test_first_token_marginal_matches_next_dist(self, lm3):
        x = V3.seq(["b"])
        d = seq_dist(lm3, x, SamplingParams())
        nd = next_dist(lm3, x, SamplingParams())
        for tok in V3.tokens:
            got = sum(p for s, p in d.items() if s.ids[1] == V3.index(tok))
            assert got == pytest.approx(nd.prob(tok), abs=1e-12)

    def test_cap(self, lm3):
        with pytest.raises(EnumerationCapError):
            seq_dist(lm3, V3.seq(["a"]), SamplingParams(), cap=3)


class TestSampling:
    def test_seed_determinism(self, lm3):
        a = sample_output(lm3, V3.seq(["a"]), SamplingParams(), seed=5)
        b = sample_output(lm3, V3.seq(["a"]), SamplingParams(), seed=5)
        assert a == b

    def test_zero_temperature_matches_greedy(self, lm3):
        for seed in range(5):
            assert sample_output(
                lm3, V3.seq(["b"]), SamplingParams(temperature=0.0), seed
            ) == zero_temp_fn(lm3, V3.seq(["b"]))

    def test_greedy_padding_invariance(self, lm3):
        assert zero_temp_fn(lm3, V3.seq(["a"])) == zero_temp_fn(lm3, V3.seq(["a"]).padded(3))

    def test_empirical_matches_exact(self, lm3):
        x = V3.seq(["a"])
        exact = seq_dist(lm3, x, SamplingParams())
        emp = empirical_dist(
            lambda s: sample_output(lm3, x, SamplingParams(), s), 20_000, seed=77
        )
        assert tvd(emp, exact) <= 0.02


class TestCompile:
    def test_joint_matches_sequence_law_everywhere(self, lm3):
        params = SamplingParams()
        m = compile_to_nondet(lm3, 1, params)
        assert validate_model(m).ok
        for x in m.domain("X"):
            d = seq_dist(lm3, x, params)
            for y, p in d.items():
                toks = lm3.vocab.strings(y)
                v = World.of(
                    {"X": x, "Y": y, **{f"T{i+1}": toks[i] for i in range(lm3.k)}}
                )
                assert joint_prob(m, v, World.of({"X": x})) == pytest.approx(p, abs=1e-12)

    def test_zero_temperature_compiles_to_point_masses(self, lm3):
        m = compile_to_nondet(lm3, 1, SamplingParams(temperature=0.0))
        for cpt in m.cpts.values():
            for _, row in cpt.rows.items():
                assert row.is_point_mass

    def test_compiled_model_satisfies_simple_semantics(self, lm3):
        m = compile_to_nondet(lm3, 1, SamplingParams())
        assert check_simple_semantics(m).passed

    def test_random_lm_compiles_consistently(self):
        lm = random_table_lm(make_rng(13), 3, 3)
        m = compile_to_nondet(lm, 2, SamplingParams(temperature=1.5))
        x = m.domain("X")[0]
        d = seq_dist(lm, x, SamplingParams(temperature=1.5))
        marg = {}
        for y, p in d.items():
            toks = lm.vocab.strings(y)
            v = World.of({"X": x, "Y": y, **{f"T{i+1}": toks[i] for i in range(lm.k)}})
            marg[y] = joint_prob(m, v, World.of({"X": x}))
        assert max_abs_diff(DistTable(marg), d) <= 1e-12


class TestLmJson:
    def test_round_trip(self, lm3):
        text = lm_to_json(lm3)
        again = lm_from_json(text)
        assert again == lm3
        assert lm_to_json(again) == text

    def test_rejects_missing_empty_marker(self):
        with pytest.raises(Exception, match="reserve index 0"):
            lm_from_json('{"vocab": ["a", "b"], "k": 2, "type": "table", "probs": {}}')

    def test_bigram_round_trip(self):
        vocab = Vocab(("</e>", "a", "b"))
        row = DistTable({"</e>": 0.2, "a": 0.4, "b": 0.4})
        lm = ToyLM(
            vocab,
            3,
            "bigram",
            bigram={"a": row, "b": DistTable({"</e>": 0.5, "a": 0.25, "b": 0.25})},
            unigram=DistTable({"</e>": 0.0, "a": 0.5, "b": 0.5}),
        )
        assert lm_from_json(lm_to_json(lm)) == lm
        # bigram backoff: empty context uses the unigram row
        d = next_dist(lm, TokenSeq(()), SamplingParams())
        assert d.prob("a") == 0.5
