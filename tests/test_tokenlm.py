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
    - a TokenSeq hashes once, to the value the dataclass hash would give
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgen.dist import DistTable, max_abs_diff, tvd
from cfgen.errors import EnumerationCapError, InputError, ModelError
from cfgen.nondet import World, check_simple_semantics, joint_prob, validate_model
from cfgen.oracle import empirical_dist, random_table_lm
from cfgen.seeding import make_rng
from cfgen.tokenlm import (
    EMPTY,
    SamplingParams,
    TokenSeq,
    ToyLM,
    Vocab,
    compile_to_nondet,
    lm_from_json,
    lm_to_json,
    sample_output,
    seq_dist,
    zero_temp_fn,
)

V3 = Vocab(("</e>", "a", "b"))


def one_step_lm(probs: dict[str, float], vocab: Vocab = V3, k: int = 2) -> ToyLM:
    table = {(): DistTable(probs)}
    for length in range(1, k):
        for ctx in itertools.product(vocab.real_tokens, repeat=length):
            table[ctx] = DistTable.point(EMPTY)
    return ToyLM(vocab, k, "table", table=table)


def next_row(lm: ToyLM, ids: tuple[int, ...], params: SamplingParams) -> dict[str, float]:
    """The reshaped row after context ``ids``, keyed by token."""
    return dict(zip(lm.vocab.tokens, lm.step_law(params).row(ids)))


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
        # padded against unpadded, both ways
        assert not TokenSeq((1, 0, 0)).extends(TokenSeq((1, 2)))
        assert TokenSeq((1, 2)).extends(TokenSeq((1, 2, 0)))
        assert TokenSeq((1, 2, 0)).extends(TokenSeq((1, 0, 0)))
        assert not TokenSeq((1,)).extends(TokenSeq((1, 2, 0)))
        assert TokenSeq((0, 0)).extends(TokenSeq(()))


class TestNextDist:
    def test_identity_at_unit_temperature(self, lm3):
        d = next_row(lm3, (1,), SamplingParams())
        assert d == {"</e>": 0.2, "a": 0.5, "b": 0.3}

    def test_zero_temperature_argmax(self):
        lm = one_step_lm({"</e>": 0.0, "a": 0.5, "b": 0.5})
        # tie between a and b resolves to the lower vocabulary index
        d = next_row(lm, (), SamplingParams(temperature=0.0))
        assert d["a"] == 1.0

    def test_top_k_truncates_and_renormalizes(self):
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_row(lm, (), SamplingParams(top_k=2))
        assert d["a"] == pytest.approx(0.625, abs=1e-12)
        assert d["b"] == pytest.approx(0.375, abs=1e-12)
        assert d["</e>"] == 0.0

    def test_top_p_smallest_prefix(self):
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_row(lm, (), SamplingParams(top_p=0.7))
        assert d["a"] == pytest.approx(0.625, abs=1e-12)
        assert d["b"] == pytest.approx(0.375, abs=1e-12)
        d1 = next_row(lm, (), SamplingParams(top_p=0.5))
        assert d1["a"] == 1.0

    def test_temperature_reshapes_by_power(self):
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_row(lm, (), SamplingParams(temperature=2.0))
        z = math.sqrt(0.2) + math.sqrt(0.5) + math.sqrt(0.3)
        assert d["a"] == pytest.approx(math.sqrt(0.5) / z, abs=1e-12)

    def test_small_temperature_approaches_argmax(self):
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_row(lm, (), SamplingParams(temperature=1e-6))
        assert d["a"] >= 0.999

    def test_absorbing_overrides_params(self, lm3):
        ctx = (1, 0)  # "a" then EMPTY
        for params in (
            SamplingParams(),
            SamplingParams(temperature=0.0),
            SamplingParams(temperature=3.0, top_k=1),
            SamplingParams(top_p=0.1),
        ):
            d = next_row(lm3, ctx, params)
            assert d["</e>"] == 1.0

    def test_temperature_runs_before_top_p(self):
        # flattening first keeps two tokens at top_p=0.5; the other order
        # would collapse to a point mass
        lm = one_step_lm({"</e>": 0.2, "a": 0.5, "b": 0.3})
        d = next_row(lm, (), SamplingParams(temperature=3.0, top_p=0.5))
        cube = {t: p ** (1.0 / 3.0) for t, p in (("</e>", 0.2), ("a", 0.5), ("b", 0.3))}
        z = sum(cube.values())
        flat = {t: v / z for t, v in cube.items()}
        kept = flat["a"] + flat["b"]
        assert d["a"] == pytest.approx(flat["a"] / kept, abs=1e-9)
        assert d["b"] == pytest.approx(flat["b"] / kept, abs=1e-9)
        assert d["</e>"] == 0.0

    def test_each_stage_normalizes(self, lm3):
        for params in (
            SamplingParams(temperature=0.7),
            SamplingParams(temperature=2.5, top_k=2),
            SamplingParams(temperature=0.5, top_k=2, top_p=0.8),
        ):
            d = next_row(lm3, (2,), params)
            assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, derandomize=True)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_reshaping_always_normalizes(temp, top_k, top_p):
    lm = one_step_lm({"</e>": 0.1, "a": 0.6, "b": 0.3})
    row = lm.step_law(SamplingParams(temp, top_k, top_p)).row(())
    assert sum(row) == pytest.approx(1.0, abs=1e-9)
    assert all(p >= 0.0 for p in row)


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
        nd = next_row(lm3, x.ids, SamplingParams())
        for tok in V3.tokens:
            got = sum(p for s, p in d.items() if s.ids[1] == V3.index(tok))
            assert got == pytest.approx(nd[tok], abs=1e-12)

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
            table={
                (): DistTable({"</e>": 0.0, "a": 0.5, "b": 0.5}),
                ("a",): row,
                ("b",): DistTable({"</e>": 0.5, "a": 0.25, "b": 0.25}),
            },
        )
        assert lm_from_json(lm_to_json(lm)) == lm
        # the empty context reads the row at (), the file's unigram row
        d = next_row(lm, (), SamplingParams())
        assert d["a"] == 0.5


    def test_bigram_file_writes_back_its_bytes(self):
        # the unigram row is kept at the empty context and written back from it
        text = json.dumps({
            "vocab": ["</e>", "a", "b"], "k": 3, "type": "bigram",
            "probs": {"b": [0.5, 0.25, 0.25], "a": [0.2, 0.5, 0.3]},
            "unigram": [0.1, 0.6, 0.3],
        })
        lm = lm_from_json(text)
        assert lm.table[()] == DistTable({"</e>": 0.1, "a": 0.6, "b": 0.3})
        assert sorted(lm.table) == [(), ("a",), ("b",)]
        out = lm_to_json(lm)
        assert json.loads(out)["unigram"] == [0.1, 0.6, 0.3]
        digest = "4b1903a128f81deab4b6bd4be1a466e7d30afa342ea777e79be73a35d9fcd159"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bigram_model_without_unigram_row_is_not_written(self):
        # the file would carry "unigram": null, which lm_from_json rejects
        vocab = Vocab(("</e>", "a", "b"))
        row = DistTable({"</e>": 0.2, "a": 0.4, "b": 0.4})
        lm = ToyLM(vocab, 3, "bigram", table={("a",): row, ("b",): row})
        with pytest.raises(ModelError, match=r"^bigram model has no unigram row") as err:
            lm_to_json(lm)
        assert "\n" not in str(err.value)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=4), st.integers(0, 3))
def test_token_seq_hash_is_the_dataclass_hash(body, pad):
    seq = TokenSeq(tuple(body) + (0,) * pad)
    again = TokenSeq(list(seq.ids))
    assert seq == again and seq is not again
    assert hash(seq) == hash(again) == hash((seq.ids,))
    assert seq._hash == hash(seq)  # kept from construction
    assert seq.stripped() == TokenSeq(tuple(body)) and hash(seq.stripped()) == hash((tuple(body),))
    assert {seq: 1}[again] == 1
    # ids are ints, whose hashes do not depend on the process
    copy = pickle.loads(pickle.dumps(seq))
    assert copy == seq and hash(copy) == hash(seq) == copy._hash


def test_token_seq_equality_is_by_ids_and_class():
    a = TokenSeq((1, 2))
    assert a == a and a == TokenSeq((1, 2)) and a != TokenSeq((1, 2, 0))
    assert a != (1, 2) and a.__eq__((1, 2)) is NotImplemented
    assert repr(a) == "TokenSeq(ids=(1, 2))"

