"""The memoized step law and the two step primitives.

- ``draw`` and ``argmax`` follow the conventions every sampler relies on:
  zeros are skipped, sums run in vocabulary order, ties go to the lowest
  index.
- A model whose memo was filled under other params and prompts answers
  exactly as a fresh one does, bit for bit.
- The memo stores probabilities only, sharing the model's own floats at
  identity params, and never keeps a dropped model alive: reference
  counting alone frees it.
- A bigram model answers bit for bit as the table model holding its last
  token's row at every context; a missing row is named when it is read.
- The exact-law walk, which stores leaves from the parent's loop and builds
  them unchecked, gives the recursive reference walk's laws bit for bit and
  in the same order, with keys equal to checked sequences.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import cfgen
from cfgen.dist import DistTable, argmax, draw, left_sum, log_row
from cfgen.errors import InputError, ModelError
from cfgen.fixtures import asymmetric_lm, lm3_model
from cfgen.generators import (
    CfQuery,
    _barred,
    _stable_step,
    gumbel_cf_sample,
    gumbel_posterior_noise,
    its_cf_sample,
    its_posterior_noise,
    stability_check,
    stable_cf_dist,
)
from cfgen.oracle import random_table_lm
from cfgen.seeding import make_rng
from cfgen.tokenlm import (
    SamplingParams,
    TokenSeq,
    ToyLM,
    Vocab,
    output_seq,
    prompt_ids,
    sample_output,
    seq_dist,
)

PARAMS = (
    SamplingParams(),
    SamplingParams(temperature=0.5),
    SamplingParams(top_k=2),
    SamplingParams(temperature=2.0, top_p=0.8),
)


class TestPrimitives:
    def test_draw_skips_zeros_and_sums_in_order(self):
        probs = (0.0, 0.25, 0.0, 0.75)
        assert draw(probs, 0.0) == 1
        assert draw(probs, 0.2499) == 1
        assert draw(probs, 0.25) == 3
        assert draw(probs, 0.999) == 3

    def test_draw_falls_back_to_the_last_positive_entry(self):
        assert draw((0.5, 0.5, 0.0), 1.0) == 1

    def test_draw_rejects_an_all_zero_row(self):
        with pytest.raises(ModelError):
            draw((0.0, 0.0), 0.5)

    def test_argmax_ignores_zero_entries_and_breaks_ties_low(self):
        assert argmax(log_row((0.0, 0.5, 0.5)), (100.0, 0.0, 0.0)) == 1
        assert argmax(log_row((0.25, 0.75)), (math.log(3.0), 0.0)) == 0

    def test_argmax_rejects_an_all_zero_row(self):
        with pytest.raises(ModelError):
            argmax(log_row((0.0, 0.0)), (0.0, 0.0))


class TestSamplingParams:
    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf, 1e-320, 5e-324])
    def test_rejects_unusable_temperatures(self, temperature):
        with pytest.raises(InputError, match="temperature"):
            SamplingParams(temperature)

    def test_smallest_usable_temperature_is_accepted(self):
        assert SamplingParams(1e-300).temperature == 1e-300

    def test_equal_params_share_one_law(self):
        lm = lm3_model()
        assert lm.step_law(SamplingParams(1)) is lm.step_law(SamplingParams(1.0))
        assert lm.step_law(SamplingParams()) is not lm.step_law(SamplingParams(top_k=2))

    def test_params_pickled_in_another_process_find_their_law(self):
        # the hash is kept in the instance, so it must not depend on the process
        probe = (
            "import pickle, sys; from cfgen.tokenlm import SamplingParams; "
            "sys.stdout.buffer.write(pickle.dumps(SamplingParams(top_k=2)))"
        )
        src = str(Path(cfgen.__file__).resolve().parent.parent)
        blob = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        ).stdout
        lm = lm3_model()
        params = pickle.loads(blob)
        assert params == SamplingParams(top_k=2)
        assert lm.step_law(params) is lm.step_law(SamplingParams(top_k=2))


def _answers(lm, x, x_star):
    """Every memo-reading entry point on one model, at every params value."""
    out = []
    for params in PARAMS:
        out.append(seq_dist(lm, x_star, params).entries)
        for y in sorted(seq_dist(lm, x, params).support, key=lambda s: s.ids):
            q = CfQuery(x, y, x_star)
            out.append(stable_cf_dist(lm, q, params).entries)
            for seed in range(3):
                out.append(sample_output(lm, x_star, params, seed))
                out.append(its_cf_sample(lm, its_posterior_noise(lm, x, y, params, seed), x_star))
                if not params.truncates:
                    trace = gumbel_posterior_noise(lm, x, y, params, seed)
                    y_star = gumbel_cf_sample(lm, trace, x_star)
                    out.append((trace.noise, y_star))
                    out.append(stability_check(lm, q, y_star, params))
    return out


class TestMemo:
    @pytest.mark.parametrize("make", [lm3_model, asymmetric_lm])
    def test_warm_model_answers_like_a_fresh_one(self, make):
        warm = make()
        real = warm.vocab.real_tokens
        prompts = [warm.vocab.seq([t]) for t in real]
        # fill the memo under other params and prompts first
        for params in (SamplingParams(temperature=3.0), SamplingParams(top_p=0.5)) + PARAMS:
            for x in prompts:
                seq_dist(warm, x, params)
                sample_output(warm, x, params, 11)
        x, x_star = prompts[0], prompts[1]
        assert _answers(warm, x, x_star) == _answers(make(), x, x_star)

    def test_random_models_agree_warm_and_fresh(self):
        for i in range(5):
            warm = random_table_lm(make_rng(400 + i), 4, 4)
            fresh = random_table_lm(make_rng(400 + i), 4, 4)
            x, x_star = warm.vocab.seq(["a"]), warm.vocab.seq(["b"])
            for params in PARAMS:
                seq_dist(warm, x_star, params)
            assert _answers(warm, x, x_star) == _answers(fresh, x, x_star)

    def test_rows_share_the_model_floats_at_identity_params(self):
        lm = lm3_model()
        row = lm.step_law(SamplingParams()).row((1,))
        base = lm.table[("a",)]
        assert all(p is base.entries[t] for p, t in zip(row, lm.vocab.tokens))

    def test_contexts_with_empty_share_one_unstored_row(self):
        law = lm3_model().step_law(SamplingParams())
        assert law.row((1, 0)) is law.row((0,)) == (1.0, 0.0, 0.0)
        assert law.row((1,)) is law.row((1,))
        assert law._rows.keys() == {(1,)}

    def test_dropped_model_is_freed_by_refcount_alone(self):
        gc.collect()
        gc.disable()
        try:
            lm = lm3_model()
            x, x_star = lm.vocab.seq(["a"]), lm.vocab.seq(["b"])
            y = lm.vocab.seq(["a", "b"]).padded(lm.k)
            for params in PARAMS:
                seq_dist(lm, x, params)
                sample_output(lm, x, params, 0)
            stable_cf_dist(lm, CfQuery(x, y, x_star), PARAMS[0])
            assert len(lm._laws) == len(PARAMS)
            ref = weakref.ref(lm)
            del lm
            assert ref() is None
        finally:
            gc.enable()


def _random_bigram(rng, vocab_size, k):
    """A bigram model whose rows (the empty context's included) are
    normalized iid uniforms, so every row has mass on EMPTY."""
    vocab = Vocab(("</e>",) + tuple("abcdefghij"[: vocab_size - 1]))

    def row():
        weights = [rng.random() + 1e-9 for _ in vocab.tokens]
        z = left_sum(weights)
        return DistTable({t: w / z for t, w in zip(vocab.tokens, weights)})

    table = {(): row(), **{(t,): row() for t in vocab.real_tokens}}
    return ToyLM(vocab, k, "bigram", table=table)


class TestRowTable:
    """One row table for both kinds: a bigram model reads the row at the
    context's last token, a table model at the whole context."""

    def test_bigram_model_answers_as_its_unrolled_table(self):
        for i in range(6):
            rng = make_rng(500 + i)
            bigram = _random_bigram(rng, rng.randint(3, 5), rng.randint(2, 4))
            vocab, k = bigram.vocab, bigram.k
            # every context of fewer than k tokens, mapped to its last token's row
            unrolled = {
                ctx: bigram.table[ctx[-1:]]
                for n in range(k)
                for ctx in itertools.product(vocab.real_tokens, repeat=n)
            }
            table = ToyLM(vocab, k, "table", table=unrolled)
            x, x_star = vocab.seq(["a"]), vocab.seq(["b"])
            assert _answers(bigram, x, x_star) == _answers(table, x, x_star)
            for params in PARAMS:
                empty = TokenSeq(())
                assert seq_dist(bigram, empty, params) == seq_dist(table, empty, params)

    def test_a_missing_row_is_named_when_it_is_read(self):
        lm3 = lm3_model()
        vocab, a, b = lm3.vocab, lm3.vocab.seq(["a"]), lm3.vocab.seq(["b"])
        rows = {ctx: row for ctx, row in lm3.table.items() if ctx != ("b", "a")}
        table = ToyLM(vocab, 3, "table", table=rows)
        assert seq_dist(table, a, SamplingParams()).total == pytest.approx(1.0)
        with pytest.raises(ModelError, match=r"^no row for context 'b a'$"):
            seq_dist(table, b, SamplingParams())
        bigram = ToyLM(vocab, 3, "bigram", table={(): lm3.table[()], ("a",): lm3.table[("a",)]})
        with pytest.raises(ModelError, match=r"^no row for context 'b'$"):
            seq_dist(bigram, a, SamplingParams())


# --- the exact-law walk against its recursive reference ------------------------


def reference_walk(lm, ctx, params, step):
    """The recursive walk that stored each leaf in a call of its own and
    built it with the checked constructor, kept here as the reference."""
    k = lm.k
    row = lm.step_law(params).row
    entries = {}

    def recurse(ctx, prob):
        if len(ctx) == k:
            entries[TokenSeq(ctx)] = prob
            return
        for t, p in step(len(ctx), row(ctx)):
            if p <= 0.0:
                continue
            if t:
                recurse(ctx + (t,), prob * p)
            else:
                entries[output_seq(ctx, k)] = prob * p

    recurse(ctx, 1.0)
    return DistTable(entries)


def reference_stable_step(factual, cf, obs):
    """The stable step as it was: the row minus ``_barred``'s set."""
    barred = _barred(factual, cf, obs)
    kept = [(t, p) for t, p in enumerate(cf) if p > 0.0 and t not in barred]
    mass = left_sum(p for _, p in kept)
    return [(t, p / mass) for t, p in kept]


def reference_stable(lm, q, params):
    y = q.y.padded(lm.k).ids
    row = lm.step_law(params).row
    factual = [row(y[:i]) for i in range(lm.k)]
    step = lambda i, cf: reference_stable_step(factual[i], cf, y[i])  # noqa: E731
    return reference_walk(lm, q.x_star.ids, params, step)


WALK_PARAMS = (
    SamplingParams(),
    SamplingParams(temperature=0.5),
    SamplingParams(top_k=3),
    SamplingParams(top_p=0.9),
    SamplingParams(temperature=0.0),
)


def _walk_models():
    for size in range(3, 7):
        for k in range(1, 5):
            rng = make_rng(600 + 10 * size + k)
            yield random_table_lm(rng, size, k)
            yield _random_bigram(rng, size, k)


def assert_same_law(got, want):
    """Floats and entry order both match, and every key is the checked
    sequence of its ids, hashing alike."""
    assert list(got.entries.items()) == list(want.entries.items())
    for key in got.entries:
        checked = TokenSeq(key.ids)
        assert type(key) is TokenSeq
        assert key == checked and hash(key) == hash(checked) == key._hash


class TestWalkAgainstReference:
    @pytest.mark.parametrize("params", WALK_PARAMS, ids=["t1", "t0_5", "topk3", "topp0_9", "t0"])
    def test_laws_match_the_recursive_walk(self, params):
        for lm in _walk_models():
            rng = make_rng(700 + lm.vocab.size * lm.k)
            real = range(1, lm.vocab.size)
            for l in range(lm.k + 1):
                x = TokenSeq(tuple(rng.choice(real) for _ in range(l)))
                x_star = TokenSeq(tuple(rng.choice(real) for _ in range(l)))
                ctx = prompt_ids(lm, x_star)
                want = reference_walk(lm, ctx, params, lambda i, row: enumerate(row))
                assert_same_law(seq_dist(lm, x_star, params), want)
                for seed in range(2):
                    q = CfQuery(x, sample_output(lm, x, params, seed), x_star)
                    assert_same_law(stable_cf_dist(lm, q, params), reference_stable(lm, q, params))

    def test_a_prompt_of_k_tokens_is_its_own_point_mass(self):
        lm = lm3_model()
        x = lm.vocab.seq(["a", "b", "a"])
        law = seq_dist(lm, x, SamplingParams())
        assert list(law.entries.items()) == [(x, 1.0)]

    def test_stable_step_keeps_the_complement_of_the_barred_set(self):
        rng = make_rng(800)
        for _ in range(300):
            n = rng.randint(2, 6)
            # zeros on both sides, so the 0 and +inf ratio conventions are met
            f = [rng.choice([0.0, rng.random()]) for _ in range(n)]
            c = [rng.choice([0.0, rng.random()]) for _ in range(n)]
            c[rng.randrange(n)] = rng.random() + 1e-9
            obs = rng.randrange(n)
            assert _stable_step(f, c, obs) == reference_stable_step(f, c, obs)
