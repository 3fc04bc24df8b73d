"""The four counterfactual generators and their contracts.

Claims:
    - resampling draws match the exact sequence law at the new prompt
    - both noise-reuse generators return exactly y when the prompt is kept
    - hindsight noise always replays to the observed output
    - noise-reuse outputs never pick excluded tokens when no truncation is
      in play; the crafted top-k fixture does produce counted violations
    - the closeness-biased distribution matches hand-derived tables, puts
      zero mass on excluded tokens, normalizes, and stays inside the
      resampling support, and its step never runs out of mass
    - traces round-trip through JSON bit-exactly, and malformed ones are
      rejected
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgen.dist import DistTable, tvd
from cfgen.errors import InputError, ModelError
from cfgen.generators import (
    CfQuery,
    FactualTrace,
    NoiseRecord,
    _stable_step,
    excluded_tokens,
    gumbel_cf_sample,
    gumbel_factual_run,
    gumbel_posterior_noise,
    its_cf_sample,
    its_factual_run,
    its_posterior_noise,
    simple_cf_dist,
    simple_cf_sample,
    stability_check,
    stable_cf_dist,
    stable_step_dist,
    trace_from_json,
    trace_to_json,
)
from cfgen.fixtures import asymmetric_lm, lm3_model, topk_violation_lm
from cfgen.oracle import empirical_dist, random_table_lm
from cfgen.seeding import derive_seed, make_rng
from cfgen.tokenlm import SamplingParams, ToyLM, Vocab, seq_dist, zero_temp_fn

PARAMS = SamplingParams()


@pytest.fixture(scope="module")
def asym(asym_lm):
    v = asym_lm.vocab
    return asym_lm, v.seq(["p"]), v.seq(["q"])


class TestSimple:
    def test_ignores_factual_pair(self, lm3):
        v = lm3.vocab
        q1 = CfQuery(v.seq(["a"]), v.seq(["a", "a"]), v.seq(["b"]))
        q2 = CfQuery(v.seq(["a"]), v.seq(["a", "b", "b"]), v.seq(["b"]))
        for seed in (1, 2, 3):
            assert simple_cf_sample(lm3, q1, PARAMS, seed) == simple_cf_sample(
                lm3, q2, PARAMS, seed
            )

    def test_same_prompt_is_plain_resampling(self, lm3):
        v = lm3.vocab
        q = CfQuery(v.seq(["a"]), v.seq(["a", "a"]), v.seq(["a"]))
        assert simple_cf_dist(lm3, q, PARAMS) == seq_dist(lm3, v.seq(["a"]), PARAMS)

    def test_deterministic_lm_returns_greedy(self, lm3):
        v = lm3.vocab
        q = CfQuery(v.seq(["a"]), v.seq(["a", "a"]), v.seq(["b"]))
        greedy = SamplingParams(temperature=0.0)
        assert simple_cf_sample(lm3, q, greedy, 9) == zero_temp_fn(lm3, v.seq(["b"]))

    def test_empirical_matches_exact(self, lm3):
        v = lm3.vocab
        q = CfQuery(v.seq(["a"]), v.seq(["a", "a"]), v.seq(["b"]))
        exact = simple_cf_dist(lm3, q, PARAMS)
        emp = empirical_dist(
            lambda s: simple_cf_sample(lm3, q, PARAMS, s), 20_000, seed=5
        )
        assert tvd(emp, exact) <= 0.02


class TestGumbel:
    def test_marginal_frequencies(self, asym):
        lm, x, _ = asym
        emp = empirical_dist(
            lambda s: gumbel_factual_run(lm, x, PARAMS, s)[0], 30_000, seed=11
        )
        exact = seq_dist(lm, x, PARAMS)
        assert tvd(emp, exact) <= 0.02

    def test_keep_prompt_returns_y(self, asym):
        lm, x, _ = asym
        for i in range(200):
            y, trace = gumbel_factual_run(lm, x, PARAMS, derive_seed(31, i))
            assert gumbel_cf_sample(lm, trace, x) == y

    def test_cf_sample_is_pure(self, asym):
        lm, x, xs = asym
        _, trace = gumbel_factual_run(lm, x, PARAMS, 77)
        first = gumbel_cf_sample(lm, trace, xs)
        assert all(gumbel_cf_sample(lm, trace, xs) == first for _ in range(5))

    def test_absorbing_position_yields_empty(self, lm3):
        v = lm3.vocab
        # force a run that stops at length 1: condition on y = ("a",)
        y = v.seq(["a"]).padded(3)
        trace = gumbel_posterior_noise(lm3, v.seq(["a"]), y, PARAMS, seed=2)
        replay = gumbel_cf_sample(lm3, trace, v.seq(["a"]))
        assert replay == y

    def test_posterior_noise_always_replays(self, lm3):
        v = lm3.vocab
        x = v.seq(["a"])
        outputs = [o for o, p in seq_dist(lm3, x, PARAMS).items() if p > 0]
        for i, y in enumerate(outputs):
            for j in range(50):
                trace = gumbel_posterior_noise(lm3, x, y, PARAMS, derive_seed(i, j))
                assert gumbel_cf_sample(lm3, trace, x) == y

    def test_posterior_rejects_zero_probability_output(self, asym):
        lm, x, _ = asym
        impossible = lm.vocab.seq(["p", "p"])  # P(p | p) = 0
        with pytest.raises(ModelError, match="zero probability"):
            gumbel_posterior_noise(lm, x, impossible, PARAMS, seed=1)

    def test_posterior_and_conditioned_runs_agree(self, asym):
        # two estimators of the same conditional law: (a) hindsight noise for a
        # fixed y, (b) factual runs filtered to that y, both pushed through the
        # prompt flip
        lm, x, xs = asym
        target = lm.vocab.seq(["p", "b"]).padded(lm.k)
        post = empirical_dist(
            lambda s: gumbel_cf_sample(lm, gumbel_posterior_noise(lm, x, target, PARAMS, s), xs),
            30_000,
            seed=21,
        )
        counts: dict = {}
        kept = 0
        i = 0
        while kept < 30_000:
            y, trace = gumbel_factual_run(lm, x, PARAMS, derive_seed(22, i))
            i += 1
            if y == target:
                out = gumbel_cf_sample(lm, trace, xs)
                counts[out] = counts.get(out, 0) + 1
                kept += 1
        cond = DistTable.from_counts(counts)
        assert tvd(post, cond) <= 0.02

    def test_length_mismatch_rejected(self, lm3):
        v = lm3.vocab
        _, trace = gumbel_factual_run(lm3, v.seq(["a"]), PARAMS, 5)
        with pytest.raises(InputError, match="length mismatch"):
            gumbel_cf_sample(lm3, trace, v.seq(["a", "b"]))


def _binary_step_lm():
    """One generated position, two real outcome tokens.

    Factual context gives (A: 0.7, B: 0.3), counterfactual (A: 0.4, B: 0.6).
    For two outcomes the max-perturbation and inverse-transform couplings
    coincide, and the switch probability has a closed form: the difference
    of two standard Gumbels is logistic, so conditioning the observed argmax
    and flipping the weights gives P(B* | A) = (0.7 - 0.4) / 0.7 = 3/7 and
    P(A* | B) = (0.4 - 0.7)+ / 0.3 = 0.
    """
    vocab = Vocab(("</e>", "p", "q", "A", "B"))
    absorb = DistTable.point("</e>")
    table = {
        (): DistTable({"p": 0.5, "q": 0.5}),
        ("p",): DistTable({"A": 0.7, "B": 0.3}),
        ("q",): DistTable({"A": 0.4, "B": 0.6}),
        ("A",): absorb,
        ("B",): absorb,
    }
    return ToyLM(vocab, 2, "table", table=table)


class TestBinaryCouplingClosedForm:
    """Hindsight-noise counterfactuals against hand-derived switch rates."""

    SWITCH_A_TO_B = 0.3 / 0.7  # (0.7 - 0.4) / 0.7

    def test_gumbel_switch_rate(self):
        lm = _binary_step_lm()
        v = lm.vocab
        x, xs = v.seq(["p"]), v.seq(["q"])
        y = v.seq(["p", "A"])
        hits = 0
        n = 40_000
        for i in range(n):
            trace = gumbel_posterior_noise(lm, x, y, PARAMS, derive_seed(71, i))
            if gumbel_cf_sample(lm, trace, xs) == v.seq(["q", "B"]):
                hits += 1
        assert hits / n == pytest.approx(self.SWITCH_A_TO_B, abs=0.01)

    def test_its_switch_rate(self):
        lm = _binary_step_lm()
        v = lm.vocab
        x, xs = v.seq(["p"]), v.seq(["q"])
        y = v.seq(["p", "A"])
        hits = 0
        n = 40_000
        for i in range(n):
            trace = its_posterior_noise(lm, x, y, PARAMS, derive_seed(72, i))
            if its_cf_sample(lm, trace, xs) == v.seq(["q", "B"]):
                hits += 1
        assert hits / n == pytest.approx(self.SWITCH_A_TO_B, abs=0.01)

    def test_conditioned_marginal_differs_from_resampling_by_6_35(self):
        # given y = (p, A), the coupled counterfactual law is (4/7, 3/7) while
        # plain resampling gives (0.4, 0.6); their distance is 4/7 - 2/5 = 6/35
        lm = _binary_step_lm()
        v = lm.vocab
        x, xs = v.seq(["p"]), v.seq(["q"])
        y = v.seq(["p", "A"])
        emp = empirical_dist(
            lambda s: gumbel_cf_sample(lm, gumbel_posterior_noise(lm, x, y, PARAMS, s), xs),
            40_000,
            seed=75,
        )
        resample = seq_dist(lm, xs, PARAMS)
        assert tvd(emp, resample) == pytest.approx(6 / 35, abs=0.01)

    def test_gaining_token_never_switches_away(self):
        # observed B gained relative probability, so every coupled
        # counterfactual must keep it, for both noise kinds
        lm = _binary_step_lm()
        v = lm.vocab
        x, xs = v.seq(["p"]), v.seq(["q"])
        y = v.seq(["p", "B"])
        keep = v.seq(["q", "B"])
        for i in range(2_000):
            g = gumbel_posterior_noise(lm, x, y, PARAMS, derive_seed(73, i))
            assert gumbel_cf_sample(lm, g, xs) == keep
            u = its_posterior_noise(lm, x, y, PARAMS, derive_seed(74, i))
            assert its_cf_sample(lm, u, xs) == keep


class TestIts:
    def test_prefix_sum_windows(self):
        vocab = Vocab(("</e>", "s", "t", "u"))
        table = {
            (): DistTable({"s": 1.0}),
            ("s",): DistTable({"t": 0.3, "u": 0.7}),
            ("t",): DistTable.point("</e>"),
            ("u",): DistTable.point("</e>"),
        }
        lm = ToyLM(vocab, 2, "table", table=table)
        x = vocab.seq(["s"])
        for u, expect in ((0.25, "t"), (0.35, "u")):
            trace = FactualTrace(
                x, vocab.seq(["s", expect]), NoiseRecord("uniform", (0.0, u)), PARAMS
            )
            assert its_cf_sample(lm, trace, x) == vocab.seq(["s", expect])

    def test_keep_prompt_returns_y(self, asym):
        lm, x, _ = asym
        for i in range(200):
            y, trace = its_factual_run(lm, x, PARAMS, derive_seed(41, i))
            assert its_cf_sample(lm, trace, x) == y

    def test_replay_is_pure(self, asym):
        lm, x, xs = asym
        _, trace = its_factual_run(lm, x, PARAMS, 99)
        first = its_cf_sample(lm, trace, xs)
        assert all(its_cf_sample(lm, trace, xs) == first for _ in range(5))

    def test_posterior_noise_always_replays(self, lm3):
        v = lm3.vocab
        x = v.seq(["b"])
        outputs = [o for o, p in seq_dist(lm3, x, PARAMS).items() if p > 0]
        for i, y in enumerate(outputs):
            for j in range(50):
                trace = its_posterior_noise(lm3, x, y, PARAMS, derive_seed(100 + i, j))
                assert its_cf_sample(lm3, trace, x) == y

    def test_marginal_frequencies(self, asym):
        lm, x, _ = asym
        emp = empirical_dist(
            lambda s: its_factual_run(lm, x, PARAMS, s)[0], 30_000, seed=13
        )
        assert tvd(emp, seq_dist(lm, x, PARAMS)) <= 0.02


class TestStableStep:
    # worked single step: factual (0.5, 0.3, 0.2) vs counterfactual (0.2, 0.3, 0.5)
    F = (("a", 0.5), ("b", 0.3), ("c", 0.2))
    C = (("a", 0.2), ("b", 0.3), ("c", 0.5))

    def test_observed_token_with_smallest_gain_excludes_nothing(self):
        assert excluded_tokens(self.F, self.C, "a") == frozenset()
        d = stable_step_dist(self.F, self.C, "a")
        assert d.prob("a") == 0.2 and d.prob("b") == 0.3 and d.prob("c") == 0.5

    def test_middle_gain_excludes_the_smaller(self):
        assert excluded_tokens(self.F, self.C, "b") == frozenset({"a"})
        d = stable_step_dist(self.F, self.C, "b")
        assert d.prob("b") == pytest.approx(0.375, abs=1e-12)
        assert d.prob("c") == pytest.approx(0.625, abs=1e-12)
        assert d.prob("a") == 0.0

    def test_largest_gain_excludes_everything_else(self):
        assert excluded_tokens(self.F, self.C, "c") == frozenset({"a", "b"})
        assert stable_step_dist(self.F, self.C, "c").prob("c") == 1.0

    def test_fresh_mass_is_never_excluded(self):
        f = (("a", 1.0), ("b", 0.0))
        c = (("a", 0.5), ("b", 0.5))
        assert "b" not in excluded_tokens(f, c, "a")


class TestStableDist:
    def test_keep_prompt_collapses_to_observation(self, asym):
        lm, x, _ = asym
        y = lm.vocab.seq(["p", "b"])
        d = stable_cf_dist(lm, CfQuery(x, y, x), PARAMS)
        assert d.prob(y.padded(lm.k)) == 1.0

    def test_hand_tables_on_flip(self, asym):
        lm, x, xs = asym
        cases = {
            "a": {("q", "a"): 0.2, ("q", "b"): 0.3, ("q", "c"): 0.5},
            "b": {("q", "b"): 0.375, ("q", "c"): 0.625},
            "c": {("q", "c"): 1.0},
        }
        for tok, table in cases.items():
            y = lm.vocab.seq(["p", tok])
            d = stable_cf_dist(lm, CfQuery(x, y, xs), PARAMS)
            assert len(d.support) == len(table)
            for toks, p in table.items():
                assert d.prob(lm.vocab.seq(toks).padded(lm.k)) == pytest.approx(p, abs=1e-12)

    def test_support_within_resampling_support(self, lm3):
        v = lm3.vocab
        x, xs = v.seq(["a"]), v.seq(["b"])
        resample = simple_cf_dist(lm3, CfQuery(x, x, xs), PARAMS)
        for ytoks in (("a", "a"), ("a", "b", "a"), ("a",)):
            y = v.seq(ytoks)
            d = stable_cf_dist(lm3, CfQuery(x, y, xs), PARAMS)
            assert d.total == pytest.approx(1.0, abs=1e-9)
            for s in d.support:
                assert resample.prob(s) > 0.0
                assert s.extends(xs)

    def test_excluded_tokens_have_zero_mass(self, asym):
        lm, x, xs = asym
        y = lm.vocab.seq(["p", "b"])
        d = stable_cf_dist(lm, CfQuery(x, y, xs), PARAMS)
        assert d.prob(lm.vocab.seq(["q", "a"]).padded(lm.k)) == 0.0

    def test_rejects_zero_probability_observation(self, asym):
        lm, x, xs = asym
        with pytest.raises(ModelError, match="zero probability"):
            stable_cf_dist(lm, CfQuery(x, lm.vocab.seq(["p", "p"]), xs), PARAMS)

    def test_distance_to_resampling_on_asymmetric_fixture(self, asym):
        # closeness bias is visible: mixing the stable law over factual outputs
        # moves it 0.1375 away from plain resampling
        lm, x, xs = asym
        factual = seq_dist(lm, x, PARAMS)
        mixed: dict = {}
        for y, py in factual.items():
            d = stable_cf_dist(lm, CfQuery(x, y, xs), PARAMS)
            for s, p in d.items():
                mixed[s] = mixed.get(s, 0.0) + py * p
        resample = simple_cf_dist(lm, CfQuery(x, x, xs), PARAMS)
        assert tvd(DistTable(mixed), resample) == pytest.approx(0.1375, abs=1e-12)


@st.composite
def _step_pair(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    names = [f"t{i}" for i in range(n)]

    def dist():
        ws = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n))
        z = sum(ws)
        return [(t, w / z) for t, w in zip(names, ws)]

    factual = dist()
    token = names[draw(st.integers(min_value=0, max_value=n - 1))]
    return factual, dist(), token


@settings(max_examples=80, derandomize=True)
@given(_step_pair())
def test_stable_step_laws_hold_generally(case):
    factual, cf, token = case
    step = stable_step_dist(factual, cf, token)
    assert step.total == pytest.approx(1.0, abs=1e-9)
    barred = excluded_tokens(factual, cf, token)
    assert token not in barred
    assert all(step.prob(t) == 0.0 for t in barred)
    assert all(dict(cf)[t] > 0.0 for t in step.support)


@st.composite
def _stable_step_rows(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
    factual = draw(st.lists(entry, min_size=n, max_size=n))
    weights = draw(st.lists(entry, min_size=n, max_size=n).filter(lambda ws: sum(ws) > 0.0))
    z = sum(weights)
    return factual, [w / z for w in weights], draw(st.integers(min_value=0, max_value=n - 1))


@settings(max_examples=300, derandomize=True)
@given(_stable_step_rows())
def test_stable_step_always_keeps_mass(case):
    # why the step needs no "undefined" outcome: on any normalized cf row the
    # observed index or some index with cf mass survives the exclusion
    factual, cf, obs = case
    step = _stable_step(factual, cf, obs)
    assert step and all(p > 0.0 for _, p in step)
    assert sum(p for _, p in step) == pytest.approx(1.0, abs=1e-9)
    assert len({t for t, _ in step}) == len(step)


@pytest.mark.parametrize("wrapper", [stable_step_dist, excluded_tokens])
@pytest.mark.parametrize(
    "factual, cf, message",
    [
        ([("a", 0.5), ("b", 0.5)], [("a", 0.0), ("b", 0.0)], "has no positive probability"),
        ([("a", 0.5), ("b", 0.5)], [], "has no positive probability"),
        # a factual entry above 1 could round a cf/factual ratio down to 0
        ([("a", 2.0), ("b", 0.5)], [("a", 5e-324), ("b", 0.0)], r"must lie in \[0, 1\]"),
        ([("a", 0.5), ("b", float("nan"))], [("a", 0.5), ("b", 0.5)], r"must lie in \[0, 1\]"),
    ],
    ids=["cf_all_zero", "cf_empty", "factual_above_one", "factual_nan"],
)
def test_step_wrappers_reject_unusable_rows(wrapper, factual, cf, message):
    with pytest.raises(InputError, match=message):
        wrapper(factual, cf, "b")


class TestStabilityCheck:
    def test_stable_support_has_no_violations(self, asym):
        lm, x, xs = asym
        for tok in ("a", "b", "c"):
            y = lm.vocab.seq(["p", tok])
            d = stable_cf_dist(lm, CfQuery(x, y, xs), PARAMS)
            for y_star in d.support:
                rep = stability_check(lm, CfQuery(x, y, xs), y_star, PARAMS)
                assert rep.violations == 0

    def test_gumbel_reuse_never_violates_without_truncation(self, asym):
        lm, x, xs = asym
        total = 0
        for i in range(2_000):
            y, trace = gumbel_factual_run(lm, x, PARAMS, derive_seed(51, i))
            y_star = gumbel_cf_sample(lm, trace, xs)
            total += stability_check(lm, CfQuery(x, y, xs), y_star, PARAMS).violations
        assert total == 0

    def test_topk_fixture_produces_counted_violations(self, topk_lm):
        v = topk_lm.vocab
        x, xs = v.seq(["p"]), v.seq(["q"])
        truncated = SamplingParams(top_k=1)
        total = 0
        for i in range(500):
            y, trace = gumbel_factual_run(topk_lm, x, PARAMS, derive_seed(61, i))
            y_star = gumbel_cf_sample(topk_lm, trace, xs, truncated)
            total += stability_check(topk_lm, CfQuery(x, y, xs), y_star, PARAMS).violations
        assert total > 0  # roughly 18% of runs land on the excluded token

    def test_report_shape(self, asym):
        lm, x, xs = asym
        y = lm.vocab.seq(["p", "a"])
        rep = stability_check(lm, CfQuery(x, y, xs), lm.vocab.seq(["q", "c"]), PARAMS)
        assert rep.checked == 1
        d = rep.to_dict()
        assert set(d) == {"violations", "checked", "positions"}


class TestTraces:
    def test_round_trip_bit_exact(self, asym):
        lm, x, _ = asym
        _, g_trace = gumbel_factual_run(lm, x, PARAMS, 123)
        _, u_trace = its_factual_run(lm, x, PARAMS, 123)
        for trace in (g_trace, u_trace):
            text = trace_to_json(lm, trace)
            again = trace_from_json(lm, text)
            assert again == trace
            assert trace_to_json(lm, again) == text

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        model=st.sampled_from(["lm3", "lm_asym", "lm_topk", "random"]),
        model_seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(2, 5),
        k=st.integers(2, 4),
        prompt=st.integers(0, 3),
        kind=st.sampled_from(["gumbel", "its"]),
        posterior=st.booleans(),
        params=st.sampled_from(
            [PARAMS, SamplingParams(0.5), SamplingParams(0.0), SamplingParams(top_k=2),
             SamplingParams(top_p=0.9)]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_written_trace_loads_back_unchanged(
        self, model, model_seed, vocab_size, k, prompt, kind, posterior, params, seed
    ):
        if model == "random":
            lm = random_table_lm(make_rng(model_seed), vocab_size, k)
        else:
            lm = {"lm3": lm3_model, "lm_asym": asymmetric_lm, "lm_topk": topk_violation_lm}[model]()
        real = lm.vocab.real_tokens
        x = lm.vocab.seq([real[prompt % len(real)]])
        if kind == "gumbel":
            y, trace = gumbel_factual_run(lm, x, params, seed)
            if posterior:
                trace = gumbel_posterior_noise(lm, x, y, params, seed + 1)
        else:
            y, trace = its_factual_run(lm, x, params, seed)
            if posterior:
                trace = its_posterior_noise(lm, x, y, params, seed + 1)
        text = trace_to_json(lm, trace)
        again = trace_from_json(lm, text)
        assert again == trace
        assert trace_to_json(lm, again) == text

    @pytest.mark.parametrize(
        "changes",
        [
            {"noise": [[0.1, float("inf"), 0.2]] * 3},
            {"noise": [[0.1, "0.5", 0.2]] * 3},
            {"noise": [[0.1, True, 0.2]] * 3},
            {"noise": [[0.1, 10**400, 0.2]] * 3},
            {"noise": [[0.1, 0.2]] * 3},
            {"noise": [0.1, 0.2, 0.3]},
            {"kind": "uniform", "noise": [0.1, -0.1, 0.3]},
            {"kind": "uniform", "noise": [0.1, 1.0, 0.3]},
            {"kind": "uniform", "noise": [0.1, "0.5", 0.3]},
            {"kind": "normal"},
            {"params": {"temperature": 1.0, "top_k": 2.5, "top_p": None}},
            {"x": ["a", "a", "a"]},
        ],
    )
    def test_rejects_malformed_noise(self, lm3, changes):
        _, trace = gumbel_factual_run(lm3, lm3.vocab.seq(["a"]), PARAMS, 8)
        payload = {**json.loads(trace_to_json(lm3, trace)), **changes}
        with pytest.raises(InputError):
            trace_from_json(lm3, json.dumps(payload))

    @pytest.mark.parametrize("key", ["x", "y"])
    def test_rejects_token_strings(self, lm3, key):
        _, trace = gumbel_factual_run(lm3, lm3.vocab.seq(["a"]), PARAMS, 8)
        payload = json.loads(trace_to_json(lm3, trace))
        # lm3's tokens are single letters, so the joined string spells the list
        payload[key] = "".join(payload[key])
        with pytest.raises(InputError, match=f"trace '{key}' must be a list of tokens"):
            trace_from_json(lm3, json.dumps(payload))

    def test_rejects_wrong_arity(self, asym):
        lm, _, _ = asym
        with pytest.raises(InputError):
            trace_from_json(
                lm,
                '{"x": ["p"], "y": ["p", "a"], "kind": "uniform", "noise": [0.5],'
                ' "params": {"temperature": 1.0, "top_k": null, "top_p": null}}',
            )


class TestQueryValidation:
    def test_output_must_extend_prompt(self, lm3):
        v = lm3.vocab
        with pytest.raises(InputError):
            CfQuery(v.seq(["a"]), v.seq(["b", "a"]), v.seq(["b"]))
