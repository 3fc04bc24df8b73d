"""Acceptance gate: every shipped claim at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them on success). Criteria with runtime budgets assert wall time too.

    1  evaluator equivalence on 100 random models, <= 1e-12, < 10 s
    2  compiled counterfactual == resampling on >= 10 random token models,
       temperatures {0.5, 1, 2}, <= 1e-12, < 60 s
    3  same sweep at temperature 0 with exact 0/1 probabilities
    4  50 noise-independent deterministic models convert equivalently, <= 1e-12
    5  canonical binary model: flip query 1 / 0 for the two textbook noise
       choices, bounds [0, 1] at p=0.3 q=0.7, resampling answer q, all exact
    6  10^4 gumbel traces on the asymmetric fixture, no truncation,
       zero stability violations
    7  10^5 resampling draws vs the exact law, TVD <= 0.02, < 10 s
    8  gumbel/its replay at the kept prompt reproduces y on 10^3 random
       queries; counterfactual replays are bit-stable
    9  stable step law on 10^3 random instances: normalized to 1e-9, zero
       mass on excluded tokens, point mass on y when nothing changes
    10 the top-k fixture runs end to end and reports a violation count
"""

from __future__ import annotations

import time

from cfgen.dist import max_abs_diff, tvd
from cfgen.detscm import BinaryCfQuery, counterfactual_bounds_binary, simple_binary_answer
from cfgen.generators import (
    CfQuery,
    excluded_tokens,
    gumbel_cf_sample,
    gumbel_factual_run,
    its_cf_sample,
    its_factual_run,
    stability_check,
    stable_cf_dist,
    stable_step_dist,
)
from cfgen.nondet import counterfactual_dist, counterfactual_dist_cases
from cfgen.oracle import (
    empirical_dist,
    random_nondet_model,
    random_root_world,
    random_table_lm,
    random_u_independent_scm,
    random_world,
    verify_canonical_binary,
    verify_compiled_simple_semantics,
    verify_det_nondet_equivalence,
    verify_gumbel_stability,
)
from cfgen.seeding import derive_seed, make_rng
from cfgen.tokenlm import SamplingParams, sample_output, seq_dist

PARAMS = SamplingParams()


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_evaluator_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = make_rng(derive_seed(101, i))
        m = random_nondet_model(rng, max_vars=5, max_domain=4)
        r = random_root_world(rng, m)
        v = random_world(rng, m, r)
        for r_star in (random_root_world(rng, m), r):
            a = counterfactual_dist(m, v, r_star)
            b = counterfactual_dist_cases(m, v, r_star)
            worst = max(worst, max_abs_diff(a, b))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"100 models, max deviation {worst:.3e}, {elapsed:.2f}s",
    )


def _sweep_lms():
    # vocab size >= 3 so every model admits at least one alternative prompt
    temps = (0.5, 1.0, 2.0)
    configs = []
    for i in range(12):
        rng = make_rng(derive_seed(202, i))
        vocab_size = rng.randint(3, 4)
        k = rng.randint(2, 4)
        lm = random_table_lm(rng, vocab_size, k)
        l = rng.randint(1, k - 1)
        configs.append((lm, l, temps[i % 3]))
    return configs


def test_criterion_2_compiled_equals_resampling():
    t0 = time.perf_counter()
    worst = 0.0
    instances = 0
    for lm, l, temp in _sweep_lms():
        rep = verify_compiled_simple_semantics(lm, SamplingParams(temperature=temp), l)
        assert rep.passed, rep.counterexample
        assert rep.instances > 0
        worst = max(worst, rep.max_deviation)
        instances += rep.instances
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-12 and elapsed < 60.0,
        f"12 models, {instances} (x,y,x*) triples, max deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_3_zero_temperature_sweep():
    worst = 0.0
    for lm, l, _ in _sweep_lms():
        rep = verify_compiled_simple_semantics(lm, SamplingParams(temperature=0.0), l)
        assert rep.passed, rep.counterexample
        worst = max(worst, rep.max_deviation)
    report(3, worst == 0.0, f"exact 0/1 probabilities, max deviation {worst!r}")


def test_criterion_4_det_nondet_equivalence():
    worst = 0.0
    instances = 0
    for i in range(50):
        rng = make_rng(derive_seed(404, i))
        rep = verify_det_nondet_equivalence(random_u_independent_scm(rng))
        assert rep.passed, rep.counterexample
        worst = max(worst, rep.max_deviation)
        instances += rep.instances
    report(4, worst <= 1e-12, f"50 models, {instances} checks, max deviation {worst:.3e}")


def test_criterion_5_canonical_binary_exact():
    rep = verify_canonical_binary()
    bounds = counterfactual_bounds_binary(0.3, 0.7, BinaryCfQuery(0, 1, 1, 0))
    keep_answer = simple_binary_answer(0.3, 0.7, BinaryCfQuery(1, 1, 1, 0))
    ok = (
        rep.passed
        and (bounds.lo, bounds.hi) == (0.0, 1.0)
        and keep_answer == 0.7
    )
    report(5, ok, f"flip query in {{1, 0}}, bounds [{bounds.lo}, {bounds.hi}], answer {keep_answer}")


def test_criterion_6_gumbel_stability(asym_lm):
    x = asym_lm.vocab.seq(["p"])
    x_star = asym_lm.vocab.seq(["q"])
    rep = verify_gumbel_stability(asym_lm, x, x_star, n_traces=10_000, seed=606)
    report(6, rep.passed and rep.max_deviation == 0.0, f"10^4 traces, {int(rep.max_deviation)} violations")


def test_criterion_7_sampler_soundness(lm3):
    t0 = time.perf_counter()
    x = lm3.vocab.seq(["a"])
    exact = seq_dist(lm3, x, PARAMS)
    emp = empirical_dist(lambda s: sample_output(lm3, x, PARAMS, s), 100_000, seed=707)
    dist = tvd(emp, exact)
    elapsed = time.perf_counter() - t0
    report(7, dist <= 0.02 and elapsed < 10.0, f"10^5 draws, TVD {dist:.4f}, {elapsed:.2f}s")


def test_criterion_8_trace_determinism():
    checked = 0
    for i in range(500):
        rng = make_rng(derive_seed(808, i))
        lm = random_table_lm(rng, rng.randint(2, 4), rng.randint(2, 3))
        l = rng.randint(1, lm.k - 1)
        x = lm.vocab.seq([rng.choice(lm.vocab.real_tokens) for _ in range(l)])
        x_star = lm.vocab.seq([rng.choice(lm.vocab.real_tokens) for _ in range(l)])

        y_g, trace_g = gumbel_factual_run(lm, x, PARAMS, derive_seed(809, i))
        assert gumbel_cf_sample(lm, trace_g, x) == y_g
        assert gumbel_cf_sample(lm, trace_g, x_star) == gumbel_cf_sample(lm, trace_g, x_star)

        y_u, trace_u = its_factual_run(lm, x, PARAMS, derive_seed(810, i))
        assert its_cf_sample(lm, trace_u, x) == y_u
        assert its_cf_sample(lm, trace_u, x_star) == its_cf_sample(lm, trace_u, x_star)
        checked += 2
    report(8, checked == 1000, f"{checked} replayed queries, all exact and bit-stable")


def test_criterion_9_stable_step_laws():
    for i in range(1000):
        rng = make_rng(derive_seed(909, i))
        n = rng.randint(2, 5)
        names = [f"t{j}" for j in range(n)]

        def rand_dist():
            ws = [rng.random() + 1e-9 for _ in range(n)]
            z = sum(ws)
            return [(t, w / z) for t, w in zip(names, ws)]

        factual, cf = rand_dist(), rand_dist()
        tok = rng.choice(names)
        step = stable_step_dist(factual, cf, tok)
        assert abs(step.total - 1.0) <= 1e-9
        for t in excluded_tokens(factual, cf, tok):
            assert step.prob(t) == 0.0
        kept = stable_step_dist(factual, factual, tok)
        assert kept.prob(tok) == 1.0
    # sequence level: keeping the prompt collapses to the observed output
    for i in range(50):
        rng = make_rng(derive_seed(910, i))
        lm = random_table_lm(rng, 3, 3)
        x = lm.vocab.seq([rng.choice(lm.vocab.real_tokens)])
        y, _ = its_factual_run(lm, x, PARAMS, derive_seed(911, i))
        d = stable_cf_dist(lm, CfQuery(x, y, x), PARAMS)
        assert d.prob(y) == 1.0 and len(d.support) == 1
    report(9, True, "10^3 step instances + 50 kept-prompt collapses")


def test_criterion_10_truncation_diagnostic(topk_lm):
    x = topk_lm.vocab.seq(["p"])
    x_star = topk_lm.vocab.seq(["q"])
    truncated = SamplingParams(top_k=1)
    total = 0
    for i in range(1000):
        y, trace = gumbel_factual_run(topk_lm, x, PARAMS, derive_seed(1010, i))
        y_star = gumbel_cf_sample(topk_lm, trace, x_star, truncated)
        rep = stability_check(topk_lm, CfQuery(x, y, x_star), y_star, PARAMS)
        total += rep.violations
    harness = verify_gumbel_stability(
        topk_lm, x, x_star, n_traces=500, seed=1011, cf_params=truncated
    )
    count_field = int(harness.max_deviation)
    ok = isinstance(total, int) and harness.passed and count_field >= 0
    report(10, ok, f"pipeline ran, direct count {total}, harness count {count_field}")
