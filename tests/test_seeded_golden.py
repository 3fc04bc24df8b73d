"""Seeded outputs and exact laws pinned to literal values.

Every sampler is a pure function of (model, inputs, params, seed) over the
Mersenne Twister stream, and every exact law is a fixed sequence of float
operations. ``golden_seeded.json`` holds the reprs those produced, so a
change to the stream or to the order of any float operation shows up as a
diff here rather than as a silent drift in seeded output. Regenerate the
file only when such a change is intended, and record it in CHANGES.md:

    PYTHONPATH=src python tests/test_seeded_golden.py > tests/golden_seeded.json
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from cfgen.fixtures import asymmetric_lm, lm3_model
from cfgen.generators import (
    CfQuery,
    gumbel_cf_sample,
    gumbel_factual_run,
    gumbel_posterior_noise,
    its_cf_sample,
    its_factual_run,
    its_posterior_noise,
    stability_check,
    stable_cf_dist,
)
from cfgen.oracle import random_table_lm
from cfgen.tokenlm import SamplingParams, sample_output, seq_dist

GOLDEN = Path(__file__).resolve().parent / "golden_seeded.json"
SEEDS = range(10)


def _random_lm():
    return random_table_lm(random.Random(7), 5, 4)


# case -> (model factory, factual prompt, counterfactual prompt, params); the
# random model's two-token prompts pin the noise entries after a longer prompt
CASES = {
    f"{name}/{label}": (make, [x_tok], [xs_tok], params)
    for name, make, x_tok, xs_tok in (
        ("lm3", lm3_model, "a", "b"),
        ("lm_asym", asymmetric_lm, "p", "q"),
    )
    for label, params in (("t1", SamplingParams()), ("t0_5", SamplingParams(temperature=0.5)))
}
CASES.update(
    {
        f"rand_v5k4/{plabel}/{label}": (_random_lm, x_toks, xs_toks, params)
        for plabel, x_toks, xs_toks in (("l1", ["a"], ["c"]), ("l2", ["a", "b"], ["c", "a"]))
        for label, params in (
            ("topk2", SamplingParams(top_k=2)),
            ("topp0_9", SamplingParams(top_p=0.9)),
        )
    }
)


def _law(d) -> list[list]:
    return [[list(s.ids), repr(p)] for s, p in sorted(d.items(), key=lambda kv: kv[0].ids)]


def _seeded(lm, x, x_star, params, seed) -> dict:
    # the truncated cases pin the gumbel path too
    y_g, g_trace = gumbel_factual_run(lm, x, params, seed)
    g_post = gumbel_posterior_noise(lm, x, y_g, params, seed)
    y_i, i_trace = its_factual_run(lm, x, params, seed)
    i_post = its_posterior_noise(lm, x, y_i, params, seed)
    y_star = gumbel_cf_sample(lm, g_trace, x_star)
    return {
        "sample_output": list(sample_output(lm, x_star, params, seed).ids),
        "gumbel_factual_run": [list(y_g.ids), repr(g_trace.noise.entries)],
        "gumbel_posterior_noise": repr(g_post.noise.entries),
        "gumbel_replay": list(gumbel_cf_sample(lm, g_post, x_star).ids),
        "its_factual_run": [list(y_i.ids), repr(i_trace.noise.entries)],
        "its_posterior_noise": repr(i_post.noise.entries),
        "its_replay": list(its_cf_sample(lm, i_post, x_star).ids),
        "stability_check": stability_check(lm, CfQuery(x, y_g, x_star), y_star, params).to_dict(),
    }


def golden_values() -> dict:
    out: dict = {}
    for case, (make, x_toks, xs_toks, params) in CASES.items():
        lm = make()
        x, x_star = lm.vocab.seq(x_toks), lm.vocab.seq(xs_toks)
        factual = seq_dist(lm, x, params)
        out[case] = {
            "seq_dist": _law(seq_dist(lm, x_star, params)),
            "stable_cf_dist": [
                _law(stable_cf_dist(lm, CfQuery(x, y, x_star), params))
                for y in sorted(factual.support, key=lambda s: s.ids)
            ],
            "seeded": [_seeded(lm, x, x_star, params, seed) for seed in SEEDS],
        }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return golden_values()


@pytest.mark.parametrize("case", CASES)
def test_exact_laws_match_golden(case, golden, current):
    assert current[case]["seq_dist"] == golden[case]["seq_dist"]
    assert current[case]["stable_cf_dist"] == golden[case]["stable_cf_dist"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_outputs_match_golden(case, seed, golden, current):
    assert current[case]["seeded"][seed] == golden[case]["seeded"][seed]


@pytest.mark.parametrize("case", CASES)
def test_exact_laws_list_outcomes_depth_first(case):
    """The golden laws are compared sorted; this pins their entry order.

    The walk visits children in id order and EMPTY is id 0, so depth-first
    order is ascending order of the padded ids. Sums over a law's entries
    run in that order.
    """
    make, x_toks, xs_toks, params = CASES[case]
    lm = make()
    x, x_star = lm.vocab.seq(x_toks), lm.vocab.seq(xs_toks)
    factual = seq_dist(lm, x, params)
    laws = [seq_dist(lm, x_star, params)]
    laws += [stable_cf_dist(lm, CfQuery(x, y, x_star), params) for y in factual.support]
    for law in laws:
        assert list(law.entries) == sorted(law.entries, key=lambda s: s.ids)


if __name__ == "__main__":
    json.dump(golden_values(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
