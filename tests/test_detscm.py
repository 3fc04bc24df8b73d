"""Deterministic models, the canonical binary family, bounds, exogenization.

Claims:
    - observational probabilities sum the noise weights over the solution set
    - conditioning the noise on the observation and pushing it through the
      function at flipped roots reproduces the textbook 1 / 0 extremes
    - noise-independent models convert to equivalent chance models
    - identification bounds for the flip query are [0, 1] at p=0.3, q=0.7,
      and the resampling answer always lands inside them
    - every exogenization method reconstructs the step marginals
"""

from __future__ import annotations

import itertools

import pytest

from cfgen.dist import DistTable, max_abs_diff
from cfgen.detscm import (
    BinaryCfQuery,
    CanonicalBinarySCM,
    DetSCM,
    Interval,
    counterfactual_bounds_binary,
    det_conditional,
    det_counterfactual,
    det_counterfactual_given_u,
    detscm_from_json,
    detscm_to_json,
    exogenize,
    simple_binary_answer,
    to_nondet_when_u_irrelevant,
)
from cfgen.errors import InputError, ModelError
from cfgen.nondet import CausalGraph, VarSpec, World, counterfactual_dist, joint_prob
from cfgen.oracle import random_u_independent_scm
from cfgen.seeding import derive_seed, make_rng

P, Q = 0.3, 0.7
CHOICE_HI = CanonicalBinarySCM.from_free_weight(P, Q, 0.0)  # copy & negate types only
CHOICE_LO = CanonicalBinarySCM.from_free_weight(P, Q, P)  # no copy type
FLIP_QUERY = BinaryCfQuery(y_star=0, y=1, x=1, x_star=0)


def _flip_prob(scm: CanonicalBinarySCM) -> float:
    m = scm.to_detscm()
    dist = det_counterfactual(m, World.of({"X": 1, "Y": 1}), World.of({"X": 0}))
    return sum(p for w, p in dist.items() if w["Y"] == 0)


class TestCanonicalBinary:
    def test_conditionals_pinned(self):
        m = CHOICE_HI.to_detscm()
        assert det_conditional(m, World.of({"X": 1, "Y": 1})) == pytest.approx(P, abs=1e-12)
        assert det_conditional(m, World.of({"X": 0, "Y": 1})) == pytest.approx(Q, abs=1e-12)

    def test_indicator_when_noise_is_irrelevant(self):
        # a constant response type turns the conditional into an indicator
        scm = CanonicalBinarySCM(P, Q, (0.3, 0.7, 0.0, 0.0))
        m = scm.to_detscm()
        # P(Y=0 | X=1) = weight of types mapping 1 -> 0 = negate = 0.7
        assert det_conditional(m, World.of({"X": 1, "Y": 0})) == pytest.approx(0.7, abs=1e-12)

    def test_flip_extremes(self):
        assert _flip_prob(CHOICE_HI) == 1.0
        assert _flip_prob(CHOICE_LO) == 0.0

    def test_factual_roots_recover_observation(self):
        m = CHOICE_HI.to_detscm()
        v = World.of({"X": 1, "Y": 1})
        dist = det_counterfactual(m, v, World.of({"X": 1}))
        assert dist.prob(v) == 1.0

    def test_given_noise_counterfactual_is_a_world(self):
        m = CHOICE_HI.to_detscm()
        # copy type at flipped cause
        assert det_counterfactual_given_u(m, World.of({"U": 0}), World.of({"X": 0}))["Y"] == 0
        # constant-1 type ignores the cause
        assert det_counterfactual_given_u(m, World.of({"U": 3}), World.of({"X": 0}))["Y"] == 1
        # negate type at flipped cause
        assert det_counterfactual_given_u(m, World.of({"U": 1}), World.of({"X": 0}))["Y"] == 1

    def test_boundary_flag(self):
        assert CHOICE_HI.is_boundary
        interior = CanonicalBinarySCM.from_free_weight(P, Q, 0.1)
        assert not interior.is_boundary
        assert not interior.to_detscm().has_boundary_weights

    def test_invalid_weights_rejected(self):
        with pytest.raises(InputError):
            CanonicalBinarySCM(P, Q, (0.5, 0.5, 0.0, 0.0))
        with pytest.raises(InputError):
            CanonicalBinarySCM(P, Q, (float("nan"),) * 4)
        with pytest.raises(InputError):
            CanonicalBinarySCM.from_free_weight(P, Q, 0.5)

    def test_impossible_evidence(self):
        # the diagonal model below maps X=0 to Y=1, so observing Y=0 there
        # leaves an empty noise posterior
        m = _diagonal_scm()
        with pytest.raises(ModelError, match="impossible evidence"):
            det_counterfactual(m, World.of({"X": "0", "Y": "0"}), World.of({"X": "1"}))


class TestBounds:
    def test_flip_query_fully_unidentified(self):
        b = counterfactual_bounds_binary(P, Q, FLIP_QUERY)
        assert (b.lo, b.hi) == (0.0, 1.0)
        assert b.arg_hi == (0.3, 0.7, 0.0, 0.0)
        assert b.arg_lo == pytest.approx((0.0, 0.4, 0.3, 0.3), abs=1e-12)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(InputError):
            counterfactual_bounds_binary(0.5, 0.5, FLIP_QUERY)
        with pytest.raises(InputError):
            counterfactual_bounds_binary(0.7, 0.3, FLIP_QUERY)

    def test_resampling_answer_contained(self):
        for y_star, y, x in itertools.product((0, 1), repeat=3):
            query = BinaryCfQuery(y_star, y, x, 1 - x)
            b = counterfactual_bounds_binary(P, Q, query)
            ans = simple_binary_answer(P, Q, query)
            assert b.lo - 1e-12 <= ans <= b.hi + 1e-12

    def test_admissible_choices_sandwiched(self):
        for d in (0.0, 0.05, 0.15, 0.25, 0.3):
            scm = CanonicalBinarySCM.from_free_weight(P, Q, d)
            val = _flip_prob(scm)
            b = counterfactual_bounds_binary(P, Q, FLIP_QUERY)
            assert b.lo - 1e-12 <= val <= b.hi + 1e-12

    def test_query_parser(self):
        q = BinaryCfQuery.parse("Y*=0 | Y=1, X=1, X*=0")
        assert q == FLIP_QUERY
        with pytest.raises(InputError):
            BinaryCfQuery.parse("Y=1,X=1")
        with pytest.raises(InputError):
            BinaryCfQuery.parse("Y*=0|Y=1,X=1,X*=1")  # no flip


def _diagonal_scm() -> DetSCM:
    """f ignores the noise: Y is a fixed function of the root."""
    x = VarSpec("X", ("0", "1"))
    y = VarSpec("Y", ("0", "1"))
    u = VarSpec("U", ("u0", "u1"))
    g = CausalGraph.of(["X", "Y"], [("X", "Y")])
    f = {"0": "1", "1": "0"}
    responses = {
        World.of({"U": uu}): {
            World.of({"X": xv}): World.of({"X": xv, "Y": f[xv]}) for xv in ("0", "1")
        }
        for uu in ("u0", "u1")
    }
    p_u = DistTable({World.of({"U": "u0"}): 0.25, World.of({"U": "u1"}): 0.75})
    return DetSCM((x, y), (u,), g, responses, p_u)


class TestConversion:
    def test_identity_function_gives_point_masses(self):
        m = _diagonal_scm()
        converted = to_nondet_when_u_irrelevant(m)
        for cpt in converted.cpts.values():
            assert all(row.is_point_mass for row in cpt.rows.values())

    def test_noise_dependent_model_rejected(self):
        scm = CanonicalBinarySCM.from_free_weight(P, Q, 0.1)
        with pytest.raises(InputError, match="depends on U"):
            to_nondet_when_u_irrelevant(scm.to_detscm())

    def test_random_sweep_equivalence(self):
        for i in range(15):
            rng = make_rng(derive_seed(888, i))
            m = random_u_independent_scm(rng)
            converted = to_nondet_when_u_irrelevant(m)
            for r in m.root_worlds():
                v = m.apply(m.noise_worlds()[0], r)
                assert det_conditional(m, v, r) == pytest.approx(
                    joint_prob(converted, v, r), abs=1e-12
                )
                for r_star in m.root_worlds():
                    a = det_counterfactual(m, v, r_star)
                    b = counterfactual_dist(converted, v, r_star)
                    assert max_abs_diff(a, b) <= 1e-12


class TestExogenize:
    def test_uniform_binary_split_at_half(self):
        frag = exogenize({(): DistTable({"a": 0.5, "b": 0.5})}, ("a", "b"), "inverse_transform")
        assert frag.u_domain == (Interval(0.0, 0.5), Interval(0.5, 1.0))
        assert frag.respond(Interval(0.0, 0.5), ()) == "a"
        assert frag.respond(Interval(0.5, 1.0), ()) == "b"

    @pytest.mark.parametrize("method", ["inverse_transform", "canonical"])
    def test_marginals_reconstructed(self, method, lm3):
        steps = {ctx: row for ctx, row in lm3.table.items() if len(ctx) == 1}
        frag = exogenize(steps, lm3.vocab.tokens, method)
        for ctx, row in steps.items():
            rebuilt = frag.reconstruct(ctx)
            for t in lm3.vocab.tokens:
                assert rebuilt.prob(t) == pytest.approx(row.prob(t), abs=1e-9)

    def test_canonical_binary_reproduces_four_types(self):
        steps = {0: DistTable({0: 1 - Q, 1: Q}), 1: DistTable({0: 1 - P, 1: P})}
        frag = exogenize(steps, (0, 1), "canonical")
        # response tuples (y at x=0, y at x=1): copy, negate, always-0, always-1
        assert set(frag.u_domain) == {(0, 1), (1, 0), (0, 0), (1, 1)}
        copy_w = frag.p_u.prob((0, 1))
        negate_w = frag.p_u.prob((1, 0))
        always1_w = frag.p_u.prob((1, 1))
        assert copy_w + always1_w == pytest.approx(P, abs=1e-12)
        assert negate_w + always1_w == pytest.approx(Q, abs=1e-12)

    def test_gumbel_fragment_responds_by_perturbed_argmax(self):
        frag = exogenize({(): DistTable({"a": 0.3, "b": 0.7})}, ("a", "b"), "gumbel")
        assert frag.respond((2.0, 0.0), ()) == "a"
        assert frag.respond((0.0, 0.5), ()) == "b"
        with pytest.raises(InputError):
            frag.reconstruct(())  # continuous noise has no finite table

    def test_unknown_method(self):
        with pytest.raises(InputError):
            exogenize({(): DistTable({"a": 1.0})}, ("a",), "nope")


class TestDetJson:
    def test_round_trip(self):
        m = _diagonal_scm()
        text = detscm_to_json(m)
        again = detscm_from_json(text)
        assert detscm_to_json(again) == text
        v = World.of({"X": "0", "Y": "1"})
        assert det_conditional(again, v) == det_conditional(m, v)
