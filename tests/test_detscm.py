"""Deterministic models, the canonical binary family, bounds, exogenization.

Claims:
    - observational probabilities sum the noise weights over the solution set
    - conditioning the noise on the observation and pushing it through the
      function at flipped roots reproduces the textbook 1 / 0 extremes
    - noise-independent models convert to equivalent chance models
    - identification bounds for the flip query are [0, 1] at p=0.3, q=0.7,
      and the resampling answer always lands inside them
    - ``positivity`` reads a noise prior with a zero weight as the boundary
    - ``exogenize`` builds a deterministic model that reconstructs the step
      marginals, responds through ``draw``, and whose counterfactual is the
      inverse-transform window overlap
    - the evidence checks are those of ``joint_prob``
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgen.dist import DistTable, draw, max_abs_diff
from cfgen.detscm import (
    BinaryCfQuery,
    CanonicalBinarySCM,
    DetSCM,
    Interval,
    counterfactual_bounds_binary,
    det_conditional,
    det_counterfactual,
    exogenize,
    positivity,
    simple_binary_answer,
    to_nondet_when_u_irrelevant,
)
from cfgen.errors import InputError, ModelError
from cfgen.generators import its_cf_sample, its_posterior_noise
from cfgen.nondet import CausalGraph, VarSpec, World, counterfactual_dist, joint_prob
from cfgen.oracle import random_u_independent_scm
from cfgen.seeding import derive_seed, make_rng
from cfgen.tokenlm import SamplingParams

P, Q = 0.3, 0.7
CHOICE_HI = CanonicalBinarySCM.from_free_weight(P, Q, 0.0)  # copy & negate types only
CHOICE_LO = CanonicalBinarySCM.from_free_weight(P, Q, P)  # no copy type
FLIP_QUERY = BinaryCfQuery(y_star=0, y=1, x=1, x_star=0)
PARAMS = SamplingParams()


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
        assert m.apply(World.of({"U": 0}), World.of({"X": 0}))["Y"] == 0
        # constant-1 type ignores the cause
        assert m.apply(World.of({"U": 3}), World.of({"X": 0}))["Y"] == 1
        # negate type at flipped cause
        assert m.apply(World.of({"U": 1}), World.of({"X": 0}))["Y"] == 1

    def test_roots_are_worked_out_once(self):
        m = CHOICE_HI.to_detscm()
        assert (m.roots, m.non_roots) == (("X",), ("Y",))
        assert m.roots is m.roots and m.non_roots is m.non_roots

    def test_boundary_flag(self):
        assert positivity(CHOICE_HI.u_weights) == "boundary (non-positive)"
        interior = CanonicalBinarySCM.from_free_weight(P, Q, 0.1)
        assert positivity(interior.u_weights) == "positive"
        assert positivity(interior.to_detscm().p_u.entries.values()) == "positive"
        assert positivity(counterfactual_bounds_binary(P, Q, FLIP_QUERY).arg_lo) == (
            "boundary (non-positive)"
        )

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


class TestEvidenceChecks:
    """The checks ``joint_prob`` makes, in its wording, on the binary bridge model."""

    @pytest.mark.parametrize(
        "v, message",
        [
            ({"X": 1}, "world not total (missing ['Y'], extra [])"),
            ({"X": 1, "Y": 1, "Z": 0}, "world not total (missing [], extra ['Z'])"),
            ({}, "world not total (missing ['X', 'Y'], extra [])"),
            ({"Y": 1, "Z": 0}, "world not total (missing ['X'], extra ['Z'])"),
        ],
        ids=["missing", "extra", "empty", "missing_and_extra"],
    )
    def test_evidence_must_be_a_total_world(self, binary_chain, v, message):
        m = CHOICE_HI.to_detscm()
        for query in (
            lambda: det_conditional(m, World.of(v)),
            lambda: det_counterfactual(m, World.of(v), World.of({"X": 0})),
            lambda: joint_prob(binary_chain, World.of(v), World.of({"X": 1})),
        ):
            with pytest.raises(InputError) as caught:
                query()
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "r_star, message",
        [
            ({"Y": 0}, "expected an assignment to exactly the roots ('X',)"),
            ({"X": 0, "Y": 0}, "expected an assignment to exactly the roots ('X',)"),
            ({"X": 2}, "value 2 not in domain of X"),
            ({}, "expected an assignment to exactly the roots ('X',)"),
            ({"X": "0"}, "value '0' not in domain of X"),
        ],
        ids=["wrong_variable", "extra_variable", "outside_domain", "empty", "text_value"],
    )
    def test_alternative_roots_must_assign_exactly_the_roots(self, r_star, message):
        m = CHOICE_HI.to_detscm()
        with pytest.raises(InputError) as caught:
            det_counterfactual(m, World.of({"X": 1, "Y": 1}), World.of(r_star))
        assert str(caught.value) == message


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
        m = exogenize({(): DistTable({"a": 0.5, "b": 0.5})}, ("a", "b"))
        halves = (Interval(0.0, 0.5), Interval(0.5, 1.0))
        assert m.exo == (VarSpec("U", halves),)
        assert [v.name for v in m.endo] == ["C", "T"] and m.roots == ("C",)
        assert [m.p_u.prob(World.of({"U": u})) for u in halves] == [0.5, 0.5]
        assert [_response(m, u, ()) for u in halves] == ["a", "b"]

    def test_marginals_reconstructed(self, lm3):
        steps = {ctx: row for ctx, row in lm3.table.items() if len(ctx) == 1}
        m = exogenize(steps, lm3.vocab.tokens)
        for ctx, row in steps.items():
            for t in lm3.vocab.tokens:
                rebuilt = det_conditional(m, World.of({"C": ctx, "T": t}))
                assert rebuilt == pytest.approx(row.prob(t), abs=1e-9)

    def test_its_atom_past_the_last_positive_outcome(self):
        # the prefix sums stop at 1 - 1e-12, so the last atom lies beyond them;
        # it belongs to the last positive outcome, not to the zero one after it
        m = exogenize(
            {(): DistTable({"a": 0.5, "b": 0.5 - 1e-12, "c": 0.0})}, ("a", "b", "c")
        )
        assert [_response(m, u, ()) for u in m.exo[0].domain] == ["a", "b", "b"]

    def test_lm_asym_its_counterfactual_matches_the_replays(self, asym_lm):
        # y = "p b", prompt p -> q: the uniform that gave b after p lies in
        # [0.5, 0.8), which gives c after q
        v = asym_lm.vocab
        steps = {ctx: asym_lm.table[ctx] for ctx in (("p",), ("q",))}
        m = exogenize(steps, v.tokens)
        law = det_counterfactual(m, World.of({"C": ("p",), "T": "b"}), World.of({"C": ("q",)}))
        assert law == DistTable.point(World.of({"C": ("q",), "T": "c"}))
        x, y, x_star = v.seq(["p"]), v.seq(["p", "b"]), v.seq(["q"])
        replays = {
            v.strings(its_cf_sample(asym_lm, its_posterior_noise(asym_lm, x, y, PARAMS, s), x_star))
            for s in range(200)
        }
        assert replays == {("q", "c")}


def _response(m: DetSCM, u: Interval, ctx) -> str:
    return m.apply(World.of({"U": u}), World.of({"C": ctx}))["T"]


@st.composite
def _steps(draw_from):
    n = draw_from(st.integers(min_value=1, max_value=5))
    order = tuple(f"t{i}" for i in range(n))
    steps = {}
    for ctx in range(draw_from(st.integers(min_value=1, max_value=3))):
        # small integer weights give zeros and tied probabilities
        ws = draw_from(
            st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
        )
        steps[ctx] = DistTable({t: w / sum(ws) for t, w in zip(order, ws)})
    return steps, order


@settings(max_examples=200, derandomize=True)
@given(_steps())
def test_exogenized_model_responds_through_draw(case):
    steps, order = case
    m = exogenize(steps, order)
    for ctx, d in steps.items():
        row = [d.prob(t) for t in order]
        for u in m.exo[0].domain:
            t = _response(m, u, ctx)
            # the whole atom lies in t's window (draw is monotone in u, so its
            # first and last floats suffice), and t has positive probability
            last = math.nextafter(u.hi, u.lo)
            assert t == order[draw(row, u.lo)] == order[draw(row, last)]
            assert d.prob(t) > 0.0


def _windows(d: DistTable, order) -> dict:
    """Each outcome's cumulative window [lo, hi) over the positive entries."""
    acc, out = 0.0, {}
    for t in order:
        if d.prob(t) > 0.0:
            out[t] = (acc, acc + d.prob(t))
            acc += d.prob(t)
    return out


@settings(max_examples=200, derandomize=True)
@given(_steps())
def test_det_counterfactual_is_the_window_overlap(case):
    # the its kernel: P(s) = |W_f(o) & W_c(s)| / f_o
    steps, order = case
    m = exogenize(steps, order)
    for f, o, c in itertools.product(steps, order, steps):
        if steps[f].prob(o) == 0.0:
            continue
        law = det_counterfactual(m, World.of({"C": f, "T": o}), World.of({"C": c}))
        lo, hi = _windows(steps[f], order)[o]
        cf_windows = _windows(steps[c], order)
        for s in order:
            a, b = cf_windows.get(s, (0.0, 0.0))
            expected = max(0.0, min(hi, b) - max(lo, a)) / steps[f].prob(o)
            assert abs(law.prob(World.of({"C": c, "T": s})) - expected) <= 1e-12
