"""The per-model evaluation plan behind ``counterfactual_dist``.

Claims exercised here:
    - applying the evidence as an overlay on the plan gives exactly the walk
      over ``evidence_update(m, v)``: same worlds, same floats, same order
    - both agree with the case-form evaluator to 1e-12
    - a model whose plan was built by earlier queries answers bit for bit
      like a fresh one, and a dropped model is freed with its plan
    - the enumeration cap counts expanded nodes as before the plan existed
    - a table whose parent is not assigned before it is a model error
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgen.dist import max_abs_diff
from cfgen.errors import EnumerationCapError, ModelError
from cfgen.fixtures import asymmetric_lm, lm3_model
from cfgen.nondet import (
    DEFAULT_ENUM_CAP,
    Cpt,
    NondetModel,
    World,
    _positive_worlds,
    check_simple_semantics,
    counterfactual_dist,
    counterfactual_dist_cases,
    evidence_update,
)
from cfgen.oracle import random_nondet_model, random_root_world, random_world
from cfgen.seeding import derive_seed, make_rng
from cfgen.tokenlm import SamplingParams, compile_to_nondet, seq_dist


def w(**kv) -> World:
    return World.of({k: str(v) for k, v in kv.items()})


def random_instance(seed: int):
    rng = make_rng(derive_seed(2718, seed))
    m = random_nondet_model(rng)
    v = random_world(rng, m, random_root_world(rng, m))
    return m, v, random_root_world(rng, m)


def compiled_instances(lm, params):
    """Every (model, v, r*) the compiled-model claim asks at prompt length 1."""
    m = compile_to_nondet(lm, 1, params)
    prompts = m.domain("X")
    for x in prompts:
        for y, p in seq_dist(lm, x, params).items():
            if p <= 0.0:
                continue
            tokens = lm.vocab.strings(y)
            v = World.of({"X": x, "Y": y, **{f"T{i + 1}": t for i, t in enumerate(tokens)}})
            for x_star in prompts:
                yield m, v, World.of({"X": x_star})


def assert_overlay_is_update(m, v, r_star):
    by_overlay = counterfactual_dist(m, v, r_star)
    by_update = _positive_worlds(evidence_update(m, v), r_star, DEFAULT_ENUM_CAP)
    assert list(by_overlay.entries.items()) == list(by_update.items())
    assert max_abs_diff(by_overlay, counterfactual_dist_cases(m, v, r_star)) <= 1e-12


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_overlay_equals_updated_model_on_random_models(seed):
    assert_overlay_is_update(*random_instance(seed))


@pytest.mark.parametrize("make_lm", [lm3_model, asymmetric_lm], ids=["lm3", "lm_asym"])
@pytest.mark.parametrize("temperature", [1.0, 0.5, 0.0])
def test_overlay_equals_updated_model_on_compiled_models(make_lm, temperature):
    instances = list(compiled_instances(make_lm(), SamplingParams(temperature)))
    assert instances
    for m, v, r_star in instances:
        assert_overlay_is_update(m, v, r_star)


def test_warm_plan_answers_like_a_fresh_model():
    lm = lm3_model()
    params = SamplingParams(0.5)
    warm = compile_to_nondet(lm, 1, params)
    instances = list(compiled_instances(lm, params))
    for _, v, r_star in instances:
        counterfactual_dist(warm, v, r_star)
    assert warm._plan is not None
    for _, v, r_star in instances:
        fresh = compile_to_nondet(lm, 1, params)
        assert fresh._plan is None
        assert repr(counterfactual_dist(warm, v, r_star)) == repr(
            counterfactual_dist(fresh, v, r_star)
        )
    for i in range(20):
        m, v, r_star = random_instance(i)
        warm = NondetModel(m.vars, m.graph, m.cpts)
        check_simple_semantics(warm)
        assert repr(counterfactual_dist(warm, v, r_star)) == repr(counterfactual_dist(m, v, r_star))
        assert check_simple_semantics(warm) == check_simple_semantics(
            NondetModel(m.vars, m.graph, m.cpts)
        )


def test_dropped_model_is_freed_by_refcount_alone():
    gc.collect()
    gc.disable()
    try:
        m, v, r_star = next(compiled_instances(lm3_model(), SamplingParams(1.0)))
        counterfactual_dist(m, v, r_star)
        assert m._plan is not None
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


# the smallest caps that passed before the plan existed: the walk must
# expand exactly as many nodes as the generator it replaced
THREE_CHAIN_CAP = 4
COMPILED_LM3_CAP = 13


def test_cap_accounting_on_three_chain(three_chain):
    v, r_star = w(X=0, T=0, Y=0), w(X=1)
    counterfactual_dist(three_chain, v, r_star, cap=THREE_CHAIN_CAP)
    with pytest.raises(EnumerationCapError, match=f"cap {THREE_CHAIN_CAP - 1} exceeded"):
        counterfactual_dist(three_chain, v, r_star, cap=THREE_CHAIN_CAP - 1)
    check_simple_semantics(three_chain, cap=THREE_CHAIN_CAP)
    with pytest.raises(EnumerationCapError):
        check_simple_semantics(three_chain, cap=THREE_CHAIN_CAP - 1)


def test_cap_accounting_on_compiled_lm3():
    lm = lm3_model()
    m = compile_to_nondet(lm, 1, SamplingParams(1.0))
    y = lm.vocab.seq(["a", "a"]).padded(lm.k)
    v = World.of({"X": lm.vocab.seq(["a"]), "Y": y, "T1": "a", "T2": "a", "T3": "</e>"})
    r_star = World.of({"X": lm.vocab.seq(["b"])})
    counterfactual_dist(m, v, r_star, cap=COMPILED_LM3_CAP)
    with pytest.raises(EnumerationCapError):
        counterfactual_dist(m, v, r_star, cap=COMPILED_LM3_CAP - 1)


def test_parent_not_assigned_before_child_is_model_error(three_chain):
    # T reads Y, which the graph orders after T
    cpt_t = Cpt("T", ("Y",), three_chain.cpts["T"].rows)
    m = NondetModel(three_chain.vars, three_chain.graph, {**three_chain.cpts, "T": cpt_t})
    with pytest.raises(ModelError, match="T: table parents do not match graph parents"):
        counterfactual_dist(m, w(X=0, T=0, Y=0), w(X=1))


def test_plan_shape_matches_graph(three_chain):
    m = NondetModel(three_chain.vars, three_chain.graph, three_chain.cpts)
    assert (m.var_names, m.roots, m.non_roots) == (("X", "T", "Y"), ("X",), ("T", "Y"))
    plan = m._plan
    assert [step[0] for step in plan.steps] == ["X", "T", "Y"]
    assert [step[2] for step in plan.steps] == [(), (0,), (1,)]
    assert plan.sorted_names == ("T", "X", "Y") and plan.perm == (1, 0, 2)
    worlds = _positive_worlds(m, w(X=1), DEFAULT_ENUM_CAP)
    assert len(worlds) == 4
    assert all(world.items == World.of(world.as_dict()).items for world in worlds)
