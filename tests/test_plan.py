"""The per-model evaluation plan behind ``counterfactual_dist``.

Claims exercised here:
    - applying the evidence as an overlay on the plan gives exactly the walk
      over ``evidence_update(m, v)``: same worlds, same floats, same order
    - both agree with the case-form evaluator to 1e-12
    - a model whose plan was built by earlier queries answers bit for bit
      like a fresh one, and a dropped model is freed with its plan
    - the enumeration cap counts expanded nodes as before the plan existed
    - a table whose parent is not assigned before it is a model error
    - the level-order walk gives the depth-first walk's entries, in its order
      and with its floats, and fails past the same caps; where a malformed
      model has two faults, it reports the one its level order meets first
    - every world one walk makes shares the plan's sorted name tuple
    - the plan is the model's ``Shape``, and a deterministic model and the
      chance model converted from it have equal shapes
    - ``assignments`` and every enumerator built on it (root and noise
      worlds, the brute-force oracle, the case-form evaluator) give the
      worlds ``World.of`` gives, in ``itertools.product`` order, all sharing
      one names tuple per call; a product space past the cap fails first
    - the evidence checks of ``joint_prob`` and both evaluators fail with
      the same messages, byte for byte
    - a World hashes to ``hash(values)``, whatever values it holds,
      ``TokenSeq`` values with a kept hash among them, and is immutable
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgen.dist import DistTable, max_abs_diff
from cfgen.errors import CfgenError, EnumerationCapError, InputError, ModelError
from cfgen.fixtures import asymmetric_lm, lm3_model
from cfgen.detscm import to_nondet_when_u_irrelevant
from cfgen.nondet import (
    DEFAULT_ENUM_CAP,
    CausalGraph,
    Cpt,
    NondetModel,
    Shape,
    VarSpec,
    World,
    _observed_rows,
    _plan_of,
    _positive_worlds,
    assignments,
    check_simple_semantics,
    counterfactual_dist,
    counterfactual_dist_cases,
    evidence_update,
    joint_prob,
)
from cfgen.oracle import (
    enumerate_worlds,
    random_nondet_model,
    random_root_world,
    random_u_independent_scm,
    random_world,
)
from cfgen.seeding import derive_seed, make_rng
from cfgen.tokenlm import SamplingParams, TokenSeq, compile_to_nondet, seq_dist


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
    assert plan.sorted_names is plan.names
    assert isinstance(plan, Shape) and m.shape is plan
    assert (plan.names, plan.root_names) == (("T", "X", "Y"), ("X",))
    assert [m.var(name) for name in ("X", "T", "Y")] == list(three_chain.vars)
    with pytest.raises(ModelError, match="unknown variable 'Z'"):
        m.var("Z")


def test_a_repeated_name_finds_its_first_variable():
    first, second = VarSpec("X", ("0", "1")), VarSpec("X", ("2",))
    shape = Shape((first, second), CausalGraph.of(["X"], []))
    assert shape.var("X") is first
    assert shape.var_names == ("X", "X") and shape.names == ("X",)


def assert_worlds_share_the_plan_names(m, v, r_star):
    names = _plan_of(m).sorted_names
    prior = _positive_worlds(m, r_star, DEFAULT_ENUM_CAP)
    for worlds in (prior, counterfactual_dist(m, v, r_star).entries):
        assert worlds and all(world.names is names for world in worlds)


@pytest.mark.parametrize("make_lm", [lm3_model, asymmetric_lm], ids=["lm3", "lm_asym"])
def test_walked_worlds_share_the_plan_names(make_lm):
    for instance in compiled_instances(make_lm(), SamplingParams(1.0)):
        assert_worlds_share_the_plan_names(*instance)
    for seed in range(20):
        assert_worlds_share_the_plan_names(*random_instance(seed))


# --- the level-order walk against a depth-first reference ---------------------


def dfs_worlds(m, clamp, cap, observed=None):
    """The recursive depth-first walk the level-order walk replaced, kept
    here as its reference: same plan, same overlay, one count per expanded
    node, and each error raised where the recursion first meets it."""
    plan = _plan_of(m)
    steps = plan.steps
    n = len(steps)
    values = [None] * n
    fixed = clamp.as_dict()
    entries = {}
    visited = 0

    def walk(i, prob):
        nonlocal visited
        if i == n:
            ordered = tuple(values[j] for j in plan.perm)
            entries[World._canonical(plan.sorted_names, ordered)] = prob
            return
        visited += 1
        if visited > cap:
            raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")
        name, cpt, parents, fault = steps[i][:4]
        if fault is not None:
            raise ModelError(fault)
        if cpt is None:
            values[i] = fixed[name]
            walk(i + 1, prob)
            return
        parent_values = tuple(values[j] for j in parents)
        seen = (observed or {}).get(name)
        if seen is not None and seen[0] == parent_values:
            values[i] = seen[1]
            walk(i + 1, prob)
            return
        for value, p in cpt.row(parent_values).items():
            if p > 0.0:
                values[i] = value
                walk(i + 1, prob * p)

    walk(0, 1.0)
    return entries


def outcome(walk, *args):
    try:
        return list(walk(*args).items())
    except CfgenError as e:
        return type(e), str(e)


def assert_walks_agree(m, v, r_star, caps=()):
    observed = _observed_rows(m, v)
    for cap in (DEFAULT_ENUM_CAP, *caps):
        for args in ((m, r_star, cap, observed), (m, r_star, cap)):
            assert outcome(_positive_worlds, *args) == outcome(dfs_worlds, *args)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_level_walk_equals_depth_first_walk_on_random_models(seed):
    assert_walks_agree(*random_instance(seed), caps=range(1, 12))


@pytest.mark.parametrize("make_lm", [lm3_model, asymmetric_lm], ids=["lm3", "lm_asym"])
@pytest.mark.parametrize("temperature", [1.0, 0.5, 0.0])
def test_level_walk_equals_depth_first_walk_on_compiled_models(make_lm, temperature):
    for m, v, r_star in compiled_instances(make_lm(), SamplingParams(temperature)):
        assert_walks_agree(m, v, r_star, caps=range(1, 16))


HALF = DistTable({"0": 0.5, "1": 0.5})


def chain4(u_rows, y_rows):
    """X -> T -> U -> Y over {0, 1}, with T a fair coin and the given rows."""
    b = ("0", "1")
    vars_ = tuple(VarSpec(name, b) for name in ("X", "T", "U", "Y"))
    graph = CausalGraph.of(["X", "T", "U", "Y"], [("X", "T"), ("T", "U"), ("U", "Y")])
    cpts = {
        "T": Cpt("T", ("X",), {("0",): HALF, ("1",): HALF}),
        "U": Cpt("U", ("T",), u_rows),
        "Y": Cpt("Y", ("U",), y_rows),
    }
    return NondetModel(vars_, graph, cpts)


def test_cap_is_met_while_a_level_is_made():
    # U has no row at T=1. Y's level passes a cap of 5 while T=0 is being
    # expanded, before the walk reaches T=1: the cap error comes first, as
    # it did depth first. With one node more, the missing row does.
    m = chain4({("0",): HALF}, {("0",): HALF, ("1",): HALF})
    for cap in range(3, 8):
        assert outcome(_positive_worlds, m, w(X=0), cap) == outcome(dfs_worlds, m, w(X=0), cap)
    with pytest.raises(EnumerationCapError, match="cap 5 exceeded"):
        _positive_worlds(m, w(X=0), 5)
    with pytest.raises(ModelError, match=r"= \('1',\) of U"):
        _positive_worlds(m, w(X=0), 6)


def test_fault_after_a_branch_now_loses_to_the_cap(three_chain):
    # Y's table reads Z, which is not a model variable: a fault at Y's step,
    # after T has branched into two nodes. Depth first, the fault came at
    # the third expanded node; level by level, Y's level holds the third
    # and the fourth, so a cap of 3 now reports the cap.
    cpt_y = Cpt("Y", ("Z",), three_chain.cpts["Y"].rows)
    m = NondetModel(three_chain.vars, three_chain.graph, {**three_chain.cpts, "Y": cpt_y})
    fault = "Y: table parents do not match graph parents"
    with pytest.raises(ModelError, match=fault):
        dfs_worlds(m, w(X=1), 3)
    with pytest.raises(EnumerationCapError, match="cap 3 exceeded"):
        _positive_worlds(m, w(X=1), 3)
    for walk in (_positive_worlds, dfs_worlds):
        with pytest.raises(ModelError, match=fault):
            walk(m, w(X=1), 4)
        with pytest.raises(EnumerationCapError, match="cap 2 exceeded"):
            walk(m, w(X=1), 2)


def test_cap_and_fault_on_one_level_keep_the_depth_first_order(three_chain):
    # T's table reads Y, which comes after it: a fault on T's level, which
    # holds one node. Counting that node comes first, as depth first.
    cpt_t = Cpt("T", ("Y",), three_chain.cpts["T"].rows)
    m = NondetModel(three_chain.vars, three_chain.graph, {**three_chain.cpts, "T": cpt_t})
    for cap in range(1, 4):
        assert outcome(_positive_worlds, m, w(X=1), cap) == outcome(dfs_worlds, m, w(X=1), cap)
    with pytest.raises(EnumerationCapError, match="cap 1 exceeded"):
        _positive_worlds(m, w(X=1), 1)
    with pytest.raises(ModelError, match="T: table parents do not match graph parents"):
        _positive_worlds(m, w(X=1), 2)


def test_missing_rows_are_reported_in_level_order():
    # U has no row at T=1 and Y none at U=0. Depth first meets Y's missing
    # row first (on T=0, U=0); level by level meets U's, one level higher.
    m = chain4({("0",): DistTable.point("0")}, {("1",): HALF})
    with pytest.raises(ModelError, match=r"= \('0',\) of Y"):
        dfs_worlds(m, w(X=0), DEFAULT_ENUM_CAP)
    with pytest.raises(ModelError, match=r"= \('1',\) of U"):
        _positive_worlds(m, w(X=0), DEFAULT_ENUM_CAP)


# --- the evidence pass ----------------------------------------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_observed_rows_check_like_joint_prob(seed, any_world):
    m, v, _ = random_instance(seed)
    if any_world:
        # any total world, most of them impossible
        rng = make_rng(seed)
        v = World.of({var.name: rng.choice(var.domain) for var in m.vars})
    r = v.restrict(m.roots)
    if joint_prob(m, v, r) <= 0.0:
        with pytest.raises(ModelError, match="impossible evidence"):
            _observed_rows(m, v)
        return
    actual = v.as_dict()
    assert _observed_rows(m, v) == {
        name: (tuple(actual[q] for q in m.cpts[name].parent_order), actual[name])
        for name in m.non_roots
    }


def test_observed_rows_errors(three_chain):
    with pytest.raises(InputError, match="world not total"):
        _observed_rows(three_chain, w(X=0, T=0))
    with pytest.raises(InputError, match="not in domain of X"):
        _observed_rows(three_chain, w(X=2, T=0, Y=0))
    no_y = NondetModel(three_chain.vars, three_chain.graph, {"T": three_chain.cpts["T"]})
    with pytest.raises(ModelError, match="Y: missing table"):
        _observed_rows(no_y, w(X=0, T=0, Y=0))


@pytest.mark.parametrize(
    "query", [joint_prob, counterfactual_dist, counterfactual_dist_cases], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "v, r, message",
    [
        (w(X=0, T=0), w(X=1), "world not total (missing ['Y'], extra [])"),
        (w(X=0, T=0, Y=0, Z=1), w(X=1), "world not total (missing [], extra ['Z'])"),
        (w(T=0, Y=0, Z=1), w(X=1), "world not total (missing ['X'], extra ['Z'])"),
        (w(X=0, T=0, Y=0), w(T=1), "expected an assignment to exactly the roots ('X',)"),
        (w(X=0, T=0, Y=0), w(X=1, T=0), "expected an assignment to exactly the roots ('X',)"),
        (w(X=0, T=0, Y=0), w(X=2), "value '2' not in domain of X"),
        (w(), w(X=1), "world not total (missing ['T', 'X', 'Y'], extra [])"),
        (w(X=0, T=0, Y=0), w(), "expected an assignment to exactly the roots ('X',)"),
        (w(X=0, T=0, Y=0), w(X=1, Z=0), "expected an assignment to exactly the roots ('X',)"),
    ],
)
def test_evidence_check_messages(three_chain, query, v, r, message):
    with pytest.raises(InputError) as info:
        query(three_chain, v, r)
    assert str(info.value) == message


def test_evidence_update_keeps_the_table_order(three_chain):
    v = w(X=0, T=0, Y=0)
    reordered = NondetModel(
        three_chain.vars, three_chain.graph, {"Y": three_chain.cpts["Y"], "T": three_chain.cpts["T"]}
    )
    updated = evidence_update(reordered, v)
    assert list(updated.cpts) == ["Y", "T"]
    assert updated.cpts["T"].rows[("0",)] == DistTable.point("0")
    assert updated.cpts["T"].rows[("1",)] is three_chain.cpts["T"].rows[("1",)]


# --- World keys -----------------------------------------------------------------

VALUES = st.one_of(
    st.integers(-3, 3),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(0, 2), st.text(max_size=2)),
    st.builds(TokenSeq, st.lists(st.integers(1, 3), max_size=3).map(tuple)),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=3), VALUES, max_size=5))
def test_world_hash_is_the_value_tuple_hash(assignment):
    by_of = World.of(assignment)
    names = tuple(sorted(assignment))
    by_canonical = World._canonical(names, tuple(assignment[k] for k in names))
    assert by_of == by_canonical and by_canonical == by_of
    assert hash(by_of) == hash(by_canonical) == hash(by_of.values)
    assert {by_of: 1}[by_canonical] == 1
    assert World.of(by_of.as_dict()) == by_of
    assert World(by_of.items) == by_of and repr(by_of) == f"World(items={by_of.items!r})"
    copy = pickle.loads(pickle.dumps(by_of))
    assert copy == by_of and hash(copy) == hash(by_of)
    for name in ("names", "values", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(by_of, name, ())


# --- the one assignment enumerator -----------------------------------------------


def product_worlds(vars_, base=World.of({})):
    """The worlds ``assignments`` must give, one ``World.of`` each."""
    names = [v.name for v in vars_]
    return [
        World.of({**base.as_dict(), **dict(zip(names, combo))})
        for combo in itertools.product(*(v.domain for v in vars_))
    ]


def assert_product_worlds(got, expected, positive_only=False):
    """``got`` is ``expected`` (or, with ``positive_only``, a subsequence of
    it), world by world and in its order, and shares one names tuple."""
    if positive_only:
        kept = set(got)
        expected = [world for world in expected if world in kept]
    assert [world.items for world in got] == [world.items for world in expected]
    assert got == expected
    assert all(world.names is got[0].names for world in got)


def test_assignments_extend_the_base_in_product_order():
    a, b, c = VarSpec("B", (0, 1)), VarSpec("A", ("x", "y", "z")), VarSpec("D", (None,))
    base = World.of({"C": 7, "E": 8})
    for vars_ in [(a,), (a, b), (b, a), (a, b, c)]:
        assert_product_worlds(list(assignments(vars_)), product_worlds(vars_))
        assert_product_worlds(list(assignments(vars_, base)), product_worlds(vars_, base))
    assert list(assignments(())) == [World.of({})]
    assert list(assignments((), base)) == [base]
    assert list(assignments((a, VarSpec("Z", ())))) == []


def test_assignments_check_the_product_space_and_the_names_first():
    vars_ = (VarSpec("A", (0, 1, 2)), VarSpec("B", (0, 1)))
    assert len(list(assignments(vars_, cap=6))) == 6
    with pytest.raises(EnumerationCapError) as caught:
        assignments(vars_, cap=5)
    assert str(caught.value) == "instance too large: enumeration cap 5 exceeded"
    # a name twice, or a name of the base, would make a malformed world
    twice = (VarSpec("A", (0,)), VarSpec("A", (1,)))
    for vars_, base in [(twice, None), (vars_, World.of({"B": 0}))]:
        with pytest.raises(ModelError, match="cannot assign a repeated variable name"):
            assignments(vars_, base)


@pytest.mark.parametrize("seed", range(25))
def test_enumerators_give_product_worlds_on_random_models(seed):
    m, v, r_star = random_instance(seed)
    roots = [m.var(name) for name in m.roots]
    non_roots = [m.var(name) for name in m.non_roots]
    assert_product_worlds(m.shape.root_worlds(), product_worlds(roots))
    r = v.restrict(m.roots)
    brute = [world for world, _ in enumerate_worlds(m, r)]
    assert_product_worlds(brute, product_worlds(non_roots, r), positive_only=True)
    cases = list(counterfactual_dist_cases(m, v, r_star).entries)
    assert_product_worlds(cases, product_worlds(non_roots, r_star), positive_only=True)


@pytest.mark.parametrize("seed", range(25))
def test_enumerators_give_product_worlds_on_random_deterministic_models(seed):
    m = random_u_independent_scm(make_rng(derive_seed(3141, seed)))
    assert_product_worlds(m.noise_worlds(), product_worlds(m.exo))
    assert_product_worlds(m.root_worlds(), product_worlds([m.shape.var(n) for n in m.roots]))
    converted = to_nondet_when_u_irrelevant(m)
    for attr in ("var_names", "names", "roots", "root_names", "non_roots"):
        assert getattr(converted.shape, attr) == getattr(m.shape, attr)
    assert converted.shape.root_worlds() == m.root_worlds()


def test_enumerate_worlds_checks_the_root_assignment_first(three_chain):
    # a cap of 1 is passed by any non-root product space here; the wrong
    # root assignment is reported all the same
    for r, message in [
        (w(T=0), "expected an assignment to exactly the roots ('X',)"),
        (w(X=2), "value '2' not in domain of X"),
    ]:
        with pytest.raises(InputError) as caught:
            enumerate_worlds(three_chain, r, cap=1)
        assert str(caught.value) == message
    with pytest.raises(EnumerationCapError):
        enumerate_worlds(three_chain, w(X=0), cap=3)
