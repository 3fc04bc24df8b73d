"""Brute-force enumeration oracle and claim-verification harness.

Everything here is ground truth for the test suite: an unpruned world
enumerator, seeded random model generators, empirical distributions from
seeded samplers, and exhaustive desk-scale checks of the package's central
claims (each claim is verified on bounded instances, not proved):

* det-nondet equivalence: a deterministic model whose response function
  ignores its noise has an equivalent chance model (same conditional and
  counterfactual distributions).
* compiled simple semantics: counterfactuals of a compiled token model
  reduce to resampling at the new prompt, for every factual pair and every
  equal-length alternative prompt.
* zero temperature: the greedy setting is the deterministic special case;
  the same sweep yields exact 0/1 probabilities.
* canonical binary identification: the textbook two-variable bridge model
  is entirely unbounded for the flip query under deterministic semantics,
  while the chance model pins the answer to the observed conditional.
* noise-reuse stability: without truncation, max-perturbation reuse never
  picks an excluded token; with mismatched truncation it may, and the
  violation count is reported as a diagnostic.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Hashable

from .dist import DistTable, draw, left_sum, max_abs_diff
from .detscm import DetSCM, det_conditional, det_counterfactual, exogenize
from .detscm import to_nondet_when_u_irrelevant
from .detscm import BinaryCfQuery, CanonicalBinarySCM, counterfactual_bounds_binary
from .detscm import positivity, simple_binary_answer
from .errors import InputError
from .generators import (
    CfQuery,
    gumbel_cf_sample,
    gumbel_factual_run,
    stability_check,
)
from .nondet import (
    CLAIM_TOL,
    DEFAULT_ENUM_CAP,
    CausalGraph,
    Cpt,
    NondetModel,
    VarSpec,
    VerificationReport,
    World,
    assignments,
    counterfactual_dist,
    joint_prob,
)
from .seeding import derive_seed, make_rng
from .tokenlm import (
    SamplingParams,
    TokenSeq,
    ToyLM,
    Vocab,
    compile_to_nondet,
    seq_dist,
    zero_temp_fn,
)

# each later variable's chance of having each earlier one as a parent
EDGE_PROB = 0.6


def enumerate_worlds(
    m: NondetModel, r: World, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[World, float]]:
    """Every positive-probability total world extending ``r``, brute force.

    Walks the full product space of non-root domains (no pruning), so it is
    an independent check on the package's smarter enumerators.
    """
    m.shape.require_roots(r)
    out: list[tuple[World, float]] = []
    for w in assignments([m.var(n) for n in m.non_roots], r, cap):
        p = joint_prob(m, w, r)
        if p > 0.0:
            out.append((w, p))
    return out


def empirical_dist(draw: Callable[[int], Hashable], n: int, seed: int) -> DistTable:
    """Normalized counts of ``n`` draws; draw ``i`` gets its own derived seed,
    so results are independent of evaluation order."""
    if n <= 0:
        raise InputError("need at least one draw")
    counts: dict[Hashable, int] = {}
    for i in range(n):
        o = draw(derive_seed(seed, i))
        counts[o] = counts.get(o, 0) + 1
    return DistTable.from_counts(counts)


# --- random instance generators ------------------------------------------------


def random_nondet_model(rng: random.Random, max_vars: int = 5, max_domain: int = 4) -> NondetModel:
    """Random DAG with rows drawn as normalized iid uniforms (positive, generic)."""
    n = rng.randint(2, max_vars)
    names = [f"V{i}" for i in range(n)]
    vars_ = tuple(
        VarSpec(name, tuple(str(j) for j in range(rng.randint(2, max_domain))))
        for name in names
    )
    edges: set[tuple[str, str]] = set()
    for j in range(1, n):
        parents = [names[i] for i in range(j) if rng.random() < EDGE_PROB]
        for p in parents:
            edges.add((p, names[j]))
    graph = CausalGraph.of(names, edges)
    roots = graph.roots
    cpts: dict[str, Cpt] = {}
    domains = {v.name: v.domain for v in vars_}
    for v in vars_:
        if v.name in roots:
            continue
        parent_order = graph.parents(v.name)
        rows: dict[tuple, DistTable] = {}
        for combo in itertools.product(*(domains[p] for p in parent_order)):
            weights = [rng.random() + 1e-9 for _ in v.domain]
            z = left_sum(weights)
            rows[combo] = DistTable({val: w / z for val, w in zip(v.domain, weights)})
        cpts[v.name] = Cpt(v.name, parent_order, rows)
    return NondetModel(vars_, graph, cpts)


def random_world(rng: random.Random, m: NondetModel, r: World) -> World:
    """A positive-probability total world extending ``r``, by forward sampling."""
    assignment = r.as_dict()
    for name in m.graph.topological_order():
        if name in assignment:
            continue
        row = m.cpts[name].row(tuple(assignment[p] for p in m.cpts[name].parent_order))
        values, probs = zip(*row.items())
        assignment[name] = values[draw(probs, rng.random())]
    return World.of(assignment)


def random_root_world(rng: random.Random, m: NondetModel) -> World:
    return World.of({name: rng.choice(m.domain(name)) for name in m.roots})


def random_u_independent_scm(rng: random.Random) -> DetSCM:
    """Deterministic model whose response ignores the noise, for equivalence sweeps."""
    n = rng.randint(2, 4)
    names = [f"V{i}" for i in range(n)]
    endo = tuple(
        VarSpec(name, tuple(str(j) for j in range(rng.randint(2, 3)))) for name in names
    )
    n_roots = rng.randint(1, n - 1)
    roots, others = names[:n_roots], names[n_roots:]
    graph = CausalGraph.of(names, {(r, y) for r in roots for y in others})
    exo = (VarSpec("U", tuple(f"u{j}" for j in range(rng.randint(2, 4)))),)
    domains = {v.name: v.domain for v in endo}
    root_worlds = assignments(endo[:n_roots])
    shared = {
        r: World.of({**r.as_dict(), **{y: rng.choice(domains[y]) for y in others}})
        for r in root_worlds
    }
    responses = {
        World.of({"U": u}): dict(shared) for u in exo[0].domain
    }
    weights = [rng.random() + 1e-9 for _ in exo[0].domain]
    z = left_sum(weights)
    p_u = DistTable({World.of({"U": u}): w / z for u, w in zip(exo[0].domain, weights)})
    return DetSCM(endo, exo, graph, responses, p_u)


def random_table_lm(rng: random.Random, vocab_size: int, k: int) -> ToyLM:
    """Random full-table model; every row gets mass on EMPTY so runs terminate."""
    letters = "abcdefghij"
    tokens = ("</e>",) + tuple(letters[i] for i in range(vocab_size - 1))
    vocab = Vocab(tokens)
    table: dict[tuple[str, ...], DistTable] = {}
    for length in range(k):
        for ctx in itertools.product(vocab.real_tokens, repeat=length):
            weights = [rng.random() + 1e-9 for _ in tokens]
            z = left_sum(weights)
            table[ctx] = DistTable({t: w / z for t, w in zip(tokens, weights)})
    return ToyLM(vocab, k, "table", table=table)


# --- claim checks ---------------------------------------------------------------


def verify_det_nondet_equivalence(m: DetSCM) -> VerificationReport:
    """Conditional and counterfactual equality between a noise-independent
    deterministic model and its converted chance model, on all instances."""
    converted = to_nondet_when_u_irrelevant(m)  # raises if the noise matters
    max_dev = 0.0
    instances = 0
    counterexample = None
    non_roots = [m.shape.var(n) for n in m.non_roots]
    for r in m.root_worlds():
        observed = None
        for v in assignments(non_roots, r):
            instances += 1
            a = det_conditional(m, v, r)
            b = joint_prob(converted, v, r)
            dev = abs(a - b)
            max_dev = max(max_dev, dev)
            if dev > CLAIM_TOL and counterexample is None:
                counterexample = {"kind": "conditional", "v": v.as_dict(), "det": a, "nondet": b}
            if a > 0.0:
                observed = v
        if observed is None:
            continue
        for r_star in m.root_worlds():
            instances += 1
            a_dist = det_counterfactual(m, observed, r_star)
            b_dist = counterfactual_dist(converted, observed, r_star)
            dev = max_abs_diff(a_dist, b_dist)
            max_dev = max(max_dev, dev)
            if dev > CLAIM_TOL and counterexample is None:
                counterexample = {
                    "kind": "counterfactual",
                    "v": observed.as_dict(),
                    "r_star": r_star.as_dict(),
                    "deviation": dev,
                }
    return VerificationReport(
        "det-to-nondet-equivalence", instances, max_dev, CLAIM_TOL, counterexample is None,
        counterexample,
    )


def sweep_det_nondet_equivalence(n_models: int = 50, seed: int = 20240501) -> VerificationReport:
    max_dev = 0.0
    instances = 0
    counterexample = None
    for i in range(n_models):
        rng = make_rng(derive_seed(seed, i))
        rep = verify_det_nondet_equivalence(random_u_independent_scm(rng))
        instances += rep.instances
        max_dev = max(max_dev, rep.max_deviation)
        if not rep.passed and counterexample is None:
            counterexample = {"model_index": i, **(rep.counterexample or {})}
    return VerificationReport(
        "det-to-nondet-equivalence", instances, max_dev, CLAIM_TOL,
        counterexample is None, counterexample,
        notes=(f"{n_models} random noise-independent models, seed {seed}",),
    )


def verify_compiled_simple_semantics(
    lm: ToyLM, params: SamplingParams, prompt_len: int
) -> VerificationReport:
    """Compiled-model counterfactuals equal plain resampling at the new prompt.

    For every prompt x, every positive-probability output y, and every
    other equal-length prompt x*, the counterfactual world distribution
    projected onto the output variable must match the sequence law at x*.
    At temperature 0 every probability must also be exactly 0 or 1.
    """
    zero_one = params.temperature == 0.0
    compiled = compile_to_nondet(lm, prompt_len, params)
    prompts = compiled.domain("X")
    t_names = [f"T{i}" for i in range(1, lm.k + 1)]
    max_dev = 0.0
    instances = 0
    counterexample = None
    resampled: dict[TokenSeq, DistTable] = {x: seq_dist(lm, x, params) for x in prompts}
    for x in prompts:
        for y, py in resampled[x].items():
            if py <= 0.0:
                continue
            y_tokens = lm.vocab.strings(y)
            v = World.of(
                {"X": x, "Y": y, **{t_names[i]: y_tokens[i] for i in range(lm.k)}}
            )
            for x_star in prompts:
                if x_star == x:
                    continue
                cf = counterfactual_dist(compiled, v, World.of({"X": x_star}))
                marginal = cf.project(lambda w: w["Y"])
                expected = resampled[x_star]
                dev = max_abs_diff(marginal, expected)
                instances += 1
                max_dev = max(max_dev, dev)
                if dev > CLAIM_TOL and counterexample is None:
                    counterexample = {
                        "x": list(lm.vocab.strings(x)),
                        "y": list(y_tokens),
                        "x_star": list(lm.vocab.strings(x_star)),
                        "deviation": dev,
                    }
                if zero_one:
                    for _, p in marginal.items():
                        if p not in (0.0, 1.0) and counterexample is None:
                            counterexample = {
                                "x": list(lm.vocab.strings(x)),
                                "x_star": list(lm.vocab.strings(x_star)),
                                "non_binary_probability": p,
                            }
    return VerificationReport(
        "compiled-counterfactual-equals-resampling", instances, max_dev, CLAIM_TOL,
        counterexample is None, counterexample,
        ("probabilities constrained to exact {0, 1}",) if zero_one else (),
    )


def verify_zero_temperature(lm: ToyLM, prompt_len: int) -> VerificationReport:
    """The greedy special case: resampling sweep with exact 0/1 probabilities,
    plus det-model equivalence for the induced prompt-to-output function."""
    rep = verify_compiled_simple_semantics(lm, SamplingParams(temperature=0.0), prompt_len)
    prompts = tuple(
        lm.vocab.seq(c) for c in itertools.product(lm.vocab.real_tokens, repeat=prompt_len)
    )
    outputs = {x: zero_temp_fn(lm, x) for x in prompts}
    order = sorted(set(outputs.values()), key=lambda s: s.ids)
    det = exogenize({x: DistTable.point(y) for x, y in outputs.items()}, order)
    det_rep = verify_det_nondet_equivalence(det)
    passed = rep.passed and det_rep.passed
    return VerificationReport(
        "zero-temperature-deterministic-case",
        rep.instances + det_rep.instances,
        max(rep.max_deviation, det_rep.max_deviation),
        CLAIM_TOL,
        passed,
        rep.counterexample or det_rep.counterexample,
        rep.notes,
    )


def verify_canonical_binary() -> VerificationReport:
    """At p = 0.3, q = 0.7: the two illustrative noise priors pin the flip
    query to 1 and 0, the identification interval is [0, 1], and the
    chance-model answer is q."""
    p, q = 0.3, 0.7
    query = BinaryCfQuery(y_star=0, y=1, x=1, x_star=0)
    notes: list[str] = []
    counterexample = None

    choice_hi = CanonicalBinarySCM.from_free_weight(p, q, 0.0)  # copy/negate only
    choice_lo = CanonicalBinarySCM.from_free_weight(p, q, p)  # no copy type
    values = {}
    for label, scm in (("choice_hi", choice_hi), ("choice_lo", choice_lo)):
        m = scm.to_detscm()
        dist = det_counterfactual(m, World.of({"X": 1, "Y": 1}), World.of({"X": 0}))
        values[label] = left_sum(pr for w, pr in dist.items() if w["Y"] == 0)
        notes.append(f"{label}: weights {scm.u_weights}, positivity {positivity(scm.u_weights)}")
    if values["choice_hi"] != 1.0 or values["choice_lo"] != 0.0:
        counterexample = {"flip_query_values": values}

    bounds = counterfactual_bounds_binary(p, q, query)
    if bounds.lo != 0.0 or bounds.hi != 1.0:
        counterexample = counterexample or {"bounds": bounds.to_dict()}
    notes.append(f"bounds for flip query: [{bounds.lo}, {bounds.hi}]")

    resample_flip = simple_binary_answer(p, q, query)
    resample_keep = simple_binary_answer(p, q, BinaryCfQuery(1, 1, 1, 0))
    if resample_keep != q:
        counterexample = counterexample or {"resampling_answer": resample_keep}
    if not (bounds.lo <= resample_flip <= bounds.hi):
        counterexample = counterexample or {"containment": resample_flip}
    notes.append(f"resampling answers: Y*=1 -> {resample_keep}, Y*=0 -> {resample_flip}")

    return VerificationReport(
        "canonical-binary-identification", 4, 0.0, 0.0,
        counterexample is None, counterexample, tuple(notes),
    )


def verify_gumbel_stability(
    lm: ToyLM,
    x: TokenSeq,
    x_star: TokenSeq,
    n_traces: int,
    seed: int,
    cf_params: SamplingParams | None = None,
) -> VerificationReport:
    """Count excluded-token picks across noise-reuse counterfactual runs.

    The factual runs sample with the default params, and so does the check.
    With the same params at the counterfactual prompt the count must be
    zero; other ``cf_params`` give a diagnostic count, not a failure.
    """
    factual = SamplingParams()
    cf_params = cf_params or factual
    diagnostic = cf_params != factual
    violations = 0
    for i in range(n_traces):
        y, trace = gumbel_factual_run(lm, x, factual, derive_seed(seed, i))
        y_star = gumbel_cf_sample(lm, trace, x_star, cf_params)
        rep = stability_check(lm, CfQuery(x, y, x_star), y_star, factual)
        violations += rep.violations
    passed = True if diagnostic else violations == 0
    return VerificationReport(
        "noise-reuse-stability", n_traces, float(violations), 0.0, passed,
        None if passed else {"violations": violations},
        notes=(
            f"violations: {violations}",
            "diagnostic (params differ across runs)" if diagnostic else "strict",
        ),
    )
