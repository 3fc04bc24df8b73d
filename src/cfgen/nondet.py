"""Nondeterministic causal models over finite domains.

A model is an acyclic directed graph plus one conditional probability table
per non-root variable; root variables carry no marginal and every query
conditions on a total root assignment. Probabilities are read as genuine
chance, not ignorance of a hidden mechanism.

Counterfactual queries clamp the roots to an alternative assignment while
keeping what the actual world revealed: a mechanism whose parents retain
their actual values must reproduce its actual output, and every other
mechanism falls back to its prior table. Two independent evaluators are
provided: ``counterfactual_dist`` walks the evidence-updated joint, and
``counterfactual_dist_cases`` evaluates a closed-form case analysis world by
world. The two must agree to 1e-12 everywhere; tests sweep this.

``counterfactual_dist`` walks each model along its evaluation plan: the
topological order, the root/non-root shape and, per variable, its table
and its parents' positions in that order. A model builds its plan on first
use and keeps it until it is freed. The evidence is applied as an overlay
on that walk (the actual row of each table read as a point mass on the
actual value), which gives exactly the walk over ``evidence_update(m, v)``
without copying a table.

All values are immutable after construction, apart from that cached plan,
and all operations are pure. Models can be shared across threads: two
threads that build a model's plan at once build equal plans.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping

from .dist import DistTable
from .errors import EnumerationCapError, InputError, ModelError

DEFAULT_ENUM_CAP = 10_000_000

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class VarSpec:
    """A named variable with a fixed, totally ordered finite domain.

    The domain order is load-bearing: it breaks argmax ties and fixes the
    inverse-transform ordering downstream.
    """

    name: str
    domain: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))

    def index(self, value: Hashable) -> int:
        try:
            return self.domain.index(value)
        except ValueError:
            raise InputError(f"value {value!r} not in domain of {self.name}") from None


@dataclass(frozen=True)
class CausalGraph:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))

    @classmethod
    def of(cls, nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "CausalGraph":
        return cls(frozenset(nodes), frozenset(edges))

    def parents(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(a for a, b in self.edges if b == node))

    def children(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(b for a, b in self.edges if a == node))

    @property
    def roots(self) -> frozenset[str]:
        with_parents = {b for _, b in self.edges}
        return frozenset(self.nodes - with_parents)

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm with name-sorted tie-breaking; raises on cycles."""
        indeg = {n: 0 for n in self.nodes}
        for _, b in self.edges:
            indeg[b] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            for c in self.children(n):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
            ready.sort()
        if len(order) != len(self.nodes):
            raise ModelError("graph contains a cycle")
        return tuple(order)

    @property
    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except ModelError:
            return False


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one child variable.

    ``rows`` maps a tuple of parent values (in ``parent_order``) to a
    distribution over the child's domain. Point-mass rows are permitted;
    they mark deterministic mechanisms.
    """

    child: str
    parent_order: tuple[str, ...]
    rows: Mapping[tuple[Hashable, ...], DistTable]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent_order", tuple(self.parent_order))
        object.__setattr__(self, "rows", dict(self.rows))

    def row(self, parent_values: tuple[Hashable, ...]) -> DistTable:
        try:
            return self.rows[parent_values]
        except KeyError:
            raise ModelError(
                f"no row for parents {self.parent_order!r} = {parent_values!r} of {self.child}"
            ) from None


@dataclass(frozen=True)
class World:
    """An assignment of values to variables, canonically ordered and hashable."""

    items: tuple[tuple[str, Hashable], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(sorted(self.items, key=lambda kv: kv[0])))

    @classmethod
    def of(cls, assignment: Mapping[str, Hashable]) -> "World":
        return cls(tuple(assignment.items()))

    @classmethod
    def _canonical(cls, items: tuple[tuple[str, Hashable], ...]) -> "World":
        """Trusted constructor: ``items`` are already sorted by name."""
        world = object.__new__(cls)
        object.__setattr__(world, "items", items)
        return world

    def __getitem__(self, name: str) -> Hashable:
        for k, v in self.items:
            if k == name:
                return v
        raise KeyError(name)

    def get(self, name: str, default: Hashable = None) -> Hashable:
        for k, v in self.items:
            if k == name:
                return v
        return default

    @property
    def names(self) -> frozenset[str]:
        return frozenset(k for k, _ in self.items)

    def as_dict(self) -> dict[str, Hashable]:
        return dict(self.items)

    def restrict(self, names: Iterable[str]) -> "World":
        keep = set(names)
        return World(tuple((k, v) for k, v in self.items if k in keep))

    def extends(self, sub: "World") -> bool:
        mine = self.as_dict()
        return all(k in mine and mine[k] == v for k, v in sub.items)

    def values_at(self, names: Iterable[str]) -> tuple[Hashable, ...]:
        mine = self.as_dict()
        return tuple(mine[n] for n in names)


@dataclass(frozen=True)
class NondetModel:
    """Finite nondeterministic causal model: variables, DAG, one CPT per non-root.

    Keeps the evaluation plan (``_Plan``) its first query builds.
    """

    vars: tuple[VarSpec, ...]
    graph: CausalGraph
    cpts: Mapping[str, Cpt]
    _plan: "_Plan | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "cpts", dict(self.cpts))

    def var(self, name: str) -> VarSpec:
        for v in self.vars:
            if v.name == name:
                return v
        raise ModelError(f"unknown variable {name!r}")

    def domain(self, name: str) -> tuple[Hashable, ...]:
        return self.var(name).domain

    @property
    def var_names(self) -> tuple[str, ...]:
        return _plan_of(self).var_names

    @property
    def roots(self) -> tuple[str, ...]:
        return _plan_of(self).roots

    @property
    def non_roots(self) -> tuple[str, ...]:
        return _plan_of(self).non_roots


class _Plan:
    """What every query on one model reads, worked out once.

    The shape (names, roots, non-roots and their sets), and one step per
    variable in topological order: ``(name, cpt, parent positions, fault)``.
    ``cpt`` is None at a root; ``fault`` is raised when the walk reaches a
    step it cannot pass. ``perm`` orders the positions by name, so a walk's
    values make a canonical ``World``. ``steps`` is None on a cycle. Holds
    the model's tables, not the model, so there is no reference cycle.
    """

    __slots__ = (
        "var_names", "names", "roots", "root_set", "non_roots", "steps", "sorted_names", "perm"
    )

    def __init__(self, m: NondetModel) -> None:
        root_set = m.graph.roots
        self.var_names = tuple(v.name for v in m.vars)
        self.names = frozenset(self.var_names)
        self.roots = tuple(n for n in self.var_names if n in root_set)
        self.root_set = frozenset(self.roots)
        self.non_roots = tuple(n for n in self.var_names if n not in root_set)
        try:
            order = m.graph.topological_order()
        except ModelError:
            self.steps = self.sorted_names = self.perm = None
            return
        position = {name: i for i, name in enumerate(order)}
        steps = []
        for i, name in enumerate(order):
            if name in self.root_set:
                steps.append((name, None, (), None))
                continue
            cpt = m.cpts.get(name)
            if cpt is None:
                steps.append((name, None, (), f"{name}: missing table"))
                continue
            parents = tuple(position.get(p, i) for p in cpt.parent_order)
            fault = None
            if any(j >= i for j in parents):
                fault = f"{name}: table parents do not match graph parents"
            steps.append((name, cpt, parents, fault))
        self.steps = tuple(steps)
        self.sorted_names = tuple(sorted(order))
        self.perm = tuple(position[name] for name in self.sorted_names)


def _plan_of(m: NondetModel) -> _Plan:
    plan = m._plan
    if plan is None:
        plan = _Plan(m)
        object.__setattr__(m, "_plan", plan)
    return plan


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"ok": self.ok, "problems": list(self.problems), "notes": list(self.notes)}


@dataclass(frozen=True)
class SimpleSemanticsReport:
    """Outcome of the exhaustive simple-semantics check on one model."""

    passed: bool
    checked: int
    max_deviation: float
    counterexample: dict | None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checked": self.checked,
            "max_deviation": self.max_deviation,
            "counterexample": self.counterexample,
        }


def validate_model(m: NondetModel) -> ValidationReport:
    """Report-style structural check: acyclicity, domains, CPT completeness.

    Never raises; each violation is listed with its location so malformed
    models can be inspected.
    """
    problems: list[str] = []
    notes: list[str] = []

    names = [v.name for v in m.vars]
    if len(set(names)) != len(names):
        problems.append("duplicate variable names")
    if set(names) != set(m.graph.nodes):
        problems.append("graph nodes do not match variable names")

    for v in m.vars:
        if len(v.domain) < 1:
            problems.append(f"{v.name}: empty domain")
        if len(set(v.domain)) != len(v.domain):
            problems.append(f"{v.name}: duplicate domain values")

    if not m.graph.is_acyclic:
        problems.append("cycle in graph")
        return ValidationReport(False, tuple(problems), tuple(notes))

    roots = set(m.graph.roots)
    for v in m.vars:
        if v.name in roots:
            if v.name in m.cpts:
                problems.append(f"{v.name}: root variable must not carry a table")
            if not m.graph.children(v.name):
                notes.append(f"{v.name}: childless root (copied through by counterfactuals)")
            continue
        cpt = m.cpts.get(v.name)
        if cpt is None:
            problems.append(f"{v.name}: missing table")
            continue
        if cpt.child != v.name:
            problems.append(f"{v.name}: table child mismatch ({cpt.child})")
        if set(cpt.parent_order) != set(m.graph.parents(v.name)):
            problems.append(f"{v.name}: table parents do not match graph parents")
            continue
        try:
            parent_domains = [m.domain(p) for p in cpt.parent_order]
        except ModelError:
            problems.append(f"{v.name}: table parent not a model variable")
            continue
        expected = set(itertools.product(*parent_domains))
        got = set(cpt.rows)
        if got != expected:
            problems.append(
                f"{v.name}: rows cover {len(got)} of {len(expected)} parent combinations"
            )
        child_domain = set(v.domain)
        deterministic = 0
        for key, row in cpt.rows.items():
            if not set(row.entries) <= child_domain:
                problems.append(f"{v.name}: row {key!r} has outcomes outside the domain")
            if not abs(row.total - 1.0) <= ROW_SUM_TOL:  # NaN-safe
                problems.append(f"{v.name}: row {key!r} not normalized (sum={row.total!r})")
            elif row.is_point_mass:
                deterministic += 1
        if deterministic:
            notes.append(f"{v.name}: {deterministic} of {len(cpt.rows)} rows deterministic")
    for extra in set(m.cpts) - set(names):
        problems.append(f"{extra}: table for unknown variable")

    return ValidationReport(not problems, tuple(problems), tuple(notes))


def _require_total(m: NondetModel, v: World) -> None:
    names = _plan_of(m).names
    if v.names != names:
        missing = names - v.names
        extra = v.names - names
        raise InputError(f"world not total (missing {sorted(missing)}, extra {sorted(extra)})")


def _require_roots(m: NondetModel, r: World) -> None:
    plan = _plan_of(m)
    if r.names != plan.root_set:
        raise InputError(f"expected an assignment to exactly the roots {plan.roots!r}")
    for name in plan.roots:
        m.var(name).index(r[name])


def joint_prob(m: NondetModel, v: World, r: World) -> float:
    """Probability of the total world ``v`` conditional on its root values ``r``.

    The product of one table entry per non-root variable; roots contribute
    no factor because they carry no marginal.
    """
    _require_total(m, v)
    _require_roots(m, r)
    if not v.extends(r):
        raise InputError("world is inconsistent with the given root assignment")
    actual = v.as_dict()
    p = 1.0
    for name in m.non_roots:
        cpt = m.cpts.get(name)
        if cpt is None:
            raise ModelError(f"{name}: missing table")
        row = cpt.row(tuple(actual[q] for q in cpt.parent_order))
        p *= row.prob(actual[name])
        if p == 0.0:
            return 0.0
    return p


# per table: (actual parent values, actual value) under the evidence
_Observed = Mapping[str, tuple[tuple[Hashable, ...], Hashable]]


def _observed_rows(m: NondetModel, v: World) -> _Observed:
    """The evidence update of ``v``: per table, the actual parent values
    and the actual value, whose row becomes a point mass on it. An error
    when ``v`` is not total or has zero probability."""
    _require_total(m, v)
    r = v.restrict(m.roots)
    if joint_prob(m, v, r) <= 0.0:
        raise ModelError("impossible evidence: observed world has zero probability")
    actual = v.as_dict()
    return {
        name: (tuple(actual[q] for q in cpt.parent_order), actual[name])
        for name, cpt in m.cpts.items()
    }


def evidence_update(m: NondetModel, v: World) -> NondetModel:
    """Fold the observed world into the tables.

    For each non-root variable, the row at its actual parent values becomes
    a point mass on its actual value; every other row is left untouched.
    Idempotent, and an error when ``v`` has zero probability.
    """
    new_cpts: dict[str, Cpt] = {}
    for name, (actual_pa, value) in _observed_rows(m, v).items():
        cpt = m.cpts[name]
        rows = dict(cpt.rows)
        rows[actual_pa] = DistTable.point(value)
        new_cpts[name] = Cpt(cpt.child, cpt.parent_order, rows)
    return NondetModel(m.vars, m.graph, new_cpts)


def _positive_worlds(
    m: NondetModel,
    clamp: World,
    cap: int,
    observed: _Observed | None = None,
) -> dict[World, float]:
    """Every positive-probability total world extending ``clamp``, with its
    probability, in depth-first order.

    Forward enumeration along the model's plan, branching only on values
    with positive table probability. ``observed`` (from ``_observed_rows``)
    overlays the evidence update: the walk then equals one over
    ``evidence_update(m, v)`` without copying a table. Raises
    ``EnumerationCapError`` once more than ``cap`` partial assignments have
    been expanded.
    """
    plan = _plan_of(m)
    steps = plan.steps
    if steps is None:
        m.graph.topological_order()  # raises: the graph has a cycle
    n = len(steps)
    values: list[Hashable] = [None] * n
    value_at = values.__getitem__
    fixed = clamp.as_dict()
    overlay = [observed.get(name) for name, _, _, _ in steps] if observed else [None] * n
    sorted_names, perm = plan.sorted_names, plan.perm
    entries: dict[World, float] = {}
    visited = 0

    def walk(i: int, prob: float) -> None:
        nonlocal visited
        if i == n:
            entries[World._canonical(tuple(zip(sorted_names, map(value_at, perm))))] = prob
            return
        visited += 1
        if visited > cap:
            raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")
        name, cpt, parents, fault = steps[i]
        if fault is not None:
            raise ModelError(fault)
        if cpt is None:
            values[i] = fixed[name]
            walk(i + 1, prob)
            return
        parent_values = tuple(map(value_at, parents))
        seen = overlay[i]
        if seen is not None and seen[0] == parent_values:
            # the point mass of the update; prob * 1.0 is prob exactly
            values[i] = seen[1]
            walk(i + 1, prob)
            return
        for value, p in cpt.row(parent_values).items():
            if p <= 0.0:
                continue
            values[i] = value
            walk(i + 1, prob * p)

    walk(0, 1.0)
    return entries


def counterfactual_dist(
    m: NondetModel, v: World, r_star: World, cap: int = DEFAULT_ENUM_CAP
) -> DistTable:
    """Exact counterfactual distribution over total worlds, given evidence ``v``
    and the alternative root assignment ``r_star``.

    Computed by enumerating the evidence-updated joint with roots clamped
    to ``r_star``; the update is applied as an overlay on the model's plan
    and equals ``evidence_update(m, v)`` walked the same way. Support only
    contains worlds extending ``r_star``.
    """
    _require_roots(m, r_star)
    return DistTable(_positive_worlds(m, r_star, cap, _observed_rows(m, v)))


def counterfactual_case_prob(m: NondetModel, v: World, r_star: World, v_star: World) -> float:
    """Single-world counterfactual probability via the four-case closed form.

    Cases, in order: the clamped roots must hold in the candidate world; a
    non-root whose parents all keep their actual values must keep its actual
    value; if no non-root sees changed parents the candidate gets the whole
    mass; otherwise the prior table entries of the changed-parent variables
    multiply.
    """
    _require_total(m, v)
    _require_total(m, v_star)
    if not v_star.extends(r_star):
        return 0.0
    changed: list[str] = []
    for name in m.non_roots:
        cpt = m.cpts[name]
        pa_actual = v.values_at(cpt.parent_order)
        pa_star = v_star.values_at(cpt.parent_order)
        if pa_star == pa_actual:
            if v_star[name] != v[name]:
                return 0.0
        else:
            changed.append(name)
    if not changed:
        return 1.0
    p = 1.0
    for name in changed:
        cpt = m.cpts[name]
        p *= cpt.row(v_star.values_at(cpt.parent_order)).prob(v_star[name])
        if p == 0.0:
            return 0.0
    return p


def counterfactual_dist_cases(
    m: NondetModel, v: World, r_star: World, cap: int = DEFAULT_ENUM_CAP
) -> DistTable:
    """Same distribution as ``counterfactual_dist``, by the per-world case form.

    Deliberately takes the slow route (full product space over non-root
    domains, no model rewriting) so the two evaluators stay independent.
    """
    _require_total(m, v)
    _require_roots(m, r_star)
    r = v.restrict(m.roots)
    if joint_prob(m, v, r) <= 0.0:
        raise ModelError("impossible evidence: observed world has zero probability")
    non_roots = m.non_roots
    size = 1
    for name in non_roots:
        size *= len(m.domain(name))
        if size > cap:
            raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")
    base = r_star.as_dict()
    entries: dict[World, float] = {}
    for combo in itertools.product(*(m.domain(name) for name in non_roots)):
        candidate = dict(base)
        candidate.update(zip(non_roots, combo))
        w = World.of(candidate)
        p = counterfactual_case_prob(m, v, r_star, w)
        if p > 0.0:
            entries[w] = p
    return DistTable(entries)


def _root_assignments(m: NondetModel) -> Iterator[World]:
    domains = [m.domain(name) for name in m.roots]
    for combo in itertools.product(*domains):
        yield World.of(dict(zip(m.roots, combo)))


def check_simple_semantics(
    m: NondetModel, cap: int = DEFAULT_ENUM_CAP, tol: float = 1e-12
) -> SimpleSemanticsReport:
    """Exhaustively test whether counterfactuals collapse to resampling.

    For every positive-probability total world ``v`` and every root
    assignment differing from the actual one, compares the counterfactual
    distribution against the plain conditional distribution at the
    alternative roots. Returns the first counterexample when they differ.
    """
    max_dev = 0.0
    checked = 0
    priors: dict[World, DistTable] = {}
    for r in _root_assignments(m):
        priors[r] = DistTable(_positive_worlds(m, r, cap))
    for r in _root_assignments(m):
        for v, _ in priors[r].items():
            for r_star in _root_assignments(m):
                if r_star == r:
                    continue
                cf = counterfactual_dist(m, v, r_star, cap)
                prior = priors[r_star]
                outcomes = set(cf.entries) | set(prior.entries)
                checked += 1
                for w in outcomes:
                    dev = abs(cf.prob(w) - prior.prob(w))
                    max_dev = max(max_dev, dev)
                    if dev > tol:
                        return SimpleSemanticsReport(
                            False,
                            checked,
                            max_dev,
                            {
                                "v": v.as_dict(),
                                "r_star": r_star.as_dict(),
                                "v_star": w.as_dict(),
                                "counterfactual": cf.prob(w),
                                "resampled": prior.prob(w),
                            },
                        )
    return SimpleSemanticsReport(True, checked, max_dev, None)


# --- JSON interchange -------------------------------------------------------
#
# {"vars": [{"name": "X", "domain": ["0", "1"]}],
#  "edges": [["X", "Y"]],
#  "cpts": {"Y": {"parents": ["X"], "rows": {"0": [0.3, 0.7]}}}}
#
# Row keys comma-join the parent values in the declared parent order; row
# values list probabilities in the child's domain order.


def model_to_json(m: NondetModel) -> str:
    payload = {
        "vars": [{"name": v.name, "domain": list(v.domain)} for v in m.vars],
        "edges": sorted([a, b] for a, b in m.graph.edges),
        "cpts": {
            name: {
                "parents": list(cpt.parent_order),
                "rows": {
                    ",".join(str(x) for x in key): [
                        row.prob(val) for val in m.domain(name)
                    ]
                    for key, row in sorted(cpt.rows.items(), key=lambda kv: repr(kv[0]))
                },
            }
            for name, cpt in sorted(m.cpts.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def model_from_json(text: str) -> NondetModel:
    """Parse the interchange format; rejects rows whose sum is off by > 1e-9."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"bad model JSON: {e}") from e
    try:
        vars_ = tuple(VarSpec(v["name"], tuple(v["domain"])) for v in payload["vars"])
        graph = CausalGraph.of(
            [v.name for v in vars_], [(a, b) for a, b in payload["edges"]]
        )
        domains = {v.name: v.domain for v in vars_}
        cpts: dict[str, Cpt] = {}
        for child, block in payload.get("cpts", {}).items():
            parents = tuple(block["parents"])
            rows: dict[tuple, DistTable] = {}
            for key, probs in block["rows"].items():
                values = tuple(key.split(",")) if key else ()
                if len(values) != len(parents):
                    raise ModelError(f"{child}: row key {key!r} does not match parents")
                if child not in domains:
                    raise ModelError(f"table for unknown variable {child!r}")
                if len(probs) != len(domains[child]):
                    raise ModelError(f"{child}: row {key!r} has wrong arity")
                total = sum(probs)
                if not abs(total - 1.0) <= ROW_SUM_TOL:  # NaN-safe
                    raise ModelError(f"{child}: row {key!r} not normalized (sum={total!r})")
                rows[values] = DistTable(dict(zip(domains[child], probs)))
            cpts[child] = Cpt(child, parents, rows)
    except (KeyError, TypeError) as e:
        raise ModelError(f"bad model JSON structure: {e!r}") from e
    return NondetModel(vars_, graph, cpts)
