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
import math
from dataclasses import FrozenInstanceError, dataclass, field
from functools import partial
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .dist import DistTable, prob_row
from .errors import EnumerationCapError, InputError, ModelError, read_json

DEFAULT_ENUM_CAP = 10_000_000


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
        stray = sorted(repr(list(e)) for e in self.edges if not self.nodes.issuperset(e))
        if stray:
            raise ModelError(f"edge {stray[0]} names an undeclared variable")

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


class World:
    """An assignment of values to variables, canonically ordered and hashable.

    ``names`` holds the variable names in sorted order and ``values`` the
    values in that order. Every world one plan's walk makes shares the
    plan's ``names`` tuple, so a leaf costs one tuple of values and no
    (name, value) pairs. A world hashes as its ``values`` and equals another
    world with equal ``names`` and ``values``. ``World(items)`` sorts
    (name, value) pairs; ``World.of`` takes a mapping. Immutable, like a
    frozen dataclass.
    """

    __slots__ = ("names", "values")
    names: tuple[str, ...]
    values: tuple[Hashable, ...]

    def __init__(self, items: Iterable[tuple[str, Hashable]]) -> None:
        pairs = sorted(items, key=itemgetter(0))
        _set_names(self, tuple([k for k, _ in pairs]))
        _set_values(self, tuple([v for _, v in pairs]))

    @classmethod
    def of(cls, assignment: Mapping[str, Hashable]) -> "World":
        names = sorted(assignment)
        return cls._canonical(tuple(names), tuple([assignment[k] for k in names]))

    @classmethod
    def _canonical(cls, names: tuple[str, ...], values: tuple[Hashable, ...]) -> "World":
        """Trusted constructor: ``names`` are sorted and ``values`` in their order."""
        world = _new(cls)
        _set_names(world, names)
        _set_values(world, values)
        return world

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return World, (self.items,)

    def __hash__(self) -> int:
        return hash(self.values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values and self.names == other.names

    def __repr__(self) -> str:
        return f"World(items={self.items!r})"

    @property
    def items(self) -> tuple[tuple[str, Hashable], ...]:
        return tuple(zip(self.names, self.values))

    def __getitem__(self, name: str) -> Hashable:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def as_dict(self) -> dict[str, Hashable]:
        return dict(zip(self.names, self.values))

    def restrict(self, names: Iterable[str]) -> "World":
        keep = set(names)
        picked = [kv for kv in zip(self.names, self.values) if kv[0] in keep]
        kept_names, kept_values = zip(*picked) if picked else ((), ())
        return World._canonical(kept_names, kept_values)

    def extends(self, sub: "World") -> bool:
        index, values = self.names.index, self.values
        try:
            for k, v in zip(sub.names, sub.values):
                if not values[index(k)] == v:
                    return False
        except ValueError:  # a name of ``sub`` that this world lacks
            return False
        return True

    def values_at(self, names: Iterable[str]) -> tuple[Hashable, ...]:
        index, values = self.names.index, self.values
        return tuple([values[index(n)] for n in names])


# the trusted constructor's stores, past the frozen ``__setattr__``
_new = object.__new__
_set_names = World.__dict__["names"].__set__
_set_values = World.__dict__["values"].__set__


@dataclass(frozen=True)
class NondetModel:
    """Finite nondeterministic causal model: variables, DAG, one CPT per non-root.

    Keeps the evaluation plan (``_Plan``) its first query builds; ``shape``
    reads it as the model's ``Shape``.
    """

    vars: tuple[VarSpec, ...]
    graph: CausalGraph
    cpts: Mapping[str, Cpt]
    _plan: "_Plan | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "cpts", dict(self.cpts))

    @property
    def shape(self) -> Shape:
        return _plan_of(self)

    def var(self, name: str) -> VarSpec:
        return _plan_of(self).var(name)

    def domain(self, name: str) -> tuple[Hashable, ...]:
        return _plan_of(self).var(name).domain

    @property
    def var_names(self) -> tuple[str, ...]:
        return _plan_of(self).var_names

    @property
    def roots(self) -> tuple[str, ...]:
        return _plan_of(self).roots

    @property
    def non_roots(self) -> tuple[str, ...]:
        return _plan_of(self).non_roots


class Shape:
    """A model's variables as both model kinds check worlds against them:
    ``var_names``, ``roots`` and ``non_roots`` in declared order, ``names``
    and ``root_names`` sorted as a world's are, and ``var`` by name."""

    __slots__ = ("var_names", "names", "roots", "root_names", "non_roots", "_by_name")

    def __init__(self, vars: tuple[VarSpec, ...], graph: CausalGraph) -> None:
        root_set = graph.roots
        self.var_names = tuple(v.name for v in vars)
        self.names = tuple(sorted(set(self.var_names)))
        self.roots = tuple(n for n in self.var_names if n in root_set)
        self.root_names = tuple(sorted(set(self.roots)))
        self.non_roots = tuple(n for n in self.var_names if n not in root_set)
        self._by_name = {v.name: v for v in reversed(vars)}  # the first of a repeated name

    def var(self, name: str) -> VarSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def root_worlds(self) -> list[World]:
        """Every assignment to the roots, in ``itertools.product`` order."""
        return list(assignments([self.var(n) for n in self.roots]))

    def require_total(self, v: World) -> None:
        """The evidence check: ``v`` assigns exactly the model's variables."""
        if v.names != self.names:
            missing = set(self.names).difference(v.names)
            extra = set(v.names).difference(self.names)
            raise InputError(f"world not total (missing {sorted(missing)}, extra {sorted(extra)})")

    def require_roots(self, r: World) -> None:
        """``r`` assigns exactly the roots, each a value in its domain."""
        if r.names != self.root_names:
            raise InputError(f"expected an assignment to exactly the roots {self.roots!r}")
        for name in self.roots:
            self.var(name).index(r[name])


class _Plan(Shape):
    """What every query on one model reads, worked out once.

    The model's ``Shape``, and one step per variable in topological order:
    ``(name, cpt, parent positions, fault, pick)``, where ``pick`` takes the
    parent values out of a walk's values. ``cpt`` is None at a root;
    ``fault`` is raised when the walk reaches a step it cannot pass.
    ``perm`` orders the positions by name, and ``pick_sorted`` applies it,
    so a walk's values and ``sorted_names`` make a canonical ``World``;
    ``sorted_names`` is ``names`` itself when the graph orders exactly the
    model's variables. ``steps`` is None on a cycle. Holds the model's
    tables, not the model, so there is no reference cycle.
    """

    __slots__ = ("steps", "sorted_names", "perm", "pick_sorted")

    def __init__(self, m: NondetModel) -> None:
        super().__init__(m.vars, m.graph)
        root_set = m.graph.roots
        try:
            order = m.graph.topological_order()
        except ModelError:
            self.steps = self.sorted_names = self.perm = self.pick_sorted = None
            return
        position = {name: i for i, name in enumerate(order)}
        steps = []
        for i, name in enumerate(order):
            if name in root_set:
                steps.append((name, None, (), None, None))
                continue
            cpt = m.cpts.get(name)
            if cpt is None:
                steps.append((name, None, (), f"{name}: missing table", None))
                continue
            parents = tuple(position.get(p, i) for p in cpt.parent_order)
            fault = None
            if any(j >= i for j in parents):
                fault = f"{name}: table parents do not match graph parents"
            steps.append((name, cpt, parents, fault, _picker(parents)))
        self.steps = tuple(steps)
        sorted_names = tuple(sorted(order))
        self.sorted_names = self.names if sorted_names == self.names else sorted_names
        self.perm = tuple(position[name] for name in self.sorted_names)
        self.pick_sorted = _picker(self.perm)


def _picker(positions: tuple[int, ...]):
    """A function from a tuple to the tuple of its entries at ``positions``."""
    start = positions[0] if positions else 0
    stop = start + len(positions)
    if positions == tuple(range(start, stop)):
        return itemgetter(slice(start, stop))
    return itemgetter(*positions)  # two or more positions: returns a tuple


def assignments(
    vars: Sequence[VarSpec], base: World | None = None, cap: int | None = None
) -> Iterator[World]:
    """Every world that extends ``base`` and gives each of ``vars`` a value
    from its domain, in ``itertools.product`` order, all sharing one sorted
    names tuple. Raises ``EnumerationCapError`` first when the product space
    holds more than ``cap`` worlds, and ``ModelError`` when a name repeats."""
    if cap is not None and math.prod(len(v.domain) for v in vars) > cap:
        raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")
    head, order = ((), ()) if base is None else (base.values, base.names)
    order += tuple(v.name for v in vars)
    names = tuple(sorted(order))
    if len(set(names)) < len(names):
        raise ModelError(f"cannot assign a repeated variable name: {names!r}")
    values = itertools.product(*(v.domain for v in vars))
    if head:
        values = (head + combo for combo in values)
    if order != names:
        values = map(_picker(tuple(order.index(n) for n in names)), values)
    return map(partial(World._canonical, names), values)


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


# the deviation every exact claim check allows
CLAIM_TOL = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """One claim, checked exhaustively on bounded instances."""

    claim: str
    instances: int
    max_deviation: float
    tolerance: float
    passed: bool
    counterexample: dict | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "instances": self.instances,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
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
            stray = len(got - expected)
            problems.append(
                f"{v.name}: rows cover {len(got & expected)} of {len(expected)} parent "
                "combinations" + (f"; rows for unknown combinations: {stray}" if stray else "")
            )
        child_domain = set(v.domain)
        deterministic = 0
        for key, row in cpt.rows.items():
            if not set(row.entries) <= child_domain:
                problems.append(f"{v.name}: row {key!r} has outcomes outside the domain")
            if row.is_point_mass:
                deterministic += 1
        if deterministic:
            notes.append(f"{v.name}: {deterministic} of {len(cpt.rows)} rows deterministic")
    for extra in set(m.cpts) - set(names):
        problems.append(f"{extra}: table for unknown variable")

    return ValidationReport(not problems, tuple(problems), tuple(notes))


def joint_prob(m: NondetModel, v: World, r: World) -> float:
    """Probability of the total world ``v`` conditional on its root values ``r``.

    The product of one table entry per non-root variable; roots contribute
    no factor because they carry no marginal.
    """
    shape = _plan_of(m)
    shape.require_total(v)
    shape.require_roots(r)
    if not v.extends(r):
        raise InputError("world is inconsistent with the given root assignment")
    return _actual_rows(m, v)[0]


# per non-root table: (actual parent values, actual value) under the evidence
_Observed = Mapping[str, tuple[tuple[Hashable, ...], Hashable]]


def _actual_rows(m: NondetModel, v: World) -> tuple[float, _Observed]:
    """One pass over the non-roots of the total world ``v``: the product of
    their actual table entries (0.0 as soon as one is), and per table the
    actual parent values and the actual value."""
    actual = v.as_dict()
    observed: dict[str, tuple[tuple[Hashable, ...], Hashable]] = {}
    p = 1.0
    for name in _plan_of(m).non_roots:
        cpt = m.cpts.get(name)
        if cpt is None:
            raise ModelError(f"{name}: missing table")
        parent_values = tuple(actual[q] for q in cpt.parent_order)
        p *= cpt.row(parent_values).prob(actual[name])
        if p == 0.0:
            return 0.0, observed
        observed[name] = (parent_values, actual[name])
    return p, observed


def _observed_rows(m: NondetModel, v: World) -> _Observed:
    """The evidence update of ``v``: per table, the actual parent values
    and the actual value, whose row becomes a point mass on it. An error
    when ``v`` is not total or has zero probability; the checks are those
    of ``joint_prob``, in its order."""
    shape = _plan_of(m)
    shape.require_total(v)
    for name in shape.roots:
        shape.var(name).index(v[name])
    p, observed = _actual_rows(m, v)
    if p <= 0.0:
        raise ModelError("impossible evidence: observed world has zero probability")
    return observed


def evidence_update(m: NondetModel, v: World) -> NondetModel:
    """Fold the observed world into the tables.

    For each non-root variable, the row at its actual parent values becomes
    a point mass on its actual value; every other row is left untouched.
    Idempotent, and an error when ``v`` has zero probability.
    """
    new_cpts = dict(m.cpts)
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

    Forward enumeration along the model's plan, one level per step and
    branching only on values with positive table probability. Each level
    keeps its partial assignments in depth-first order, so the leaves come
    out in that order with the same products. ``observed`` (from
    ``_observed_rows``) overlays the evidence update: the walk then equals
    one over ``evidence_update(m, v)`` without copying a table.

    Every partial assignment that is expanded counts one against ``cap``,
    when its level is made. Errors come in the order the walk meets them:
    ``EnumerationCapError`` once the count passes ``cap``, a step's fault
    when its level is reached, a missing row when a partial assignment
    needs it.
    """
    plan = _plan_of(m)
    steps = plan.steps
    if steps is None:
        m.graph.topological_order()  # raises: the graph has a cycle
    fixed = clamp.as_dict()
    overlay = observed or {}
    last = len(steps) - 1
    level: list[tuple[tuple[Hashable, ...], float]] = [((), 1.0)]
    visited = 0
    for i, (name, cpt, _, fault, pick) in enumerate(steps):
        visited += len(level)
        if visited > cap:
            raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")
        if fault is not None:
            raise ModelError(fault)
        if cpt is None:
            value = fixed[name]
            level = [(values + (value,), prob) for values, prob in level]
            continue
        seen = overlay.get(name)
        # the next level counts against the cap as it is made, unless it holds the leaves
        room = cap - visited if i < last else math.inf
        children: list[tuple[tuple[Hashable, ...], float]] = []
        append = children.append
        rows = cpt.rows
        for values, prob in level:
            parent_values = pick(values)
            if seen is not None and seen[0] == parent_values:
                # the point mass of the update; prob * 1.0 is prob exactly
                append((values + (seen[1],), prob))
                continue
            row = rows.get(parent_values)
            if row is None:
                cpt.row(parent_values)  # raises: no row for these parent values
            for value, p in row.entries.items():
                if p > 0.0:
                    append((values + (value,), prob * p))
            if len(children) > room:
                raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")
        level = children
    names, pick, canonical = plan.sorted_names, plan.pick_sorted, World._canonical
    return {canonical(names, pick(values)): prob for values, prob in level}


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
    _plan_of(m).require_roots(r_star)
    return DistTable(_positive_worlds(m, r_star, cap, _observed_rows(m, v)))


def counterfactual_case_prob(m: NondetModel, v: World, r_star: World, v_star: World) -> float:
    """Single-world counterfactual probability via the four-case closed form.

    Cases, in order: the clamped roots must hold in the candidate world; a
    non-root whose parents all keep their actual values must keep its actual
    value; if no non-root sees changed parents the candidate gets the whole
    mass; otherwise the prior table entries of the changed-parent variables
    multiply.
    """
    shape = _plan_of(m)
    shape.require_total(v)
    shape.require_total(v_star)
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
    shape = _plan_of(m)
    shape.require_total(v)
    shape.require_roots(r_star)
    r = v.restrict(shape.roots)
    if joint_prob(m, v, r) <= 0.0:
        raise ModelError("impossible evidence: observed world has zero probability")
    entries: dict[World, float] = {}
    for w in assignments([shape.var(n) for n in shape.non_roots], r_star, cap):
        p = counterfactual_case_prob(m, v, r_star, w)
        if p > 0.0:
            entries[w] = p
    return DistTable(entries)


def check_simple_semantics(m: NondetModel, cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    """Exhaustively test whether counterfactuals collapse to resampling.

    For every positive-probability total world ``v`` and every root
    assignment differing from the actual one, compares the counterfactual
    distribution against the plain conditional distribution at the
    alternative roots. Returns the first counterexample when they differ;
    ``instances`` counts the (v, r*) pairs compared.
    """
    max_dev = 0.0
    checked = 0
    root_worlds = _plan_of(m).root_worlds()
    priors = {r: DistTable(_positive_worlds(m, r, cap)) for r in root_worlds}
    for r in root_worlds:
        for v, _ in priors[r].items():
            for r_star in root_worlds:
                if r_star == r:
                    continue
                cf = counterfactual_dist(m, v, r_star, cap)
                prior = priors[r_star]
                # a fixed order, so the reported counterexample does not
                # depend on how World keys hash
                outcomes = [*cf.entries, *(w for w in prior.entries if w not in cf.entries)]
                checked += 1
                for w in outcomes:
                    dev = abs(cf.prob(w) - prior.prob(w))
                    max_dev = max(max_dev, dev)
                    if dev > CLAIM_TOL:
                        return VerificationReport(
                            "simple-semantics",
                            checked,
                            max_dev,
                            CLAIM_TOL,
                            False,
                            {
                                "v": v.as_dict(),
                                "r_star": r_star.as_dict(),
                                "v_star": w.as_dict(),
                                "counterfactual": cf.prob(w),
                                "resampled": prior.prob(w),
                            },
                        )
    return VerificationReport("simple-semantics", checked, max_dev, CLAIM_TOL, True)


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
    return read_json(text, _model_from_payload)


def _model_from_payload(payload: dict) -> NondetModel:
    vars_ = tuple(VarSpec(v["name"], _domain_from_json(v)) for v in payload["vars"])
    # each value by its ``str``: the text row keys use
    texts = {v.name: {str(d): d for d in v.domain} for v in vars_}
    graph = CausalGraph.of([v.name for v in vars_], [(a, b) for a, b in payload["edges"]])
    domains = {v.name: v.domain for v in vars_}
    cpts: dict[str, Cpt] = {}
    for child, block in payload.get("cpts", {}).items():
        parents = tuple(block["parents"])
        owner = f"{child}: "
        rows: dict[tuple, DistTable] = {}
        for key, probs in block["rows"].items():
            values = _key_values(key, parents, texts, owner)
            if child not in domains:
                raise ModelError(f"table for unknown variable {child!r}")
            rows[values] = prob_row(domains[child], probs, key, owner)
        cpts[child] = Cpt(child, parents, rows)
    return NondetModel(vars_, graph, cpts)


def _domain_from_json(v: dict) -> tuple:
    domain = v["domain"]
    if type(domain) is not list or not all(type(d) in (str, int, float) for d in domain):
        raise ModelError(
            f"bad model JSON structure: variable {v['name']!r}: "
            "domain must be a list of strings or numbers"
        )
    # row keys join values with commas, so each value needs its own
    # comma-free text; exact repeats are left for ``validate_model`` to report
    distinct = set(domain)
    texts = {str(d) for d in distinct}
    if len(texts) != len(distinct) or any("," in t for t in texts):
        raise ModelError(
            f"bad model JSON structure: variable {v['name']!r}: "
            "domain values must have distinct text with no comma"
        )
    return tuple(domain)


def _key_values(key: str, names: tuple[str, ...], texts: Mapping, owner: str) -> tuple:
    """The values row ``key`` names, one comma-joined part per variable of
    ``names``; a part that is no value's text stays text, for validation."""
    parts = key.split(",") if key else ()
    if len(parts) != len(names):
        raise ModelError(f"{owner}row key {key!r} does not match variables {list(names)!r}")
    return tuple([texts.get(n, {}).get(t, t) for n, t in zip(names, parts)])
