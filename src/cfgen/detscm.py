"""Deterministic (noise-driven) causal models and single-step exogenization.

Here every endogenous variable is a deterministic function of exogenous
noise plus the root assignment; all randomness lives in the noise prior.
Counterfactuals condition the noise on the observed world and push the
posterior through the function at the alternative roots.

The module also hosts the canonical binary bridge model (a two-valued
cause, a two-valued effect, and a four-type response noise), closed-form
identification bounds over its admissible noise priors, the one
``positivity`` reading of a noise prior, and ``exogenize``,
which "pulls the probability out" of a next-token step: it rewrites the
step as a ``DetSCM`` whose noise is the inverse-transform intervals and
whose response is the shared ``draw``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .dist import DistTable, draw, left_sum
from .errors import InputError, ModelError
from .nondet import CausalGraph, Cpt, NondetModel, Shape, VarSpec, World, assignments


@dataclass(frozen=True)
class DetSCM:
    """Finite deterministic causal model.

    ``responses[u][r]`` is the total endogenous world produced by noise
    ``u`` and root assignment ``r``; it must extend ``r`` (the function is
    the identity on roots). ``p_u`` is the noise prior; zero weights are
    accepted (``positivity`` flags them).
    """

    endo: tuple[VarSpec, ...]
    exo: tuple[VarSpec, ...]
    graph: CausalGraph
    responses: Mapping[World, Mapping[World, World]]
    p_u: DistTable

    def __post_init__(self) -> None:
        object.__setattr__(self, "endo", tuple(self.endo))
        object.__setattr__(self, "exo", tuple(self.exo))
        object.__setattr__(
            self, "responses", {u: dict(rs) for u, rs in self.responses.items()}
        )
        if frozenset(v.name for v in self.endo) != frozenset(self.graph.nodes):
            raise ModelError("graph nodes do not match endogenous variables")
        # what every query checks its worlds against
        object.__setattr__(self, "shape", Shape(self.endo, self.graph))
        noise_worlds = set(self.noise_worlds())
        if set(self.p_u.entries) != noise_worlds:
            raise ModelError("noise prior does not cover exactly the noise domain")
        if set(self.responses) != noise_worlds:
            raise ModelError("responses do not cover exactly the noise domain")
        root_worlds = frozenset(self.root_worlds())
        for per_root in self.responses.values():
            if set(per_root) != root_worlds:
                raise ModelError("responses missing some root assignment")
            for r, v in per_root.items():
                if v.names != self.shape.names:
                    raise ModelError(f"response not total: {v!r}")
                if not v.extends(r):
                    raise ModelError("response does not restrict to the identity on roots")
        object.__setattr__(self, "_root_worlds", root_worlds)

    @property
    def roots(self) -> tuple[str, ...]:
        return self.shape.roots

    @property
    def non_roots(self) -> tuple[str, ...]:
        return self.shape.non_roots

    def noise_worlds(self) -> list[World]:
        return list(assignments(self.exo))

    def root_worlds(self) -> list[World]:
        return self.shape.root_worlds()

    def apply(self, u: World, r: World) -> World:
        try:
            return self.responses[u][r]
        except KeyError:
            raise InputError(f"no response recorded for u={u!r}, r={r!r}") from None


def det_conditional(m: DetSCM, v: World, r: World | None = None) -> float:
    """Probability of observing total world ``v`` given its root values,
    with the input checks of ``joint_prob``."""
    m.shape.require_total(v)
    if r is None:
        r = v.restrict(m.roots)
    _require_roots(m, r)
    if not v.extends(r):
        raise InputError("world is inconsistent with the given root assignment")
    return left_sum(p for u, p in m.p_u.items() if m.apply(u, r) == v)


def det_counterfactual(m: DetSCM, v: World, r_star: World) -> DistTable:
    """Noise posterior given ``v``, pushed through the function at ``r_star``;
    ``v`` must be a total world and ``r_star`` assign exactly the roots."""
    m.shape.require_total(v)
    r = v.restrict(m.roots)
    _require_roots(m, r)
    _require_roots(m, r_star)
    posterior = {u: p for u, p in m.p_u.items() if m.apply(u, r) == v}
    z = left_sum(posterior.values())
    if z <= 0.0:
        raise ModelError("impossible evidence: observed world has zero probability")
    entries: dict[World, float] = {}
    for u, p in posterior.items():
        w = m.apply(u, r_star)
        entries[w] = entries.get(w, 0.0) + p / z
    return DistTable(entries)


def _require_roots(m: DetSCM, r: World) -> None:
    """``Shape.require_roots``, after one set lookup among the root assignments."""
    if r not in m._root_worlds:
        m.shape.require_roots(r)


def to_nondet_when_u_irrelevant(m: DetSCM) -> NondetModel:
    """Rewrite a noise-independent deterministic model as a chance model.

    Requires the response function to ignore the noise (checked by full
    enumeration). The result wires every root into every non-root and gives
    each non-root a point-mass table projecting the shared response.
    """
    noise = m.noise_worlds()
    root_worlds = m.root_worlds()
    u0 = noise[0]
    for r in root_worlds:
        expected = m.apply(u0, r)
        for u in noise[1:]:
            if m.apply(u, r) != expected:
                raise InputError("f depends on U: responses differ across noise values")
    roots = m.roots
    non_roots = m.non_roots
    edges = {(r, y) for r in roots for y in non_roots}
    cpts: dict[str, Cpt] = {}
    for y in non_roots:
        rows: dict[tuple, DistTable] = {}
        for r in root_worlds:
            key = r.values_at(roots)
            rows[key] = DistTable.point(m.apply(u0, r)[y])
        cpts[y] = Cpt(y, roots, rows)
    graph = CausalGraph.of([v.name for v in m.endo], edges)
    return NondetModel(m.endo, graph, cpts)


# --- canonical binary model -------------------------------------------------

# Four response types for a binary cause X and binary effect Y:
# type 0 copies X, type 1 negates X, types 2 and 3 pin Y to 0 and 1.
_RESPONSES: tuple[Callable[[int], int], ...] = (
    lambda x: x,
    lambda x: 1 - x,
    lambda x: 0,
    lambda x: 1,
)


@dataclass(frozen=True)
class CanonicalBinarySCM:
    """Binary cause/effect model with the four-type response noise.

    ``u_weights = (a, b, c, d)`` weight the types (copy, negate, always-0,
    always-1) and must satisfy a + d = p and b + d = q, where
    p = P(Y=1 | X=1) and q = P(Y=1 | X=0), with 0 < p < q < 1.
    """

    p: float
    q: float
    u_weights: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "u_weights", tuple(self.u_weights))
        _require_pq(self.p, self.q)
        a, b, c, d = self.u_weights
        if min(a, b, c, d) < -1e-12:
            raise InputError("noise weights must be nonnegative")
        if not abs(a + b + c + d - 1.0) <= 1e-9:  # NaN-safe
            raise InputError("noise weights must sum to 1")
        if not (abs((a + d) - self.p) <= 1e-9 and abs((b + d) - self.q) <= 1e-9):
            raise InputError("weights do not reproduce the observed conditionals")

    @classmethod
    def from_free_weight(cls, p: float, q: float, d: float) -> "CanonicalBinarySCM":
        """The admissible family is one-dimensional; ``d`` parameterizes it."""
        _require_pq(p, q)
        lo, hi = max(0.0, p + q - 1.0), p
        if not (lo - 1e-12 <= d <= hi + 1e-12):
            raise InputError(f"free weight {d} outside feasible range [{lo}, {hi}]")
        return cls(p, q, (p - d, q - d, 1.0 - p - q + d, d))

    def to_detscm(self) -> DetSCM:
        x = VarSpec("X", (0, 1))
        y = VarSpec("Y", (0, 1))
        u = VarSpec("U", (0, 1, 2, 3))
        graph = CausalGraph.of(["X", "Y"], [("X", "Y")])
        responses = {
            World.of({"U": i}): {
                World.of({"X": xv}): World.of({"X": xv, "Y": _RESPONSES[i](xv)})
                for xv in (0, 1)
            }
            for i in range(4)
        }
        p_u = DistTable({World.of({"U": i}): self.u_weights[i] for i in range(4)})
        return DetSCM((x, y), (u,), graph, responses, p_u)


def _require_pq(p: float, q: float) -> None:
    if not (0.0 < p < q < 1.0):
        raise InputError(f"require 0 < p < q < 1, got p={p}, q={q}")


def positivity(weights: Iterable[float]) -> str:
    """How a noise prior with these weights stands on positivity: a zero
    weight puts it on the boundary of the admissible priors."""
    return "boundary (non-positive)" if any(w == 0.0 for w in weights) else "positive"


@dataclass(frozen=True)
class BinaryCfQuery:
    """Single-step counterfactual event: Y*=y_star given Y=y, X=x, X*=x_star."""

    y_star: int
    y: int
    x: int
    x_star: int

    def __post_init__(self) -> None:
        for field in (self.y_star, self.y, self.x, self.x_star):
            if field not in (0, 1):
                raise InputError("query values must be binary")
        if self.x_star == self.x:
            raise InputError("query must flip the cause (x_star != x)")

    @classmethod
    def parse(cls, text: str) -> "BinaryCfQuery":
        """Parse the CLI form ``Y*=0|Y=1,X=1,X*=0`` (whitespace tolerated)."""
        compact = text.replace(" ", "")
        try:
            lhs, rhs = compact.split("|")
            assignments = {"Y*": None, "Y": None, "X": None, "X*": None}
            for part in [lhs] + rhs.split(","):
                key, val = part.split("=")
                if key not in assignments or assignments[key] is not None:
                    raise ValueError(part)
                assignments[key] = int(val)
            if any(v is None for v in assignments.values()):
                raise ValueError("missing assignment")
            return cls(assignments["Y*"], assignments["Y"], assignments["X"], assignments["X*"])
        except (ValueError, TypeError) as e:
            raise InputError(f"cannot parse query {text!r}: expected Y*=.|Y=.,X=.,X*=.") from e


@dataclass(frozen=True)
class BoundsResult:
    lo: float
    hi: float
    arg_lo: tuple[float, float, float, float]
    arg_hi: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.lo <= self.hi <= 1.0 + 1e-12):
            raise ModelError(f"invalid bounds [{self.lo}, {self.hi}]")
        # rounding slack inside the tolerance is not part of the answer
        object.__setattr__(self, "lo", min(max(self.lo, 0.0), 1.0))
        object.__setattr__(self, "hi", min(max(self.hi, 0.0), 1.0))

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "arg_lo": list(self.arg_lo),
            "arg_hi": list(self.arg_hi),
        }


def _query_value(scm: CanonicalBinarySCM, query: BinaryCfQuery) -> float:
    consistent = [i for i in range(4) if _RESPONSES[i](query.x) == query.y]
    den = left_sum(scm.u_weights[i] for i in consistent)
    num = left_sum(
        scm.u_weights[i] for i in consistent if _RESPONSES[i](query.x_star) == query.y_star
    )
    if den <= 0.0:
        raise ModelError("query conditions on a zero-probability observation")
    return num / den


def counterfactual_bounds_binary(p: float, q: float, query: BinaryCfQuery) -> BoundsResult:
    """Identification interval for a single-step counterfactual event.

    The admissible noise priors form a segment (parameterized by the weight
    of the always-1 type) and the query value is a ratio of affine functions
    of that weight with constant denominator, so the extremes sit at the two
    segment endpoints. No solver needed.
    """
    _require_pq(p, q)
    d_lo = max(0.0, p + q - 1.0)
    d_hi = p
    candidates = []
    for d in (d_lo, d_hi):
        scm = CanonicalBinarySCM.from_free_weight(p, q, d)
        candidates.append((_query_value(scm, query), scm.u_weights))
    candidates.sort(key=lambda vw: vw[0])
    (lo, arg_lo), (hi, arg_hi) = candidates[0], candidates[-1]
    return BoundsResult(lo, hi, arg_lo, arg_hi)


def simple_binary_answer(p: float, q: float, query: BinaryCfQuery) -> float:
    """The resampling (chance-model) answer: the conditional at the flipped cause."""
    _require_pq(p, q)
    p_y1 = p if query.x_star == 1 else q
    return p_y1 if query.y_star == 1 else 1.0 - p_y1


# --- single-step exogenization ----------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Half-open subinterval of [0, 1); endpoints are exact prefix sums."""

    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


def exogenize(steps: Mapping[Hashable, DistTable], order: Sequence[Hashable]) -> DetSCM:
    """Pull the probability out of a conditional step into fresh noise.

    ``steps`` maps each context to its (normalized) outcome distribution
    over ``order``, whose fixed ordering drives inverse-transform sampling.
    The result is a deterministic model with root ``C`` (the context),
    effect ``T`` (the outcome) and noise ``U``, which ranges over the
    intervals between the running sums the one inverse-CDF ``draw``
    crosses, each weighted by its length and responding through ``draw``.
    Its marginal at every context is checked against the input to 1e-9 on
    construction.
    """
    if not steps:
        raise InputError("need at least one context")
    for ctx, d in steps.items():
        if abs(d.total - 1.0) > 1e-9:
            raise InputError(f"step at context {ctx!r} is not normalized")
        if not set(d.entries) <= set(order):
            raise InputError(f"step at context {ctx!r} has outcomes outside the ordering")

    # The breakpoints are the running sums ``draw`` crosses, so every atom
    # lies inside one outcome's window at every context.
    breakpoints = {0.0, 1.0}
    rows: dict[Hashable, list[float]] = {}
    for ctx, d in steps.items():
        rows[ctx] = row = [d.prob(t) for t in order]
        acc = 0.0
        for p in row:
            if p > 0.0:
                acc += p
                if acc < 1.0:
                    breakpoints.add(acc)
    cuts = sorted(breakpoints)
    atoms = tuple(Interval(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo)
    responses = {
        World.of({"U": a}): {
            World.of({"C": ctx}): World.of({"C": ctx, "T": order[draw(row, a.lo)]})
            for ctx, row in rows.items()
        }
        for a in atoms
    }
    p_u = DistTable({World.of({"U": a}): a.length for a in atoms})
    endo = (VarSpec("C", tuple(steps)), VarSpec("T", tuple(order)))
    graph = CausalGraph.of(["C", "T"], [("C", "T")])
    m = DetSCM(endo, (VarSpec("U", atoms),), graph, responses, p_u)

    for ctx, d in steps.items():
        for t in order:
            rebuilt = det_conditional(m, World.of({"C": ctx, "T": t}))
            if abs(rebuilt - d.prob(t)) > 1e-9:
                raise ModelError(
                    f"exogenization unsound at context {ctx!r}, outcome {t!r}: "
                    f"{rebuilt!r} != {d.prob(t)!r}"
                )
    return m
