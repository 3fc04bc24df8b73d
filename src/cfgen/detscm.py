"""Deterministic (noise-driven) causal models and single-step exogenization.

Here every endogenous variable is a deterministic function of exogenous
noise plus the root assignment; all randomness lives in the noise prior.
Counterfactuals condition the noise on the observed world and push the
posterior through the function at the alternative roots.

The module also hosts the canonical binary bridge model (a two-valued
cause, a two-valued effect, and a four-type response noise), closed-form
identification bounds over its admissible noise priors, and the
"pull the probability out" constructions that rewrite a next-token
distribution as a deterministic response to fresh noise (canonical
response types, inverse-transform intervals, or max-perturbation noise).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from .dist import DistTable
from .errors import EnumerationCapError, InputError, ModelError
from .nondet import CausalGraph, Cpt, NondetModel, VarSpec, World


@dataclass(frozen=True)
class DetSCM:
    """Finite deterministic causal model.

    ``responses[u][r]`` is the total endogenous world produced by noise
    ``u`` and root assignment ``r``; it must extend ``r`` (the function is
    the identity on roots). ``p_u`` is the noise prior; zero weights are
    accepted but flagged as boundary choices.
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
        endo_names = frozenset(v.name for v in self.endo)
        exo_names = frozenset(v.name for v in self.exo)
        root_names = frozenset(self.roots)
        noise_worlds = set(self.noise_worlds())
        if set(self.p_u.entries) != noise_worlds:
            raise ModelError("noise prior does not cover exactly the noise domain")
        if set(self.responses) != noise_worlds:
            raise ModelError("responses do not cover exactly the noise domain")
        expected_roots = set(self.root_worlds())
        for u, per_root in self.responses.items():
            if u.names != exo_names:
                raise ModelError(f"noise world over wrong variables: {u!r}")
            if set(per_root) != expected_roots:
                raise ModelError("responses missing some root assignment")
            for r, v in per_root.items():
                if r.names != root_names:
                    raise ModelError(f"root world over wrong variables: {r!r}")
                if v.names != endo_names:
                    raise ModelError(f"response not total: {v!r}")
                if not v.extends(r):
                    raise ModelError("response does not restrict to the identity on roots")

    @property
    def roots(self) -> tuple[str, ...]:
        root_set = self.graph.roots
        return tuple(v.name for v in self.endo if v.name in root_set)

    @property
    def non_roots(self) -> tuple[str, ...]:
        root_set = self.graph.roots
        return tuple(v.name for v in self.endo if v.name not in root_set)

    def var(self, name: str) -> VarSpec:
        for v in self.endo:
            if v.name == name:
                return v
        raise ModelError(f"unknown endogenous variable {name!r}")

    def noise_worlds(self) -> list[World]:
        combos = itertools.product(*(v.domain for v in self.exo))
        names = [v.name for v in self.exo]
        return [World.of(dict(zip(names, c))) for c in combos]

    def root_worlds(self) -> list[World]:
        root_vars = [self.var(n) for n in self.roots]
        combos = itertools.product(*(v.domain for v in root_vars))
        return [World.of(dict(zip(self.roots, c))) for c in combos]

    def apply(self, u: World, r: World) -> World:
        try:
            return self.responses[u][r]
        except KeyError:
            raise InputError(f"no response recorded for u={u!r}, r={r!r}") from None

    @property
    def has_boundary_weights(self) -> bool:
        """True when some noise value has zero prior weight (positivity violated)."""
        return any(p == 0.0 for _, p in self.p_u.items())

    def positivity_note(self) -> str:
        return "boundary (non-positive)" if self.has_boundary_weights else "positive"


def det_conditional(m: DetSCM, v: World, r: World | None = None) -> float:
    """Probability of observing total world ``v`` given its root values."""
    if r is None:
        r = v.restrict(m.roots)
    if not v.extends(r):
        raise InputError("world is inconsistent with the given root assignment")
    return sum(p for u, p in m.p_u.items() if m.apply(u, r) == v)


def det_counterfactual(m: DetSCM, v: World, r_star: World) -> DistTable:
    """Noise posterior given ``v``, pushed through the function at ``r_star``."""
    r = v.restrict(m.roots)
    posterior: dict[World, float] = {}
    z = 0.0
    for u, p in m.p_u.items():
        if m.apply(u, r) == v:
            posterior[u] = p
            z += p
    if z <= 0.0:
        raise ModelError("impossible evidence: observed world has zero probability")
    entries: dict[World, float] = {}
    for u, p in posterior.items():
        w = m.apply(u, r_star)
        entries[w] = entries.get(w, 0.0) + p / z
    return DistTable(entries)


def det_counterfactual_given_u(m: DetSCM, u: World, r_star: World) -> World:
    """With the noise pinned, the counterfactual world is unique."""
    return m.apply(u, r_star)


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

    @property
    def is_boundary(self) -> bool:
        return any(w == 0.0 for w in self.u_weights)

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
    den = sum(scm.u_weights[i] for i in consistent)
    num = sum(
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


@dataclass(frozen=True)
class ExoFragment:
    """One autoregressive step rewritten as noise plus a deterministic response.

    ``respond(u, ctx)`` maps a noise value and a context to the produced
    token. For the inverse-transform method the noise domain is a finite
    partition of [0, 1); for the canonical method it is the set of response
    functions (one token choice per context); for the max-perturbation
    (Gumbel) method the noise is a vector of reals and ``p_u`` is None.
    """

    method: str
    contexts: tuple[Hashable, ...]
    u_domain: tuple[Hashable, ...] | None
    p_u: DistTable | None
    _respond: Callable[[Hashable, Hashable], Hashable]

    def respond(self, u: Hashable, ctx: Hashable) -> Hashable:
        return self._respond(u, ctx)

    def reconstruct(self, ctx: Hashable) -> DistTable:
        """Marginal of the response under the noise prior, for one context."""
        if self.u_domain is None or self.p_u is None:
            raise InputError("continuous noise: no finite reconstruction available")
        acc: dict[Hashable, float] = {}
        for u in self.u_domain:
            t = self.respond(u, ctx)
            acc[t] = acc.get(t, 0.0) + self.p_u.prob(u)
        return DistTable(acc)


def exogenize(
    steps: Mapping[Hashable, DistTable],
    order: Sequence[Hashable],
    method: str,
    max_atoms: int = 100_000,
) -> ExoFragment:
    """Pull the probability out of a conditional step into fresh noise.

    ``steps`` maps each context to its (normalized) outcome distribution
    over ``order``; the fixed ordering drives inverse-transform sampling.
    For the finite methods the per-context marginal of the returned
    fragment is checked against the input to 1e-9 on construction.
    """
    if not steps:
        raise InputError("need at least one context")
    contexts = tuple(steps)
    for ctx, d in steps.items():
        if abs(d.total - 1.0) > 1e-9:
            raise InputError(f"step at context {ctx!r} is not normalized")
        if not set(d.entries) <= set(order):
            raise InputError(f"step at context {ctx!r} has outcomes outside the ordering")

    if method == "inverse_transform":
        fragment = _exogenize_its(steps, order, contexts)
    elif method == "canonical":
        fragment = _exogenize_canonical(steps, order, contexts, max_atoms)
    elif method == "gumbel":
        fragment = _exogenize_gumbel(steps, order, contexts)
        return fragment  # marginal is the analytic argmax law, equal to the input
    else:
        raise InputError(f"unknown exogenization method {method!r}")

    for ctx, d in steps.items():
        rebuilt = fragment.reconstruct(ctx)
        for t in order:
            if abs(rebuilt.prob(t) - d.prob(t)) > 1e-9:
                raise ModelError(
                    f"exogenization unsound at context {ctx!r}, outcome {t!r}: "
                    f"{rebuilt.prob(t)!r} != {d.prob(t)!r}"
                )
    return fragment


def _exogenize_its(
    steps: Mapping[Hashable, DistTable],
    order: Sequence[Hashable],
    contexts: tuple[Hashable, ...],
) -> ExoFragment:
    breakpoints = {0.0, 1.0}
    for d in steps.values():
        acc = 0.0
        for t in order:
            acc += d.prob(t)
            if 0.0 < acc < 1.0:
                breakpoints.add(acc)
    cuts = sorted(breakpoints)
    atoms = tuple(
        Interval(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo
    )
    p_u = DistTable({a: a.length for a in atoms}, unnormalized=False)

    prefix: dict[Hashable, list[float]] = {}
    for ctx, d in steps.items():
        acc, sums = 0.0, []
        for t in order:
            acc += d.prob(t)
            sums.append(acc)
        prefix[ctx] = sums

    def respond(u: Hashable, ctx: Hashable) -> Hashable:
        if not isinstance(u, Interval):
            raise InputError("inverse-transform noise values are intervals")
        sums = prefix[ctx]
        for i, s in enumerate(sums):
            if s > u.lo:
                return order[i]
        return order[len(order) - 1]

    return ExoFragment("inverse_transform", contexts, atoms, p_u, respond)


def _exogenize_canonical(
    steps: Mapping[Hashable, DistTable],
    order: Sequence[Hashable],
    contexts: tuple[Hashable, ...],
    max_atoms: int,
) -> ExoFragment:
    # Response functions: one outcome per context, weighted independently
    # across contexts. Any coupling with the same per-context marginals
    # would serve; independence is the constructive default.
    if len(order) ** len(contexts) > max_atoms:
        raise EnumerationCapError(
            f"canonical response table would exceed {max_atoms} atoms"
        )
    atoms = tuple(itertools.product(order, repeat=len(contexts)))
    ctx_index = {ctx: i for i, ctx in enumerate(contexts)}
    weights: dict[Hashable, float] = {}
    for atom in atoms:
        w = 1.0
        for ctx, t in zip(contexts, atom):
            w *= steps[ctx].prob(t)
        weights[atom] = w
    p_u = DistTable(weights)

    def respond(u: Hashable, ctx: Hashable) -> Hashable:
        return u[ctx_index[ctx]]

    return ExoFragment("canonical", contexts, atoms, p_u, respond)


def _exogenize_gumbel(
    steps: Mapping[Hashable, DistTable],
    order: Sequence[Hashable],
    contexts: tuple[Hashable, ...],
) -> ExoFragment:
    logits = {
        ctx: [math.log(d.prob(t)) if d.prob(t) > 0.0 else -math.inf for t in order]
        for ctx, d in steps.items()
    }

    def respond(u: Hashable, ctx: Hashable) -> Hashable:
        noise = list(u)
        if len(noise) != len(order):
            raise InputError("noise vector length must match the outcome ordering")
        scores = [g + noise[i] for i, g in enumerate(logits[ctx])]
        best = max(range(len(order)), key=lambda i: (scores[i], -i))
        return order[best]

    return ExoFragment("gumbel", contexts, None, None, respond)


# --- JSON interchange -------------------------------------------------------
#
# Shares the spirit of the chance-model format, plus noise blocks:
# {"endo": [...], "exo": [...], "edges": [...],
#  "p_u": {"<comma-joined u values>": prob},
#  "responses": {"<u values>": {"<root values>": {"X": "1", "Y": "0"}}}}
# Value tuples are comma-joined in declaration order.


def detscm_to_json(m: DetSCM) -> str:
    import json

    exo_names = [v.name for v in m.exo]
    roots = m.roots

    def ukey(u: World) -> str:
        return ",".join(str(x) for x in u.values_at(exo_names))

    def rkey(r: World) -> str:
        return ",".join(str(x) for x in r.values_at(roots))

    payload = {
        "endo": [{"name": v.name, "domain": list(v.domain)} for v in m.endo],
        "exo": [{"name": v.name, "domain": list(v.domain)} for v in m.exo],
        "edges": sorted([a, b] for a, b in m.graph.edges),
        "p_u": {ukey(u): p for u, p in m.p_u.sorted_items()},
        "responses": {
            ukey(u): {rkey(r): {k: v for k, v in w.items} for r, w in sorted(
                per_root.items(), key=lambda kv: repr(kv[0]))}
            for u, per_root in sorted(m.responses.items(), key=lambda kv: repr(kv[0]))
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def detscm_from_json(text: str) -> DetSCM:
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"bad model JSON: {e}") from e
    try:
        endo = tuple(VarSpec(v["name"], tuple(v["domain"])) for v in payload["endo"])
        exo = tuple(VarSpec(v["name"], tuple(v["domain"])) for v in payload["exo"])
        graph = CausalGraph.of([v.name for v in endo], [(a, b) for a, b in payload["edges"]])
        exo_names = [v.name for v in exo]
        root_set = graph.roots
        roots = [v.name for v in endo if v.name in root_set]

        def unkey(key: str, names: list[str]) -> World:
            values = tuple(key.split(",")) if key else ()
            if len(values) != len(names):
                raise ModelError(f"key {key!r} does not match variables {names!r}")
            return World.of(dict(zip(names, values)))

        p_u = DistTable({unkey(k, exo_names): p for k, p in payload["p_u"].items()})
        responses = {
            unkey(uk, exo_names): {
                unkey(rk, roots): World.of(dict(w)) for rk, w in per_root.items()
            }
            for uk, per_root in payload["responses"].items()
        }
    except (KeyError, TypeError) as e:
        raise ModelError(f"bad model JSON structure: {e!r}") from e
    return DetSCM(endo, exo, graph, responses, p_u)
