"""Counterfactual generators for toy token models.

Four ways to answer "what might the output have been under prompt x*,
having observed (x, y)":

* simple: rerun the model at x*; the factual pair is ignored. This is the
  resampling semantics that the compiled causal model provably satisfies.
* gumbel: record (or reconstruct in hindsight) per-position max-perturbation
  noise that explains y, then reuse it at x*. Replaying the factual prompt
  reproduces y exactly; flipped prompts are biased toward staying close.
* its: same reuse pattern with inverse-transform noise, one uniform per
  position consumed in the fixed vocabulary order.
* stable: the exact distribution of the closeness-biased semantics, built
  position by position. A token is excluded at a position when the observed
  token gained at least as much relative probability as it did.

Noise is indexed by position and reused across contexts, so counterfactual
prompts must have the factual prompt's length. All samplers are pure
functions of (model, inputs, params, seed).
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Sequence

from .dist import DistTable, argmax, draw, left_sum
from .errors import InputError, ModelError, read_json
from .nondet import DEFAULT_ENUM_CAP
from .seeding import make_rng
from .tokenlm import SamplingParams, TokenSeq, ToyLM, forward, prompt_ids, sample_output
from .tokenlm import seq_dist, walk_law

# ``random()`` returns multiples of 2**-53 below 1, so its largest value
# 1 - 2**-53 already keeps -log(-log(u)) finite; only u = 0.0 needs a floor
_UNIFORM_FLOOR = 1e-300
_NEG_INF = -math.inf


@dataclass(frozen=True)
class CfQuery:
    """Factual prompt and output plus the counterfactual prompt."""

    x: TokenSeq
    y: TokenSeq
    x_star: TokenSeq

    def __post_init__(self) -> None:
        if not self.y.extends(self.x):
            raise InputError("factual output must extend the factual prompt")


@dataclass(frozen=True)
class NoiseRecord:
    """Per-position exogenous noise: one Gumbel vector or one uniform each.

    ``kind`` is "gumbel" (entries are length-|V| tuples) or "uniform"
    (entries are floats in [0, 1)). One entry per position 1..k, prompt
    positions included for uniformity even though nothing consumes them.
    Entries are stored as given: the constructors in this module build
    tuples and floats, and ``trace_from_json`` converts what it loads.
    """

    kind: str
    entries: tuple

    def __post_init__(self) -> None:
        if self.kind not in ("gumbel", "uniform"):
            raise InputError(f"unknown noise kind {self.kind!r}")


@dataclass(frozen=True)
class FactualTrace:
    """A factual run: prompt, output, recorded noise, and the params used.

    Invariant (enforced by the constructors in this module): replaying the
    noise on the factual prompt regenerates the output exactly.
    """

    x: TokenSeq
    y: TokenSeq
    noise: NoiseRecord
    params: SamplingParams


@dataclass(frozen=True)
class PositionCheck:
    position: int
    factual_token: str
    chosen_token: str
    excluded: tuple[str, ...]
    violation: bool


@dataclass(frozen=True)
class StabilityReport:
    """Per-position exclusion sets and violation flags for one candidate output."""

    positions: tuple[PositionCheck, ...]
    violations: int
    checked: int

    def to_dict(self) -> dict:
        return {
            "violations": self.violations,
            "checked": self.checked,
            "positions": [
                {
                    "position": c.position,
                    "factual_token": c.factual_token,
                    "chosen_token": c.chosen_token,
                    "excluded": list(c.excluded),
                    "violation": c.violation,
                }
                for c in self.positions
            ],
        }


# --- simple ------------------------------------------------------------------


def simple_cf_sample(lm: ToyLM, q: CfQuery, params: SamplingParams, seed: int) -> TokenSeq:
    """One draw from the resampling semantics: run the model again at x*."""
    return sample_output(lm, q.x_star, params, seed)


def simple_cf_dist(
    lm: ToyLM, q: CfQuery, params: SamplingParams, cap: int = DEFAULT_ENUM_CAP
) -> DistTable:
    """Exact resampling distribution: the sequence law at the new prompt."""
    return seq_dist(lm, q.x_star, params, cap)


# --- shared helpers -----------------------------------------------------------


def _require_aligned(lm: ToyLM, x: TokenSeq, x_star: TokenSeq) -> int:
    l = len(prompt_ids(lm, x))
    if x_star.effective_len != l:
        raise InputError(
            f"length mismatch: counterfactual prompt has {x_star.effective_len} tokens, "
            f"factual prompt has {l}"
        )
    return l


def _zero_probability(lm: ToyLM, pos: int, token_id: int) -> ModelError:
    return ModelError(
        f"observed output has zero probability at position {pos} "
        f"(token {lm.vocab.tokens[token_id]!r})"
    )


# --- noise reuse: gumbel and inverse transform ---------------------------------
#
# The two methods share three routines and differ only in their noise kind:
# how one position's noise is drawn fresh, how it is drawn given the token
# observed there, and how a token is picked given its noise. Gumbel noise
# works on the step law's ``logs`` view of a row, uniforms on the row.


def _fresh_gumbel(rng: random.Random, size: int) -> tuple[float, ...]:
    r, log = rng.random, math.log
    return tuple([-log(-log(r() or _UNIFORM_FLOOR)) for _ in range(size)])


def _fresh_uniform(rng: random.Random, size: int) -> float:
    return rng.random()


def _gumbel_given(
    view: tuple[Sequence[float], float], obs: int, rng: random.Random
) -> tuple[float, ...] | None:
    """A Gumbel vector conditioned on ``obs`` winning the perturbed argmax:
    the winner's perturbed value is the overall max, every other
    positive-probability token is truncated below it, and zero-probability
    tokens are unconstrained. ``view`` is ``StepLaw.logs``; None, with no
    draw made, when ``obs`` has zero probability."""
    logs, log_total = view
    if logs[obs] == _NEG_INF:
        return None
    r, log, exp = rng.random, math.log, math.exp
    top = -log(-log(r() or _UNIFORM_FLOOR)) + log_total
    noise = []
    for i, lp in enumerate(logs):
        if i == obs:
            noise.append(top - lp)
        elif lp == _NEG_INF:
            noise.append(-log(-log(r() or _UNIFORM_FLOOR)))
        else:
            # Gumbel(log p) truncated below `top`, then shifted back to noise
            perturbed = lp - log(exp(lp - top) - log(r() or _UNIFORM_FLOOR))
            if perturbed >= top:
                perturbed = top - 1e-12
            noise.append(perturbed - lp)
    return tuple(noise)


def _uniform_given(probs: Sequence[float], obs: int, rng: random.Random) -> float | None:
    """A uniform conditioned into the cumulative window of ``obs``
    (vocabulary order, positive entries), which is exactly its posterior;
    None, with no draw made, when ``obs`` has zero probability."""
    width = probs[obs]
    if width <= 0.0:
        return None
    lo = 0.0  # the running sum ``draw`` crosses, up to ``obs``
    for p in probs[:obs]:
        if p > 0.0:
            lo += p
    u = lo + rng.random() * width
    if u >= lo + width:  # float round-up would spill into the next token
        u = math.nextafter(lo + width, lo)
    return u


def _argmax_logs(view: tuple[Sequence[float], float], gumbels: Sequence[float]) -> int:
    return argmax(view[0], gumbels)


# noise kind -> (fresh noise, noise given the observed token, pick, step-law view)
_NOISE = {
    "gumbel": (_fresh_gumbel, _gumbel_given, _argmax_logs, "logs"),
    "uniform": (_fresh_uniform, _uniform_given, draw, "row"),
}


def _factual_run(
    lm: ToyLM, x: TokenSeq, params: SamplingParams, seed: int, kind: str
) -> tuple[TokenSeq, FactualTrace]:
    fresh, _, pick, view = _NOISE[kind]
    rng = make_rng(seed)
    ctx = prompt_ids(lm, x)
    # every position draws noise, prompt and post-EMPTY positions included;
    # no draw depends on a pick, so drawing all first keeps the stream order
    entries = tuple(fresh(rng, lm.vocab.size) for _ in range(lm.k))
    y = forward(lm, ctx, params, entries[len(ctx):], pick, view)
    return y, FactualTrace(x.stripped(), y, NoiseRecord(kind, entries), params)


def _posterior_noise(
    lm: ToyLM, x: TokenSeq, y: TokenSeq, params: SamplingParams, seed: int, kind: str
) -> FactualTrace:
    """Hindsight noise: fresh at prompt positions, conditioned on the
    observed token at every later one."""
    fresh, given, _, view = _NOISE[kind]
    rng = make_rng(seed)
    l = len(prompt_ids(lm, x))
    yp = y.padded(lm.k)
    if not yp.extends(x):
        raise InputError("observed output must extend the prompt")
    ids = yp.ids
    at = getattr(lm.step_law(params), view)
    entries = [fresh(rng, lm.vocab.size) for _ in range(l)]
    for pos in range(l + 1, lm.k + 1):
        obs = ids[pos - 1]
        e = given(at(ids[: pos - 1]), obs, rng)
        if e is None:
            raise _zero_probability(lm, pos, obs)
        entries.append(e)
    return FactualTrace(x.stripped(), yp, NoiseRecord(kind, tuple(entries)), params)


def _replay(
    lm: ToyLM, trace: FactualTrace, x_star: TokenSeq, params: SamplingParams | None, kind: str
) -> TokenSeq:
    """Noise is indexed by position, not by context: position i's entry
    picks from the law at whatever counterfactual context has been built by
    then. With params omitted, the factual run's params apply."""
    if trace.noise.kind != kind:
        raise InputError(f"trace does not carry {kind} noise")
    params = trace.params if params is None else params
    l = _require_aligned(lm, trace.x, x_star)
    _, _, pick, view = _NOISE[kind]
    return forward(lm, x_star.ids[:l], params, trace.noise.entries[l : lm.k], pick, view)


def gumbel_factual_run(
    lm: ToyLM, x: TokenSeq, params: SamplingParams, seed: int
) -> tuple[TokenSeq, FactualTrace]:
    """Sample an output by per-position max-perturbation noise and record it.

    Truncated params (top-k, top-p) are accepted, but they void the
    closeness guarantee of the reused noise: a replay can then pick a token
    the factual run excluded. The command line refuses them for gumbel.
    """
    return _factual_run(lm, x, params, seed, "gumbel")


def gumbel_posterior_noise(
    lm: ToyLM, x: TokenSeq, y: TokenSeq, params: SamplingParams, seed: int
) -> FactualTrace:
    """Hindsight Gumbel noise for an externally observed output."""
    return _posterior_noise(lm, x, y, params, seed, "gumbel")


def gumbel_cf_sample(
    lm: ToyLM,
    trace: FactualTrace,
    x_star: TokenSeq,
    params: SamplingParams | None = None,
) -> TokenSeq:
    """Reuse the recorded Gumbel noise at the counterfactual prompt."""
    return _replay(lm, trace, x_star, params, "gumbel")


def its_factual_run(
    lm: ToyLM, x: TokenSeq, params: SamplingParams, seed: int
) -> tuple[TokenSeq, FactualTrace]:
    """Sample an output with one uniform per position and record the uniforms."""
    return _factual_run(lm, x, params, seed, "uniform")


def its_posterior_noise(
    lm: ToyLM, x: TokenSeq, y: TokenSeq, params: SamplingParams, seed: int
) -> FactualTrace:
    """Hindsight uniforms for an externally observed output."""
    return _posterior_noise(lm, x, y, params, seed, "uniform")


def its_cf_sample(
    lm: ToyLM,
    trace: FactualTrace,
    x_star: TokenSeq,
    params: SamplingParams | None = None,
) -> TokenSeq:
    """Reuse the recorded uniforms at the counterfactual prompt."""
    return _replay(lm, trace, x_star, params, "uniform")


# --- counterfactually stable distribution -------------------------------------


def _ratio(p_cf: float, p_factual: float) -> float:
    """Relative probability gain with the boundary conventions.

    Zero counterfactual mass maps to 0 (exclusion is harmless there); fresh
    mass on a factually impossible token maps to +inf (never excluded).
    """
    if p_cf <= 0.0:
        return 0.0
    if p_factual <= 0.0:
        return math.inf
    return p_cf / p_factual


def _barred(factual: Sequence[float], cf: Sequence[float], obs: int) -> set[int]:
    """Indices whose relative gain does not beat the observed index's."""
    r_obs = _ratio(cf[obs], factual[obs])
    return {t for t, pc in enumerate(cf) if t != obs and r_obs >= _ratio(pc, factual[t])}


def _stable_step(
    factual: Sequence[float], cf: Sequence[float], obs: int
) -> list[tuple[int, float]]:
    """The counterfactual row restricted to the unbarred indices, renormalized.

    The kept indices are ``_barred``'s complement, found in the same pass
    that reads the row."""
    r_obs = _ratio(cf[obs], factual[obs])
    kept = [
        (t, p)
        for t, p in enumerate(cf)
        if p > 0.0 and (t == obs or _ratio(p, factual[t]) > r_obs)
    ]
    mass = left_sum(p for _, p in kept)
    # Some mass is always left. ``obs`` is never in its own barred set, so if
    # cf[obs] > 0 it is kept. If not, its ratio is 0, while every index with
    # cf mass has a ratio above 0 (factual entries are at most 1, so
    # p / f >= p > 0) and is kept. Every cf row has positive mass: model rows
    # are normalized, and ``_as_rows`` checks the rows callers pass.
    assert mass > 0.0
    return [(t, p / mass) for t, p in kept]


def _as_rows(
    factual: Sequence[tuple[str, float]], cf: Sequence[tuple[str, float]], factual_token: str
) -> tuple[list[str], list[float], list[float], int]:
    """(token, p) pairs as two rows over cf's tokens and the observed one.

    Probabilities must lie in [0, 1], and the counterfactual row must have
    positive mass: the stable step restricts that mass, so it needs some.
    """
    probs_f, probs_c = dict(factual), dict(cf)
    if not all(0.0 <= p <= 1.0 for p in (*probs_f.values(), *probs_c.values())):
        raise InputError("step probabilities must lie in [0, 1]")
    if not any(p > 0.0 for p in probs_c.values()):
        raise InputError("the counterfactual row has no positive probability")
    tokens = list(dict.fromkeys([*probs_c, factual_token]))
    rows = [[probs.get(t, 0.0) for t in tokens] for probs in (probs_f, probs_c)]
    return tokens, rows[0], rows[1], tokens.index(factual_token)


def excluded_tokens(
    factual: Sequence[tuple[str, float]],
    cf: Sequence[tuple[str, float]],
    factual_token: str,
) -> frozenset[str]:
    """Tokens barred at one position: those whose relative gain does not beat
    the observed token's."""
    tokens, f, c, obs = _as_rows(factual, cf, factual_token)
    return frozenset(tokens[t] for t in _barred(f, c, obs))


def stable_step_dist(
    factual: Sequence[tuple[str, float]],
    cf: Sequence[tuple[str, float]],
    factual_token: str,
) -> DistTable:
    """One position of the closeness-biased semantics: restrict the
    counterfactual law to the non-excluded tokens and renormalize."""
    tokens, f, c, obs = _as_rows(factual, cf, factual_token)
    return DistTable({tokens[t]: p for t, p in _stable_step(f, c, obs)})


def stable_cf_dist(
    lm: ToyLM,
    q: CfQuery,
    params: SamplingParams,
    cap: int = DEFAULT_ENUM_CAP,
) -> DistTable:
    """Exact closeness-biased counterfactual distribution over padded outputs.

    Chains the one-position step over positions: the factual side of each
    ratio is pinned to the observed output's prefix, while the
    counterfactual prefix is built recursively along each branch. The
    output always extends x*; with x* = x it collapses to a point mass on y.
    """
    l = _require_aligned(lm, q.x, q.x_star)
    y = q.y.padded(lm.k).ids
    row = lm.step_law(params).row
    factual = [row(y[:i]) for i in range(lm.k)]
    for pos in range(l + 1, lm.k + 1):
        if factual[pos - 1][y[pos - 1]] <= 0.0:
            raise _zero_probability(lm, pos, y[pos - 1])
    return walk_law(
        lm, q.x_star.ids[:l], params, lambda i, cf: _stable_step(factual[i], cf, y[i]), cap
    )


def stability_check(
    lm: ToyLM,
    q: CfQuery,
    y_star: TokenSeq,
    params: SamplingParams,
) -> StabilityReport:
    """Flag, per generated position, whether the candidate output picked a
    token the closeness-biased semantics would have excluded."""
    l = _require_aligned(lm, q.x, q.x_star)
    ysp = y_star.padded(lm.k)
    if not ysp.extends(q.x_star):
        raise InputError("candidate output must extend the counterfactual prompt")
    y, ys = q.y.padded(lm.k).ids, ysp.ids
    row, tokens = lm.step_law(params).row, lm.vocab.tokens
    checks: list[PositionCheck] = []
    violations = 0
    for pos in range(l + 1, lm.k + 1):
        barred = _barred(row(y[: pos - 1]), row(ys[: pos - 1]), y[pos - 1])
        chosen = ys[pos - 1]
        bad = chosen in barred
        if bad:
            violations += 1
        excluded = tuple(sorted(tokens[t] for t in barred))
        checks.append(PositionCheck(pos, tokens[y[pos - 1]], tokens[chosen], excluded, bad))
    return StabilityReport(tuple(checks), violations, len(checks))


# --- trace files ---------------------------------------------------------------
#
# {"x": ["a"], "y": ["a", "b"], "kind": "gumbel", "noise": [[...], ...],
#  "params": {"temperature": 1.0, "top_k": null, "top_p": null}}
#
# Token lists are unpadded strings; gumbel noise is one list of |V| floats
# per position, uniform noise one float per position. JSON float text is the
# shortest round-trip form, so traces reload bit-exactly. Loading checks
# what the constructors above guarantee: finite noise, uniforms in [0, 1),
# and noise that replays the trace's own output at its own prompt.


def trace_to_json(lm: ToyLM, trace: FactualTrace) -> str:
    payload = {
        "x": list(lm.vocab.strings(trace.x.stripped())),
        "y": list(lm.vocab.strings(trace.y.stripped())),
        "kind": trace.noise.kind,
        "noise": [list(e) if trace.noise.kind == "gumbel" else e for e in trace.noise.entries],
        "params": {
            "temperature": trace.params.temperature,
            "top_k": trace.params.top_k,
            "top_p": trace.params.top_p,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def trace_from_json(lm: ToyLM, text: str) -> FactualTrace:
    trace = read_json(text, _trace_from_payload, lm, error=InputError, what="trace")
    replay = gumbel_cf_sample if trace.noise.kind == "gumbel" else its_cf_sample
    got = replay(lm, trace, trace.x)
    if got != trace.y:
        got_s, y_s = (" ".join(lm.vocab.strings(s.stripped())) for s in (got, trace.y))
        raise InputError(f"trace noise replays {got_s!r} at its prompt, not its output {y_s!r}")
    return trace


def _trace_from_payload(payload: dict, lm: ToyLM) -> FactualTrace:
    for key in ("x", "y"):
        if type(payload[key]) is not list:
            raise InputError(f"trace {key!r} must be a list of tokens")
    x = lm.vocab.seq(payload["x"])
    y = lm.vocab.seq(payload["y"]).padded(lm.k)
    kind, entries = payload["kind"], payload["noise"]
    pp = payload["params"]
    knobs = (pp["temperature"], pp["top_k"], pp["top_p"])
    if not all(v is None or type(v) is float or type(v) is int for v in knobs):
        raise InputError("trace params must be numbers or null")
    params = SamplingParams(*knobs)
    if kind not in ("gumbel", "uniform"):
        raise InputError(f"unknown noise kind {kind!r}")
    if len(entries) != lm.k:
        raise InputError(f"trace has {len(entries)} noise entries, expected {lm.k}")
    values = entries
    if kind == "gumbel":
        if any(len(e) != lm.vocab.size for e in entries):
            raise InputError("gumbel noise vectors must match the vocabulary size")
        values = [v for e in entries for v in e]
    # the bound also rejects NaN, and ints too large to become floats
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values):
        raise InputError("trace noise must be finite numbers")
    if kind == "uniform" and not all(0.0 <= u < 1.0 for u in values):
        raise InputError("uniform noise must lie in [0, 1)")
    noise = tuple(tuple(e) if kind == "gumbel" else float(e) for e in entries)
    return FactualTrace(x, y, NoiseRecord(kind, noise), params)
