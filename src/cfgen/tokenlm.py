"""Toy autoregressive token models with exact sequence distributions.

A model is a finite vocabulary (index 0 reserved for the EMPTY end marker),
a maximum length ``k``, and a next-token conditional family given either as
a full context table or as a bigram table with a unigram fallback. User
parameters reshape every next-token distribution in a fixed order:
temperature, then top-k, then top-p. Once EMPTY has been generated it
absorbs: all later positions are EMPTY under any parameters.

Sequences are handled internally in padded length-``k`` form. A model can
be compiled into a causal model whose variables are the prompt, one
variable per position, and the concatenated output; the compiled joint
reproduces the chain product exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .dist import DistTable
from .errors import EnumerationCapError, InputError, ModelError
from .nondet import DEFAULT_ENUM_CAP, CausalGraph, Cpt, NondetModel, VarSpec
from .seeding import make_rng

EMPTY = "</e>"


@dataclass(frozen=True)
class Vocab:
    """Ordered token inventory; index 0 is the EMPTY marker."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise InputError("vocabulary must be nonempty")
        if len(set(self.tokens)) != len(self.tokens):
            raise InputError("vocabulary tokens must be distinct")

    @property
    def empty(self) -> str:
        return self.tokens[0]

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def real_tokens(self) -> tuple[str, ...]:
        return self.tokens[1:]

    def index(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise InputError(f"unknown token {token!r}") from None

    def seq(self, tokens: Iterable[str]) -> "TokenSeq":
        return TokenSeq(tuple(self.index(t) for t in tokens))

    def strings(self, seq: "TokenSeq") -> tuple[str, ...]:
        return tuple(self.tokens[i] for i in seq.ids)


@dataclass(frozen=True)
class TokenSeq:
    """A token-id sequence in padded or unpadded form.

    Once the EMPTY id (0) appears, every later position must be EMPTY; the
    effective length is the position of the first EMPTY.
    """

    ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        # one comparison per real token: sequences are short, and on them
        # this loop is cheaper than builtin scans (min, index, count)
        seen_empty = False
        for i in self.ids:
            if i <= 0:
                if i < 0:
                    raise InputError("token ids must be nonnegative")
                seen_empty = True
            elif seen_empty:
                raise InputError("non-EMPTY token after EMPTY: sequence not in padded form")

    @property
    def effective_len(self) -> int:
        return self.ids.index(0) if 0 in self.ids else len(self.ids)

    def stripped(self) -> "TokenSeq":
        return TokenSeq(self.ids[: self.effective_len])

    def padded(self, k: int) -> "TokenSeq":
        body = self.ids[: self.effective_len]
        if len(body) > k:
            raise InputError(f"sequence of length {len(body)} cannot pad to {k}")
        return TokenSeq(body + (0,) * (k - len(body)))

    def extends(self, prefix: "TokenSeq") -> bool:
        theirs = prefix.ids[: prefix.effective_len]
        return self.ids[: self.effective_len][: len(theirs)] == theirs

    @property
    def has_empty(self) -> bool:
        return 0 in self.ids

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SamplingParams:
    """User-side reshaping knobs: temperature, top-k, top-p.

    Temperature 0 means exact argmax mode (lowest-index tie-break), handled
    as its own branch rather than a small-temperature limit. A positive
    temperature must be finite with a finite reciprocal.
    """

    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.temperature):
            raise InputError(f"temperature must be finite, got {self.temperature!r}")
        if self.temperature < 0.0:
            raise InputError("temperature must be nonnegative")
        if self.temperature > 0.0 and math.isinf(1.0 / self.temperature):
            raise InputError(f"temperature {self.temperature!r} is too small: 1/T overflows")
        if self.top_k is not None and self.top_k < 1:
            raise InputError("top_k must be a positive integer")
        if self.top_p is not None and not (0.0 < self.top_p <= 1.0):
            raise InputError("top_p must lie in (0, 1]")

    @property
    def truncates(self) -> bool:
        return self.top_k is not None or self.top_p is not None


@dataclass(frozen=True)
class ToyLM:
    """Next-token conditional family over a fixed vocabulary.

    ``kind`` is "table" (context tuple -> distribution, total over every
    reachable EMPTY-free context of length < k) or "bigram" (last token ->
    distribution, with ``unigram`` covering the empty context). Each
    instance holds one memoized ``StepLaw`` per ``SamplingParams`` it was
    asked for; they are freed with the model.
    """

    vocab: Vocab
    k: int
    kind: str
    table: Mapping[tuple[str, ...], DistTable] | None = None
    bigram: Mapping[str, DistTable] | None = None
    unigram: DistTable | None = None
    _laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("k must be at least 1")
        if self.kind not in ("table", "bigram"):
            raise InputError(f"unknown model kind {self.kind!r}")
        if self.kind == "table" and self.table is None:
            raise ModelError("table model without a table")
        if self.kind == "bigram" and (self.bigram is None or self.unigram is None):
            raise ModelError("bigram model needs bigram rows and a unigram fallback")
        if self.table is not None:
            object.__setattr__(self, "table", dict(self.table))
        if self.bigram is not None:
            object.__setattr__(self, "bigram", dict(self.bigram))

    def step_law(self, params: SamplingParams) -> "StepLaw":
        """The reshaped step law under ``params``, built once per params value."""
        law = self._laws.get(params)
        if law is None:
            law = self._laws[params] = StepLaw(self, params)
        return law


class StepLaw:
    """Reshaped next-token rows of one model under one ``SamplingParams``.

    ``row(ctx)`` maps a context of token ids to the probability of every
    token in vocabulary order. Rows of EMPTY-free contexts are memoized by
    id tuple, probabilities only; contexts holding EMPTY absorb into one
    shared point-mass row that is not stored.
    """

    __slots__ = ("params", "_tokens", "_kind", "_table", "_bigram", "_unigram", "_point", "_rows")

    def __init__(self, lm: ToyLM, params: SamplingParams) -> None:
        # copies what the rows need: holding ``lm`` would make a reference
        # cycle that keeps dropped models alive until the next collection
        self.params = params
        self._tokens = lm.vocab.tokens
        self._kind, self._table, self._bigram, self._unigram = (
            lm.kind, lm.table, lm.bigram, lm.unigram
        )
        self._point = (1.0,) + (0.0,) * (len(self._tokens) - 1)
        self._rows: dict[tuple[int, ...], tuple[float, ...]] = {}

    def row(self, ctx: tuple[int, ...]) -> tuple[float, ...]:
        probs = self._rows.get(ctx)
        if probs is None:
            if 0 in ctx:
                return self._point
            base = self._base(tuple(self._tokens[i] for i in ctx))
            probs = _reshape([base.prob(t) for t in self._tokens], self.params)
            self._rows[ctx] = probs
        return probs

    def _base(self, context: tuple[str, ...]) -> DistTable:
        """The model's own row for an EMPTY-free context."""
        if self._kind == "table":
            row = self._table.get(context)
            if row is None:
                raise ModelError(f"no distribution for context {context!r}")
            return row
        if context:
            row = self._bigram.get(context[-1])
            if row is None:
                raise ModelError(f"no bigram row for token {context[-1]!r}")
            return row
        return self._unigram


def _reshape(probs: list[float], params: SamplingParams) -> tuple[float, ...]:
    """Apply temperature, top-k, top-p in that order; each stage renormalizes.

    Takes and returns probabilities in vocabulary order, zeros included.
    """
    n = len(probs)
    if params.temperature == 0.0:
        best = max(range(n), key=lambda i: (probs[i], -i))
        return tuple(1.0 if i == best else 0.0 for i in range(n))
    if params.temperature != 1.0:
        # p^(1/T) renormalized, in log space so tiny temperatures do not underflow
        inv = 1.0 / params.temperature
        logs = [math.log(p) if p > 0.0 else -math.inf for p in probs]
        top = max(logs)
        probs = [math.exp((lg - top) * inv) if lg > -math.inf else 0.0 for lg in logs]
        z = sum(probs)
        probs = [p / z for p in probs]

    if params.top_k is not None:
        ranked = sorted(range(n), key=lambda i: (-probs[i], i))
        keep = set(ranked[: params.top_k])
        probs = [p if i in keep else 0.0 for i, p in enumerate(probs)]
        z = sum(probs)
        if z <= 0.0:
            raise ModelError("top-k removed all probability mass")
        probs = [p / z for p in probs]

    if params.top_p is not None:
        ranked = sorted(range(n), key=lambda i: (-probs[i], i))
        keep: set[int] = set()
        acc = 0.0
        for i in ranked:
            if probs[i] <= 0.0:
                break
            keep.add(i)
            acc += probs[i]
            if acc >= params.top_p:
                break
        probs = [p if i in keep else 0.0 for i, p in enumerate(probs)]
        z = sum(probs)
        if z <= 0.0:
            raise ModelError("top-p removed all probability mass")
        probs = [p / z for p in probs]

    return tuple(probs)


def draw(probs: Sequence[float], u: float) -> int:
    """Inverse-CDF draw: the first index whose running sum of the positive
    entries exceeds ``u``, or the last positive index if none does."""
    acc = 0.0
    last = -1
    for i, p in enumerate(probs):
        if p <= 0.0:
            continue
        acc += p
        last = i
        if acc > u:
            return i
    if last < 0:
        raise ModelError("cannot draw from an all-zero distribution")
    return last


def argmax(probs: Sequence[float], gumbels: Sequence[float]) -> int:
    """Perturbed argmax: the index maximizing log p + g over the positive
    entries, the lowest index on ties."""
    best, best_score = -1, -math.inf
    for i, p in enumerate(probs):
        if p <= 0.0:
            continue
        score = math.log(p) + gumbels[i]
        if score > best_score:
            best, best_score = i, score
    if best < 0:
        raise ModelError("cannot take an argmax over an all-zero distribution")
    return best


def next_pairs(
    lm: ToyLM, context: tuple[str, ...], params: SamplingParams
) -> list[tuple[str, float]]:
    """Reshaped next-token probabilities in vocabulary order, keyed by token."""
    ids = tuple(lm.vocab.index(t) for t in context)
    return list(zip(lm.vocab.tokens, lm.step_law(params).row(ids)))


def next_dist(lm: ToyLM, context: TokenSeq, params: SamplingParams) -> DistTable:
    """Distribution of the next token after ``context`` under ``params``.

    The context is taken literally: an EMPTY anywhere in it triggers the
    absorbing rule (strip prompts before querying if that is not intended).
    """
    if len(context.ids) >= lm.k:
        raise InputError(f"context length {len(context.ids)} >= k={lm.k}")
    return DistTable(dict(zip(lm.vocab.tokens, lm.step_law(params).row(context.ids))))


def _prompt_ids(lm: ToyLM, x: TokenSeq) -> tuple[int, ...]:
    ids = x.ids[: x.effective_len]
    if len(ids) > lm.k:
        raise InputError(f"prompt longer than k={lm.k}")
    return ids


def output_seq(ids: tuple[int, ...], k: int) -> TokenSeq:
    """Output text ends at the first EMPTY; pad it to length k."""
    if 0 in ids:
        ids = ids[: ids.index(0)]
    return TokenSeq(ids + (0,) * (k - len(ids)))


def seq_dist(
    lm: ToyLM, x: TokenSeq, params: SamplingParams, cap: int = DEFAULT_ENUM_CAP
) -> DistTable:
    """Exact distribution over padded length-k outputs extending prompt ``x``."""
    prompt = _prompt_ids(lm, x)
    if lm.vocab.size ** (lm.k - len(prompt)) > cap:
        raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")
    row, k = lm.step_law(params).row, lm.k
    entries: dict[TokenSeq, float] = {}

    def recurse(ctx: tuple[int, ...], prob: float) -> None:
        if len(ctx) == k:
            entries[TokenSeq(ctx)] = prob
            return
        for t, p in enumerate(row(ctx)):
            if p <= 0.0:
                continue
            if t:
                recurse(ctx + (t,), prob * p)
            else:
                entries[output_seq(ctx, k)] = prob * p

    recurse(prompt, 1.0)
    return DistTable(entries)


def sample_output(lm: ToyLM, x: TokenSeq, params: SamplingParams, seed: int) -> TokenSeq:
    """One autoregressive draw; a pure function of (model, prompt, params, seed)."""
    rng = make_rng(seed)
    ctx = _prompt_ids(lm, x)
    row = lm.step_law(params).row
    while len(ctx) < lm.k:
        t = draw(row(ctx), rng.random())
        if not t:
            break
        ctx += (t,)
    return output_seq(ctx, lm.k)


def zero_temp_fn(lm: ToyLM, x: TokenSeq) -> TokenSeq:
    """Greedy completion: argmax at every step, lowest vocabulary index on ties."""
    # every greedy row is a point mass, so any seed draws the same output
    return sample_output(lm, x, SamplingParams(temperature=0.0), 0)


def compile_to_nondet(
    lm: ToyLM,
    prompt_len: int,
    params: SamplingParams,
    cap: int = DEFAULT_ENUM_CAP,
) -> NondetModel:
    """Unroll the model into a causal model for prompts of length ``prompt_len``.

    Variables: the prompt X (root; one value per EMPTY-free length-l
    sequence), positions T1..Tk, and the concatenation Y. T1..Tl copy the
    prompt, each later Ti draws from the reshaped next-token family given
    T1..Ti-1, and Y deterministically concatenates all positions.
    """
    l = prompt_len
    if not (0 <= l < lm.k):
        raise InputError(f"prompt length {l} must satisfy 0 <= l < k={lm.k}")
    size, tokens = lm.vocab.size, lm.vocab.tokens
    n_prompts = (size - 1) ** l
    n_rows = sum(size ** (i - 1) for i in range(l + 1, lm.k + 1))
    n_rows += size**lm.k
    if n_prompts > cap or n_rows > cap:
        raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")

    prompts = tuple(TokenSeq(ids) for ids in itertools.product(range(1, size), repeat=l))
    t_names = tuple(f"T{i}" for i in range(1, lm.k + 1))
    vars_: list[VarSpec] = [VarSpec("X", prompts)]
    vars_ += [VarSpec(name, tokens) for name in t_names]
    y_domain = tuple(TokenSeq(ids) for ids in _valid_padded_id_tuples(size, lm.k))
    vars_ += [VarSpec("Y", y_domain)]

    def strings(ids: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(tokens[i] for i in ids)

    row = lm.step_law(params).row
    edges: set[tuple[str, str]] = set()
    cpts: dict[str, Cpt] = {}
    for i, name in enumerate(t_names, start=1):
        if i <= l:
            edges.add(("X", name))
            rows = {(prompt,): DistTable.point(tokens[prompt.ids[i - 1]]) for prompt in prompts}
            cpts[name] = Cpt(name, ("X",), rows)
        else:
            parent_order = t_names[: i - 1]
            for p in parent_order:
                edges.add((p, name))
            rows = {
                strings(ids): DistTable(dict(zip(tokens, row(ids))))
                for ids in itertools.product(range(size), repeat=i - 1)
            }
            cpts[name] = Cpt(name, parent_order, rows)
    for p in t_names:
        edges.add((p, "Y"))
    y_rows = {
        strings(ids): DistTable.point(output_seq(ids, lm.k))
        for ids in itertools.product(range(size), repeat=lm.k)
    }
    cpts["Y"] = Cpt("Y", t_names, y_rows)

    graph = CausalGraph.of([v.name for v in vars_], edges)
    return NondetModel(tuple(vars_), graph, cpts)


def _valid_padded_id_tuples(vocab_size: int, k: int) -> list[tuple[int, ...]]:
    """All padded-form id tuples of length k: an EMPTY-free body, then zeros."""
    out: list[tuple[int, ...]] = []
    for body_len in range(k + 1):
        for body in itertools.product(range(1, vocab_size), repeat=body_len):
            out.append(body + (0,) * (k - body_len))
    return out


# --- JSON interchange -------------------------------------------------------
#
# {"vocab": ["</e>", "a", "b"], "k": 3, "type": "table",
#  "probs": {"": [...], "a": [...], "a b": [...]}}
#
# Table keys space-join the context tokens ("" for the empty context); each
# row lists probabilities in vocabulary order. Bigram models use
# {"probs": {"a": [...]}, "unigram": [...]} keyed by the last token.


def lm_to_json(lm: ToyLM) -> str:
    payload: dict = {"vocab": list(lm.vocab.tokens), "k": lm.k, "type": lm.kind}
    if lm.kind == "table":
        payload["probs"] = {
            " ".join(ctx): [row.prob(t) for t in lm.vocab.tokens]
            for ctx, row in sorted(lm.table.items())
        }
    else:
        payload["probs"] = {
            tok: [row.prob(t) for t in lm.vocab.tokens]
            for tok, row in sorted(lm.bigram.items())
        }
        payload["unigram"] = [lm.unigram.prob(t) for t in lm.vocab.tokens]
    return json.dumps(payload, indent=2, sort_keys=True)


def lm_from_json(text: str) -> ToyLM:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"bad model JSON: {e}") from e
    try:
        tokens = tuple(payload["vocab"])
        if not tokens or tokens[0] != EMPTY:
            raise ModelError(f"vocabulary must reserve index 0 for {EMPTY!r}")
        vocab = Vocab(tokens)
        k = payload["k"]
        if type(k) is not int:
            raise ModelError(f"k must be a JSON integer, got {k!r}")
        kind = payload["type"]
        if kind == "table":
            table: dict[tuple[str, ...], DistTable] = {}
            for key, probs in payload["probs"].items():
                ctx = tuple(key.split()) if key else ()
                table[ctx] = _row_from_probs(vocab, key, probs)
            return ToyLM(vocab, k, "table", table=table)
        if kind == "bigram":
            bigram = {
                tok: _row_from_probs(vocab, tok, probs)
                for tok, probs in payload["probs"].items()
            }
            unigram = _row_from_probs(vocab, "<unigram>", payload["unigram"])
            return ToyLM(vocab, k, "bigram", bigram=bigram, unigram=unigram)
        raise ModelError(f"unknown model type {kind!r}")
    except (KeyError, TypeError) as e:
        raise ModelError(f"bad model JSON structure: {e!r}") from e


def _row_from_probs(vocab: Vocab, where: str, probs: list) -> DistTable:
    if len(probs) != vocab.size:
        raise ModelError(f"row {where!r} has {len(probs)} entries, expected {vocab.size}")
    total = sum(probs)
    if not abs(total - 1.0) <= 1e-9:  # NaN-safe
        raise ModelError(f"row {where!r} not normalized (sum={total!r})")
    if any(p < 0 for p in probs):
        raise ModelError(f"row {where!r} has a negative probability")
    return DistTable(dict(zip(vocab.tokens, probs)))
