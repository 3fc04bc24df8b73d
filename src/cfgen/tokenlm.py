"""Toy autoregressive token models with exact sequence distributions.

A model is a finite vocabulary (index 0 reserved for the EMPTY end marker),
a maximum length ``k``, and one table of next-token rows keyed by context,
read at the whole context or, for a bigram model, at its last token. User
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
from typing import Callable, Iterable, Mapping

from .dist import DistTable, draw, left_sum, log_row, prob_row
from .errors import EnumerationCapError, InputError, ModelError, read_json
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


@dataclass(frozen=True, slots=True)
class TokenSeq:
    """A token-id sequence in padded or unpadded form.

    Once the EMPTY id (0) appears, every later position must be EMPTY; the
    effective length is the position of the first EMPTY.

    The hash is worked out once, at construction, and kept. It equals the
    dataclass hash ``hash((ids,))``, so sets of sequences iterate in the
    same order as if it were not kept. Keeping it costs one attribute
    store; the store of ``ids`` that ``__post_init__`` skips when they are
    already a tuple pays for it. Slots keep the size per sequence as it
    was with an instance dict and no kept hash.
    """

    ids: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = self.ids
        if ids.__class__ is not tuple:
            object.__setattr__(self, "ids", tuple(ids))
            ids = self.ids
        # one comparison per real token: sequences are short, and on them
        # this loop is cheaper than builtin scans (min, index, count)
        seen_empty = False
        for i in ids:
            if i <= 0:
                if i < 0:
                    raise InputError("token ids must be nonnegative")
                seen_empty = True
            elif seen_empty:
                raise InputError("non-EMPTY token after EMPTY: sequence not in padded form")
        object.__setattr__(self, "_hash", hash((ids,)))

    @classmethod
    def _unchecked(cls, ids: tuple[int, ...]) -> "TokenSeq":
        """``TokenSeq(ids)`` without the padded-form check, for an id tuple
        its caller built in padded form; ``walk_law`` alone calls it, and
        every input edge keeps the check."""
        seq = object.__new__(cls)
        _set_ids(seq, ids)
        _set_hash(seq, hash((ids,)))
        return seq

    @property
    def effective_len(self) -> int:
        return self.ids.index(0) if 0 in self.ids else len(self.ids)

    def stripped(self) -> "TokenSeq":
        if 0 not in self.ids:
            return self
        return TokenSeq(self.ids[: self.ids.index(0)])

    def padded(self, k: int) -> "TokenSeq":
        if len(self.ids) == k:  # the constructor guarantees padded form
            return self
        body = self.ids[: self.effective_len]
        if len(body) > k:
            raise InputError(f"sequence of length {len(body)} cannot pad to {k}")
        return TokenSeq(body + (0,) * (k - len(body)))

    def extends(self, prefix: "TokenSeq") -> bool:
        # the prefix's body holds no EMPTY, so a shorter body here fails too
        theirs = prefix.ids[: prefix.effective_len]
        return self.ids[: len(theirs)] == theirs

    @property
    def has_empty(self) -> bool:
        return 0 in self.ids

    def __len__(self) -> int:
        return len(self.ids)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ids == other.ids


# the slots' own setters, which a frozen dataclass's __setattr__ cannot refuse
_set_ids, _set_hash = TokenSeq.ids.__set__, TokenSeq._hash.__set__


@dataclass(frozen=True, slots=True)
class SamplingParams:
    """User-side reshaping knobs: temperature, top-k, top-p.

    Temperature 0 means exact argmax mode (lowest-index tie-break), handled
    as its own branch rather than a small-temperature limit. A positive
    temperature must be finite with a finite reciprocal.

    The hash is worked out once, at construction, since every step-law
    lookup takes it. It reads an unset knob as 0, which no set knob can
    be, because ``hash(None)`` differs between processes before Python
    3.12 and a pickled instance keeps its hash.
    """

    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.temperature):
            raise InputError(f"temperature must be finite, got {self.temperature!r}")
        if self.temperature < 0.0:
            raise InputError("temperature must be nonnegative")
        if self.temperature > 0.0 and math.isinf(1.0 / self.temperature):
            raise InputError(f"temperature {self.temperature!r} is too small: 1/T overflows")
        if self.top_k is not None and (type(self.top_k) is not int or self.top_k < 1):
            raise InputError("top_k must be a positive integer")
        if self.top_p is not None and not (0.0 < self.top_p <= 1.0):
            raise InputError("top_p must lie in (0, 1]")
        key = (self.temperature, self.top_k or 0, self.top_p or 0)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @property
    def truncates(self) -> bool:
        return self.top_k is not None or self.top_p is not None


@dataclass(frozen=True)
class ToyLM:
    """Next-token conditional family over a fixed vocabulary.

    ``table`` maps a context tuple of token strings to the model's row
    there. A "table" model reads the row at the whole context, so it needs
    one for every reachable EMPTY-free context of fewer than k tokens; a
    "bigram" model reads it at the context's last token, with the row at
    ``()`` covering the empty context. Each instance holds one memoized
    ``StepLaw`` per ``SamplingParams`` it was asked for; they are freed
    with the model.
    """

    vocab: Vocab
    k: int
    kind: str
    table: Mapping[tuple[str, ...], DistTable]
    _laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("k must be at least 1")
        if self.kind not in ("table", "bigram"):
            raise InputError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "table", dict(self.table))

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

    ``logs(ctx)`` is the Gumbel path's view of the same row, memoized in a
    second table that only that path fills, so the exact-law walks pay
    nothing for it.
    """

    __slots__ = ("params", "_tokens", "_table", "_last", "_point", "_rows", "_logs")

    def __init__(self, lm: ToyLM, params: SamplingParams) -> None:
        # copies what the rows need: holding ``lm`` would make a reference
        # cycle that keeps dropped models alive until the next collection
        self.params = params
        self._tokens = lm.vocab.tokens
        self._table = lm.table
        self._last = lm.kind == "bigram"  # reads the row at the last token only
        self._point = (1.0,) + (0.0,) * (len(self._tokens) - 1)
        self._rows: dict[tuple[int, ...], tuple[float, ...]] = {}
        self._logs: dict[tuple[int, ...], tuple[tuple[float, ...], float]] = {}

    def row(self, ctx: tuple[int, ...]) -> tuple[float, ...]:
        probs = self._rows.get(ctx)
        if probs is None:
            if 0 in ctx:
                return self._point
            tokens = self._tokens
            key = tuple([tokens[i] for i in (ctx[-1:] if self._last else ctx)])
            base = self._table.get(key)
            if base is None:
                raise ModelError(f"no row for context {' '.join(key)!r}")
            get = base.entries.get
            probs = _reshape([get(t, 0.0) for t in tokens], self.params)
            self._rows[ctx] = probs
        return probs

    def logs(self, ctx: tuple[int, ...]) -> tuple[tuple[float, ...], float]:
        """``(log_row(row(ctx)), log(left_sum(row(ctx))))``, filled on first
        use; contexts holding EMPTY share the one entry under ``(0,)``."""
        view = self._logs.get(ctx)
        if view is None:
            key = (0,) if 0 in ctx else ctx
            view = self._logs.get(key)
            if view is None:
                probs = self.row(key)
                view = self._logs[key] = (log_row(probs), math.log(left_sum(probs)))
        return view


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
        logs = log_row(probs)
        top = max(logs)
        probs = [math.exp((lg - top) * inv) if lg > -math.inf else 0.0 for lg in logs]
        z = left_sum(probs)
        probs = [p / z for p in probs]

    if params.top_k is not None:
        ranked = sorted(range(n), key=lambda i: (-probs[i], i))
        keep = set(ranked[: params.top_k])
        probs = [p if i in keep else 0.0 for i, p in enumerate(probs)]
        z = left_sum(probs)
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
        z = left_sum(probs)
        if z <= 0.0:
            raise ModelError("top-p removed all probability mass")
        probs = [p / z for p in probs]

    return tuple(probs)


def prompt_ids(lm: ToyLM, x: TokenSeq) -> tuple[int, ...]:
    """The ids of prompt ``x``, which may hold up to k tokens; at exactly k
    no position is left to generate."""
    ids = x.ids[: x.effective_len]
    if len(ids) > lm.k:
        raise InputError(f"prompt longer than k={lm.k}")
    return ids


def output_seq(ids: tuple[int, ...], k: int) -> TokenSeq:
    """Output text ends at the first EMPTY; pad it to length k."""
    if 0 in ids:
        ids = ids[: ids.index(0)]
    return TokenSeq(ids + (0,) * (k - len(ids)))


def forward(
    lm: ToyLM,
    ctx: tuple[int, ...],
    params: SamplingParams,
    noise: Iterable,
    pick: Callable[[object, object], int],
    view: str = "row",
) -> TokenSeq:
    """The forward pass every sampler and replay runs: from context ``ctx``,
    one position per noise entry, pick ``pick(law.<view>(ctx), entry)``
    from the step law's view (``row`` or ``logs``) of the context built so
    far, until EMPTY is picked or the entries run out; the output is padded
    to length k."""
    at = getattr(lm.step_law(params), view)
    for e in noise:
        t = pick(at(ctx), e)
        if not t:
            break
        ctx += (t,)
    return output_seq(ctx, lm.k)


def walk_law(
    lm: ToyLM,
    ctx: tuple[int, ...],
    params: SamplingParams,
    step: Callable[[int, tuple[float, ...]], Iterable[tuple[int, float]]],
    cap: int = DEFAULT_ENUM_CAP,
) -> DistTable:
    """The exact law every enumerator walks: depth first from context
    ``ctx``, where position ``i`` (0-based) picks token ``t`` with the
    probability ``p`` of each pair in ``step(i, row)``, ``row`` being the
    reshaped row at the context built so far; EMPTY or length k ends an
    outcome. The cap bounds the V^(k - len(ctx)) tree up front.

    Outcomes are stored from the parent's loop, in depth-first order, and
    built without the padded-form check: the walk only appends real tokens
    to an EMPTY-free context, then pads with EMPTY."""
    k = lm.k
    if lm.vocab.size ** (k - len(ctx)) > cap:
        raise EnumerationCapError(f"instance too large: enumeration cap {cap} exceeded")
    if len(ctx) == k:  # no position left to generate
        return DistTable({TokenSeq(ctx): 1.0})
    row = lm.step_law(params).row
    seq = TokenSeq._unchecked
    entries: dict[TokenSeq, float] = {}

    def recurse(ctx: tuple[int, ...], prob: float) -> None:
        n = len(ctx)
        for t, p in step(n, row(ctx)):
            if p <= 0.0:
                continue
            if not t:
                entries[seq(ctx + (0,) * (k - n))] = prob * p
            elif n == k - 1:
                entries[seq(ctx + (t,))] = prob * p
            else:
                recurse(ctx + (t,), prob * p)

    recurse(ctx, 1.0)
    return DistTable(entries)


def seq_dist(
    lm: ToyLM, x: TokenSeq, params: SamplingParams, cap: int = DEFAULT_ENUM_CAP
) -> DistTable:
    """Exact distribution over padded length-k outputs extending prompt ``x``."""
    return walk_law(lm, prompt_ids(lm, x), params, lambda i, row: enumerate(row), cap)


def sample_output(lm: ToyLM, x: TokenSeq, params: SamplingParams, seed: int) -> TokenSeq:
    """One autoregressive draw; a pure function of (model, prompt, params, seed)."""
    rng = make_rng(seed)
    ctx = prompt_ids(lm, x)
    # the generator is private, so uniforms left over after EMPTY change nothing
    return forward(lm, ctx, params, [rng.random() for _ in range(lm.k - len(ctx))], draw)


def zero_temp_fn(lm: ToyLM, x: TokenSeq) -> TokenSeq:
    """Greedy completion: argmax at every step, lowest vocabulary index on ties."""
    # every greedy row is a point mass, so any seed draws the same output
    return sample_output(lm, x, SamplingParams(temperature=0.0), 0)


def compile_to_nondet(lm: ToyLM, prompt_len: int, params: SamplingParams) -> NondetModel:
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
    cap = DEFAULT_ENUM_CAP
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
# Table keys join the context tokens with single spaces ("" for the empty
# context); each row lists probabilities in vocabulary order. Bigram models
# use {"probs": {"a": [...]}, "unigram": [...]} keyed by the last token;
# loaded, the unigram row is the table's row at the empty context.
# Every row is one the model reads: no key names EMPTY, and a table
# context holds fewer than k tokens. Every row the model can read is
# there: a prompt can be any EMPTY-free context of fewer than k tokens, so
# a table needs all of them and, for k >= 2, a bigram model every token.


def lm_to_json(lm: ToyLM) -> str:
    tokens = lm.vocab.tokens
    probs = {" ".join(ctx): [row.prob(t) for t in tokens] for ctx, row in lm.table.items()}
    payload = {"vocab": list(tokens), "k": lm.k, "type": lm.kind, "probs": probs}
    if lm.kind == "bigram":
        if "" not in probs:  # a bigram file must carry it
            raise ModelError("bigram model has no unigram row (the row at context ()) to write")
        payload["unigram"] = probs.pop("")
    return json.dumps(payload, indent=2, sort_keys=True)


def lm_from_json(text: str) -> ToyLM:
    return read_json(text, _lm_from_payload)


def _lm_from_payload(payload: dict) -> ToyLM:
    tokens = payload["vocab"]
    if type(tokens) is not list:
        raise ModelError("vocab must be a list of tokens")
    for tok in tokens:
        # a table key names its context by space-joined tokens
        if type(tok) is not str or tok.split() != [tok]:
            raise ModelError(f"vocabulary entry {tok!r} is not a nonempty string without spaces")
    if not tokens or tokens[0] != EMPTY:
        raise ModelError(f"vocabulary must reserve index 0 for {EMPTY!r}")
    vocab = Vocab(tokens)
    k = payload["k"]
    if type(k) is not int:
        raise ModelError(f"k must be a JSON integer, got {k!r}")
    kind = payload["type"]
    if kind not in ("table", "bigram"):
        raise ModelError(f"unknown model type {kind!r}")
    table = {}
    for key, probs in payload["probs"].items():
        # a table key is a space-joined context, a bigram key one token
        ctx = tuple(key.split()) if kind == "table" else (key,)
        for tok in ctx:
            if tok not in vocab.tokens:
                raise ModelError(f"row {key!r} names {tok!r}, which is not in the vocabulary")
        table[ctx] = prob_row(vocab.tokens, probs, key)
    if kind == "bigram":
        table[()] = prob_row(vocab.tokens, payload["unigram"], "<unigram>")
    lm = ToyLM(vocab, k, kind, table=table)
    for key in payload["probs"]:
        # after the checks above, so a file they reject keeps its message
        ctx = key.split() if kind == "table" else [key]
        if " ".join(ctx) != key:  # else two keys could name one context
            raise ModelError(f"row {key!r} is not its tokens joined by single spaces")
        if EMPTY in ctx:
            raise ModelError(f"row {key!r} names {EMPTY!r}, which ends the output, not a context")
        if kind == "table" and len(ctx) >= k:
            raise ModelError(
                f"row {key!r} has a context of {len(ctx)} tokens; k={k} reads at most {k - 1}"
            )
    real = vocab.real_tokens
    if kind == "bigram":
        if k > 1:  # at k = 1 no context holds a token
            for tok in real:
                if (tok,) not in table:
                    raise ModelError(f"no row for token {tok!r}; k={k} reads a row for every token")
        return lm
    # shortest first, so a missing context is met after at most len(rows) present
    # ones; with no real token the empty context is the only one, whatever k is
    for n in range(k if real else 1):
        for ctx in itertools.product(real, repeat=n):
            if ctx not in table:
                raise ModelError(
                    f"no row for context {' '.join(ctx)!r}; k={k} reads every context "
                    f"of fewer than {k} tokens"
                )
    return lm
