"""Reference exact laws for the ``exact_law`` workload, independent of cfgen's code.

A model here is ``rows``: a dict from a context (tuple of token ids, EMPTY
= 0 never inside) to its next-token probabilities in vocabulary order. The
reshaping follows the documented order (temperature, then top-k, then
top-p, each stage renormalized; temperature 0 is an argmax with the lowest
index winning ties) and the laws follow the documented semantics, so a
cfgen answer that matches these to 1e-12 is right whatever route cfgen
took. Outcomes are padded id tuples of length k.
"""

from __future__ import annotations

import math


def reshape(probs: list[float], temperature: float, top_k: int | None, top_p: float | None):
    n = len(probs)
    if temperature == 0.0:
        best = max(range(n), key=lambda i: (probs[i], -i))
        return [1.0 if i == best else 0.0 for i in range(n)]
    if temperature != 1.0:
        inv = 1.0 / temperature
        logs = [math.log(p) if p > 0.0 else -math.inf for p in probs]
        top = max(logs)
        probs = [math.exp((lg - top) * inv) if lg > -math.inf else 0.0 for lg in logs]
        z = sum(probs)
        probs = [p / z for p in probs]
    if top_k is not None:
        keep = set(sorted(range(n), key=lambda i: (-probs[i], i))[:top_k])
        probs = _renormalize([p if i in keep else 0.0 for i, p in enumerate(probs)])
    if top_p is not None:
        keep, acc = set(), 0.0
        for i in sorted(range(n), key=lambda i: (-probs[i], i)):
            if probs[i] <= 0.0:
                break
            keep.add(i)
            acc += probs[i]
            if acc >= top_p:
                break
        probs = _renormalize([p if i in keep else 0.0 for i, p in enumerate(probs)])
    return probs


def _renormalize(probs: list[float]) -> list[float]:
    z = sum(probs)
    return [p / z for p in probs]


class Model:
    """Rows plus the reshaping params of one query, with reshaped rows memoized."""

    def __init__(self, rows: dict, vocab_size: int, k: int, params: tuple) -> None:
        self.rows = rows
        self.vocab_size = vocab_size
        self.k = k
        self.params = params
        self._shaped: dict = {}

    def step(self, ctx: tuple[int, ...]) -> list[float]:
        if 0 in ctx:
            return [1.0] + [0.0] * (self.vocab_size - 1)
        shaped = self._shaped.get(ctx)
        if shaped is None:
            shaped = self._shaped[ctx] = reshape(self.rows[ctx], *self.params)
        return shaped

    def pad(self, ctx: tuple[int, ...]) -> tuple[int, ...]:
        body = ctx[: ctx.index(0)] if 0 in ctx else ctx
        return body + (0,) * (self.k - len(body))

    def prob(self, outcome: tuple[int, ...], prompt_len: int) -> float:
        """Probability of one padded outcome under the plain sequence law."""
        p, ctx = 1.0, outcome[:prompt_len]
        for t in outcome[prompt_len:]:
            p *= self.step(ctx)[t]
            if t == 0:
                break
            ctx += (t,)
        return p

    def seq_law(self, prompt: tuple[int, ...]) -> dict:
        law: dict = {}

        def recurse(ctx, prob):
            if len(ctx) == self.k or (ctx and ctx[-1] == 0):
                law[self.pad(ctx)] = prob
                return
            for t, p in enumerate(self.step(ctx)):
                if p > 0.0:
                    recurse(ctx + (t,), prob * p)

        recurse(prompt, 1.0)
        return law

    def stable_law(self, y: tuple[int, ...], x_star: tuple[int, ...]) -> dict:
        """Closeness-biased law: at each position drop every token whose gain
        in relative probability does not beat the observed token's."""
        law: dict = {}

        def recurse(ctx, pos, prob):
            if pos > self.k or (ctx and ctx[-1] == 0):
                key = self.pad(ctx)
                law[key] = law.get(key, 0.0) + prob
                return
            factual = self.step(y[: pos - 1])
            cf = self.step(ctx)
            obs = y[pos - 1]
            r_obs = _ratio(cf[obs], factual[obs])
            kept = [
                t for t in range(self.vocab_size)
                if cf[t] > 0.0 and (t == obs or r_obs < _ratio(cf[t], factual[t]))
            ]
            mass = sum(cf[t] for t in kept)
            for t in kept:
                recurse(ctx + (t,), pos + 1, prob * (cf[t] / mass))

        recurse(x_star, len(x_star) + 1, 1.0)
        return law


def _ratio(p_cf: float, p_factual: float) -> float:
    if p_cf <= 0.0:
        return 0.0
    if p_factual <= 0.0:
        return math.inf
    return p_cf / p_factual
