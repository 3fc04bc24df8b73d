"""The four closed-loop workloads.

A workload is built from the workload seed through the benchmark's own
``random.Random``; cfgen receives only the inputs generated from it, and
factual outputs are picked from exact laws, never with cfgen's samplers, so
a change to cfgen's seeded sampling stream changes no input.

``queries()`` yields ``(run, check)`` pairs forever, in a fixed cycle of
query kinds. The worker times each ``run()`` and then calls ``check`` on its
output outside the timed span. ``check`` raises ``Mismatch`` on a wrong
answer and otherwise returns a value whose ``repr`` the worker digests;
cfgen builds its tables in a fixed order, so the repr is deterministic.
Each query's inputs, including whole models where a workload needs fresh
ones, are generated just before it, also outside the timed span.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
from pathlib import Path

import reference

CLAIM_TOL = 1e-12
NORM_TOL = 1e-9


class Mismatch(Exception):
    """A query's output failed its correctness check."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class Picker:
    """Draws outcomes of an exact law with the benchmark's generator."""

    def __init__(self, law) -> None:
        items = sorted(law.items(), key=lambda kv: kv[0].ids)
        self.outcomes = [o for o, _ in items]
        self.cumulative = list(itertools.accumulate(p for _, p in items))

    def pick(self, rng):
        i = bisect.bisect_right(self.cumulative, rng.random() * self.cumulative[-1])
        return self.outcomes[min(i, len(self.outcomes) - 1)]


class NoiseReuse:
    """The sampling hot path on three models: lm_asym, lm3 and a random V=8, k=5
    table model. Each query is a ``sample_output`` draw at x*, gumbel or its
    posterior noise replayed at x*, or one stability unit. Only three models
    are used, so the same few hundred contexts are hit over and over."""

    PROMPTS = {"lm_asym.json": ("p", "q"), "lm3.json": ("a", "b")}

    def __init__(self, cf, api, root: Path, rng, count, work: Path) -> None:
        self.cf, self.api, self.rng, self.count = cf, api, rng, count
        self.params = cf.SamplingParams()
        lms = [
            (api.lm_from_json((root / "fixtures" / name).read_text()), prompts)
            for name, prompts in self.PROMPTS.items()
        ]
        random_lm = api.random_table_lm(rng, 8, 5)
        lms.append((random_lm, random_lm.vocab.real_tokens))
        self.models = []
        for lm, prompts in lms:
            xs = [lm.vocab.seq([t]) for t in prompts]
            laws = {x: api.seq_dist(lm, x, self.params) for x in xs}
            self.models.append((lm, xs, laws, {x: Picker(laws[x]) for x in xs}))
        self.seed_base = rng.getrandbits(63)

    def queries(self):
        rng = self.rng
        kinds = (self._sample, self._gumbel, self._its, self._stability)
        for i in itertools.count():
            model = self.models[i // len(kinds) % len(self.models)]
            _, xs, _, pickers = model
            x, x_star = rng.choice(xs), rng.choice(xs)
            yield kinds[i % len(kinds)](model, x, pickers[x].pick(rng), x_star, i)

    def _sample(self, model, x, y, x_star, i):
        api, lm, params, base = self.api, model[0], self.params, self.seed_base

        def run():
            return api.sample_output(lm, x_star, params, api.derive_seed(base, i))

        return run, lambda out: self._check_cf(model, x_star, out)

    def _gumbel(self, model, x, y, x_star, i):
        api, lm, params, base = self.api, model[0], self.params, self.seed_base

        def run():
            trace = api.gumbel_posterior_noise(lm, x, y, params, api.derive_seed(base, i))
            return api.gumbel_cf_sample(lm, trace, x_star)

        return run, lambda out: self._check_replay(model, x, y, x_star, out)

    def _its(self, model, x, y, x_star, i):
        api, lm, params, base = self.api, model[0], self.params, self.seed_base

        def run():
            trace = api.its_posterior_noise(lm, x, y, params, api.derive_seed(base, i))
            return api.its_cf_sample(lm, trace, x_star)

        return run, lambda out: self._check_replay(model, x, y, x_star, out)

    def _stability(self, model, x, y, x_star, i):
        api, cf, lm, params, base = self.api, self.cf, model[0], self.params, self.seed_base

        def run():
            y, trace = api.gumbel_factual_run(lm, x, params, api.derive_seed(base, i))
            y_star = api.gumbel_cf_sample(lm, trace, x_star)
            report = api.stability_check(lm, cf.CfQuery(x, y, x_star), y_star, params)
            return y, y_star, report.violations

        def check(out):
            y, y_star, violations = out
            expect(violations == 0, f"{violations} stability violations without truncation")
            return self._check_cf(model, x, y), self._check_replay(model, x, y, x_star, y_star)

        return run, check

    def _check_cf(self, model, x_star, out):
        expect(out.extends(x_star), "sample does not extend x*")
        expect(model[2][x_star].prob(out) > 0.0, "sample has zero probability at x*")
        return out

    def _check_replay(self, model, x, y, x_star, out):
        if x_star == x:
            self.count("generators.replays")
            expect(out == y, "replay at the kept prompt did not return y")
            self.count("generators.replays_exact")
        return self._check_cf(model, x_star, out)


class ExactLaw:
    """Cold enumeration: one exact law per query, ``seq_dist`` at x* (the
    simple law) or ``stable_cf_dist``, on a table model that no earlier query
    used, with V in {5, 6, 7}, k = 4, l = 1 and params cycling through T=1,
    T=0.5, top_k=3 and top_p=0.9. A fresh model holds only the rows the query
    can read (x*'s whole subtree and the factual path), so its rows are each
    reached a few times at most."""

    K = 4
    SIZES = (5, 6, 7)
    PARAMS = ((1.0, None, None), (0.5, None, None), (1.0, 3, None), (1.0, None, 0.9))

    def __init__(self, cf, api, root: Path, rng, count, work: Path) -> None:
        self.cf, self.api, self.rng = cf, api, rng
        self.params = [cf.SamplingParams(*p) for p in self.PARAMS]

    def queries(self):
        while True:
            for size in self.SIZES:
                for raw, params in zip(self.PARAMS, self.params):
                    for law in ("simple", "stable"):
                        yield self._query(size, raw, params, law)

    def _query(self, size, raw_params, params, law):
        cf, api, rng, k = self.cf, self.api, self.rng, self.K
        x_star = (rng.randrange(1, size),)
        rows: dict = {}

        def add_row(ctx):
            weights = [rng.random() + 1e-9 for _ in range(size)]
            z = sum(weights)
            rows[ctx] = [w / z for w in weights]

        for length in range(k - 1):
            for tail in itertools.product(range(1, size), repeat=length):
                add_row(x_star + tail)
        ref = reference.Model(rows, size, k, raw_params)
        tokens = ("</e>",) + tuple("abcdefghij"[: size - 1])
        vocab = cf.Vocab(tokens)
        xs_seq = cf.TokenSeq(x_star)

        if law == "simple":
            lm = self._lm(vocab, rows)

            def run():
                return api.seq_dist(lm, xs_seq, params)

            def check(out):
                return self._check_law(out, ref.seq_law(x_star))

            return run, check

        # stable_cf_dist reads every factual context from the empty one on; the
        # factual output is drawn from its exact law, step by step
        add_row(())
        x = (rng.randrange(1, size),)
        y = x
        while len(y) < k and y[-1] != 0:
            if y not in rows:
                add_row(y)
            positive = [(t, p) for t, p in enumerate(ref.step(y)) if p > 0.0]
            u, acc, token = rng.random(), 0.0, positive[-1][0]
            for t, p in positive:
                acc += p
                if acc > u:
                    token = t
                    break
            y += (token,)
        y = ref.pad(y)
        lm = self._lm(vocab, rows)
        query = cf.CfQuery(cf.TokenSeq(x), cf.TokenSeq(y), xs_seq)

        def run():
            return api.stable_cf_dist(lm, query, params)

        def check(out):
            for outcome in out.support:
                expect(ref.prob(outcome.ids, 1) > 0.0, "stable support leaves the simple support")
            if x_star == x:
                expect(out.support == (cf.TokenSeq(y),), "kept prompt is not a point mass on y")
            return self._check_law(out, ref.stable_law(y, x_star))

        return run, check

    def _lm(self, vocab, rows):
        tokens = vocab.tokens
        table = {
            tuple(tokens[i] for i in ctx): self.cf.DistTable(dict(zip(tokens, probs)))
            for ctx, probs in rows.items()
        }
        return self.cf.ToyLM(vocab, self.K, "table", table=table)

    @staticmethod
    def _check_law(out, want: dict):
        expect(abs(out.total - 1.0) <= NORM_TOL, f"law sums to {out.total!r}")
        got = {o.ids: p for o, p in out.items()}
        dev = max(abs(got.get(o, 0.0) - want.get(o, 0.0)) for o in got.keys() | want.keys())
        expect(dev <= CLAIM_TOL, f"law differs from the reference by {dev!r}")
        return out.entries


def _expect_same_law(got: dict, want: dict) -> None:
    expect(got.keys() == want.keys(), "exact support differs from the library's")
    dev = max(abs(got[o] - want[o]) for o in want)
    expect(dev <= CLAIM_TOL, f"exact output differs from the library by {dev!r}")


def _output_of(world):
    return world["Y"]


class CausalCheck:
    """Exact claim instances, one unit of the thm1, thm2 and corollary suites
    or of acceptance criterion 1 per query: (a) a compiled random V=4, k=4
    token model at T in {0.5, 1, 2, 0} against ``seq_dist``; (b) the two
    counterfactual evaluators on a random chance model; (c) a random
    noise-independent deterministic model against its converted chance model.
    The work sits in ``nondet`` and ``detscm``; ``tokenlm`` is the reference."""

    TEMPERATURES = (0.5, 1.0, 2.0, 0.0)

    def __init__(self, cf, api, root: Path, rng, count, work: Path) -> None:
        self.cf, self.api, self.rng = cf, api, rng
        lm = api.random_table_lm(rng, 4, 4)
        self.lm = lm
        self.prompts = [lm.vocab.seq([t]) for t in lm.vocab.real_tokens]
        self.compiled = []
        for temperature in self.TEMPERATURES:
            params = cf.SamplingParams(temperature=temperature)
            model = api.compile_to_nondet(lm, 1, params)
            laws = {x: api.seq_dist(lm, x, params) for x in self.prompts}
            supports = {x: sorted(laws[x].support, key=lambda o: o.ids) for x in self.prompts}
            self.compiled.append((temperature, model, laws, supports))

    def queries(self):
        # each round asks the compiled model twice at T = 0.5, 1, 2 and once at
        # T = 0, and runs (b) and (c) once: the median query then lies inside
        # the tight cluster of T > 0 compiled queries, not in a gap between
        # two kinds of unit where any shift in the mix moves it far
        warm, zero = self.compiled[:3], self.compiled[3]
        while True:
            for compiled in warm:
                yield self._compiled(compiled)
            yield self._evaluators()
            for compiled in warm:
                yield self._compiled(compiled)
            yield self._det()
            yield self._compiled(zero)

    def _compiled(self, compiled):
        cf, api, rng, lm = self.cf, self.api, self.rng, self.lm
        temperature, model, laws, supports = compiled
        x = rng.choice(self.prompts)
        # uniform over the exact support, not by the law: the factual outputs
        # asked about then have the same mix of lengths whatever model the seed
        # drew, and a query's cost depends on how long y is
        y = rng.choice(supports[x])
        x_star = rng.choice([p for p in self.prompts if p != x])
        positions = {f"T{i + 1}": t for i, t in enumerate(lm.vocab.strings(y))}
        v = cf.World.of({"X": x, "Y": y, **positions})
        r_star = cf.World.of({"X": x_star})
        expected = laws[x_star]

        def run():
            marginal = api.project(api.counterfactual_dist(model, v, r_star), _output_of)
            return marginal, api.max_abs_diff(marginal, expected)

        def check(out):
            marginal, dev = out
            expect(dev <= CLAIM_TOL, f"compiled counterfactual off resampling by {dev!r}")
            if temperature == 0.0:
                expect(all(p in (0.0, 1.0) for _, p in marginal.items()), "T=0 law not 0/1")
            return marginal.entries

        return run, check

    def _evaluators(self):
        cf, api, rng = self.cf, self.api, self.rng
        model = api.random_nondet_model(rng, 5, 4)
        v = cf.oracle.random_world(rng, model, cf.oracle.random_root_world(rng, model))
        r_star = cf.oracle.random_root_world(rng, model)

        def run():
            by_update = api.counterfactual_dist(model, v, r_star)
            by_cases = api.counterfactual_dist_cases(model, v, r_star)
            return by_update, api.max_abs_diff(by_update, by_cases)

        def check(out):
            law, dev = out
            expect(dev <= CLAIM_TOL, f"evaluators disagree by {dev!r}")
            return law.entries

        return run, check

    def _det(self):
        api, rng = self.api, self.rng
        model = api.random_u_independent_scm(rng)
        roots = model.root_worlds()
        v = model.apply(model.noise_worlds()[0], rng.choice(roots))

        def run():
            converted = api.to_nondet_when_u_irrelevant(model)
            return max(
                api.max_abs_diff(
                    api.det_counterfactual(model, v, r_star),
                    api.counterfactual_dist(converted, v, r_star),
                )
                for r_star in roots
            )

        def check(dev):
            expect(dev <= CLAIM_TOL, f"deterministic and converted models differ by {dev!r}")
            return dev

        return run, check


class CliRequests:
    """In-process ``cfgen.cli.main(argv)`` calls writing to ``--out``, cycling
    over the shipped fixtures: exact simple and stable counterfactuals,
    sampled gumbel and its counterfactuals, compare, validate, bounds and
    the example1 suite. Each call builds a parser, loads a file and emits
    JSON, so this is the workload that sees the CLI's own cost."""

    MODELS = {"lm3.json": ("a", "b"), "lm_asym.json": ("p", "q"), "lm_topk.json": ("p", "q")}

    def __init__(self, cf, api, root: Path, rng, count, work: Path) -> None:
        self.cf, self.api, self.rng = cf, api, rng
        self.fixtures = root / "fixtures"
        self.work = work / "cli"
        self.work.mkdir(exist_ok=True)
        self.params = cf.SamplingParams()
        self.lms, self.laws, self.pickers = {}, {}, {}
        for name, prompts in self.MODELS.items():
            lm = self.lms[name] = api.lm_from_json((self.fixtures / name).read_text())
            for x in prompts:
                law = self.laws[name, x] = api.seq_dist(lm, lm.vocab.seq([x]), self.params)
                self.pickers[name, x] = Picker(law)
        self.expected: dict = {}
        self.seen: dict = {}

    def queries(self):
        rng = self.rng
        while True:
            for kind in ("simple", "stable", "gumbel", "its", "compare"):
                name = rng.choice(list(self.MODELS))
                x, x_star = rng.choice(self.MODELS[name]), rng.choice(self.MODELS[name])
                y = self._render(self.lms[name], self.pickers[name, x].pick(rng))
                yield self._token_request(kind, name, x, y, x_star)
            yield self._request(
                ["validate", "--model", str(self.fixtures / "example1_nondet.json")],
                lambda text: expect(json.loads(text)["ok"] is True, "model invalid"),
            )
            p, q = round(rng.uniform(0.05, 0.45), 4), round(rng.uniform(0.55, 0.95), 4)
            cause = rng.randrange(2)
            query = f"Y*={rng.randrange(2)}|Y={rng.randrange(2)},X={cause},X*={1 - cause}"
            yield self._request(
                ["bounds", "--p", str(p), "--q", str(q), "--query", query], self._check_bounds,
            )
            yield self._request(["verify", "--suite", "example1"], self._check_verify)

    @staticmethod
    def _render(lm, seq) -> str:
        return " ".join(lm.vocab.strings(seq.stripped()))

    def _token_request(self, kind, name, x, y, x_star):
        argv = ["--model", str(self.fixtures / name), "--prompt", x, "--cf-prompt", x_star]
        seed = str(self.rng.randrange(4))
        if kind == "simple":
            argv = ["counterfactual", *argv, "--method", "simple", "--exact"]
        elif kind == "stable":
            argv = ["counterfactual", *argv, "--method", "stable", "--exact",
                    "--factual-output", y]
        elif kind == "compare":
            argv = ["compare", *argv, "--factual-output", y, "--samples", "64", "--seed", seed]
        else:
            argv = ["counterfactual", *argv, "--method", kind, "--factual-output", y,
                    "--samples", "32", "--seed", seed]
        support = self.laws[name, x_star].support
        lm = self.lms[name]
        rendered_support = {self._render(lm, s) for s in support}

        def check(text):
            payload = json.loads(text)
            if kind in ("gumbel", "its"):
                expect(len(payload["draws"]) == 32, "wrong number of draws")
                expect(set(payload["draws"]) <= rendered_support, "draw outside the support at x*")
                if x_star == x:
                    expect(set(payload["draws"]) == {y}, "replay at the kept prompt did not return y")
            elif kind == "compare":
                for method in ("simple", "stable"):
                    _expect_same_law(payload["dists"][method], self._law(method, name, x, y, x_star))
            else:
                _expect_same_law(payload["dist"], self._law(kind, name, x, y, x_star))
                if kind == "stable" and x_star == x:
                    expect(payload["dist"] == {y: 1.0}, "kept prompt is not a point mass on y")

        return self._request(argv, check)

    def _law(self, method, name, x, y, x_star) -> dict:
        """The library's exact law for the CLI's (x, y, x*), rendered as the CLI does."""
        key = (method, name, x, y, x_star)
        if key not in self.expected:
            cf, lm = self.cf, self.lms[name]
            query = cf.CfQuery(lm.vocab.seq([x]), lm.vocab.seq(y.split()).padded(lm.k),
                               lm.vocab.seq([x_star]))
            exact = cf.simple_cf_dist if method == "simple" else cf.stable_cf_dist
            law = exact(lm, query, self.params)
            self.expected[key] = {
                self._render(lm, s): p for s, p in sorted(law.items(), key=lambda kv: kv[0].ids)
            }
        return self.expected[key]

    @staticmethod
    def _check_bounds(text) -> None:
        payload = json.loads(text)
        # the same rounding slack BoundsResult itself allows
        lo, hi = payload["lo"], payload["hi"]
        expect(-CLAIM_TOL <= lo <= hi <= 1.0 + CLAIM_TOL, f"bounds [{lo!r}, {hi!r}] out of order")
        expect(isinstance(payload["resampling_answer_within_bounds"], bool), "bad bounds payload")

    @staticmethod
    def _check_verify(text) -> None:
        for line in text.splitlines():
            expect(json.loads(line)["passed"] is True, "a verify claim failed")

    def _request(self, argv, check):
        out = self.work / "request.out"
        full = [*argv, "--out", str(out)]
        main = self.api.cli_main

        def run():
            return main(full)

        def check_request(code):
            expect(code == 0, f"{argv[0]} exited {code}")
            data = out.read_bytes()
            # each request writes a new file: reopening one with "w" truncates it,
            # and ext4 starts writeback on closing a truncated file
            out.unlink()
            check(data.decode())
            digest = hashlib.sha256(data).hexdigest()
            key = tuple(argv)
            expect(self.seen.setdefault(key, digest) == digest,
                   "a repeated request gave different bytes")
            return digest

        return run, check_request


WORKLOADS = {
    "noise_reuse": NoiseReuse,
    "exact_law": ExactLaw,
    "causal_check": CausalCheck,
    "cli_requests": CliRequests,
}
