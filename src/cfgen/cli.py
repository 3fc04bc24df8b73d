"""Command-line surface.

Subcommands: validate, counterfactual, verify, bounds, compare. All output
is deterministic given the flags and seed (sorted JSON keys, derived
per-sample seeds, no wall-clock anywhere), so identical invocations produce
byte-identical files. Seeds are mandatory in sample mode; ambient state
never silently influences results.

``validate`` reads either file kind: a causal model gets the structural
report, a token model (an object with a "vocab" key) is checked by its
loader. Exit codes: 0 ok, 1 verification failure, 2 bad configuration or
usage, 3 bad model or impossible evidence, 4 enumeration cap exceeded. The
environment variable CFGEN_ENUM_CAP overrides the default world cap for
``counterfactual`` and ``compare``; ``verify`` runs fixed instances at the
default cap of 10^7 and never reads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path

from .detscm import BinaryCfQuery, counterfactual_bounds_binary, positivity, simple_binary_answer
from .dist import DistTable, draw, tvd
from .errors import CfgenError, EnumerationCapError, InputError, ModelError, read_json
from .fixtures import asymmetric_lm, lm3_model, topk_violation_lm
from .generators import (
    CfQuery,
    gumbel_cf_sample,
    gumbel_posterior_noise,
    its_cf_sample,
    its_posterior_noise,
    simple_cf_dist,
    simple_cf_sample,
    stable_cf_dist,
    trace_from_json,
)
from .nondet import DEFAULT_ENUM_CAP, ValidationReport, VerificationReport, model_from_json
from .nondet import validate_model
from .oracle import (
    random_table_lm,
    sweep_det_nondet_equivalence,
    verify_canonical_binary,
    verify_compiled_simple_semantics,
    verify_gumbel_stability,
    verify_zero_temperature,
)
from .seeding import derive_seed, make_rng
from .tokenlm import SamplingParams, TokenSeq, ToyLM, lm_from_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_CAP = 4

METHODS = ("simple", "gumbel", "its", "stable")
SUITES = ("thm1", "thm2", "corollary", "example1", "stability", "all")


def _enum_cap() -> int:
    raw = os.environ.get("CFGEN_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"CFGEN_ENUM_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError("CFGEN_ENUM_CAP must be positive")
    return cap


def _read_text(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{what} file not found: {path}")
    return p.read_text()


def _load_lm(path: str) -> ToyLM:
    return lm_from_json(_read_text(path, "model"))


def _parse_seq(lm: ToyLM, text: str, what: str) -> TokenSeq:
    tokens = text.split()
    if not tokens:
        raise InputError(f"{what} must contain at least one token")
    seq = lm.vocab.seq(tokens)
    if seq.has_empty:
        raise InputError(f"{what} must not contain the EMPTY token")
    return seq


def _parse_output(lm: ToyLM, text: str, x: TokenSeq, x_star: TokenSeq) -> TokenSeq:
    """``--factual-output`` in padded form. One longer than k is refused
    with a line naming it and each of ``--prompt`` (``x``) and
    ``--cf-prompt`` (``x_star``) that is longer too."""
    y = lm.vocab.seq(text.split())
    if y.effective_len > lm.k:
        flags = (("--prompt", x), ("--cf-prompt", x_star), ("--factual-output", y))
        long = [f"{flag} has {s.effective_len}" for flag, s in flags if s.effective_len > lm.k]
        raise InputError(f"more than k={lm.k} tokens: {', '.join(long)}")
    return y.padded(lm.k)


def _render_seq(lm: ToyLM, seq: TokenSeq) -> str:
    return " ".join(lm.vocab.strings(seq.stripped()))


def _dist_payload(lm: ToyLM, d: DistTable) -> dict[str, float]:
    return {
        _render_seq(lm, seq): p
        for seq, p in sorted(d.entries.items(), key=lambda kv: kv[0].ids)
    }


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        table = payload.get("dist") or payload.get("empirical") or {}
        for key, p in table.items():
            lines.append(f"{key}\t{p!r}")
        for draw in payload.get("draws", []):
            lines.append(f"draw\t{draw}")
        text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    text = _read_text(args.model, "model")
    if "vocab" in read_json(text, dict):  # a token model: the loader is its check
        lm = lm_from_json(text)
        notes = (
            f"token model: type {lm.kind}, k={lm.k}, {lm.vocab.size} tokens, "
            f"{len(lm.table)} rows",
        )
        report = ValidationReport(True, (), notes)
    else:
        report = validate_model(model_from_json(text))
    _emit(report.to_dict(), "json", args.out)
    return EXIT_OK if report.ok else EXIT_MODEL


def _sample_table(lm: ToyLM, draws: list[TokenSeq]) -> dict[str, float]:
    counts = Counter(_render_seq(lm, s) for s in draws)
    return {k: c / len(draws) for k, c in sorted(counts.items())}


def _check_counterfactual_flags(args: argparse.Namespace) -> None:
    """The checks that span more than one ``counterfactual`` flag."""
    if args.exact and args.samples is not None:
        raise InputError("exact mode does not take --samples")
    if not args.exact:
        if args.samples is None or args.samples < 1:
            raise InputError("sample mode needs --samples >= 1")
        if args.seed is None:
            raise InputError("sample mode needs an explicit --seed")
    if args.trace is not None and args.method not in ("gumbel", "its"):
        raise InputError(f"{args.method} does not read --trace; only gumbel and its replay one")
    if args.method in ("gumbel", "its"):
        if args.exact:
            raise InputError(f"{args.method} has no exact mode; use --samples")
        if args.factual_output is None and args.trace is None:
            raise InputError(f"{args.method} needs --factual-output or --trace")
        if args.trace is not None and args.samples != 1:
            raise InputError("a stored trace is one deterministic replay; use --samples 1")
    if args.method == "stable" and args.factual_output is None:
        raise InputError("stable needs --factual-output")


def _require_untruncated(params: SamplingParams, what: str) -> None:
    """Gumbel hindsight noise refuses truncation; say so in terms of flags."""
    if params.truncates:
        raise InputError(f"--top-k/--top-p break noise-reuse stability; {what} cannot take them")


_EXACT = {"simple": simple_cf_dist, "stable": stable_cf_dist}
_NOISE_REUSE = {
    "gumbel": (gumbel_posterior_noise, gumbel_cf_sample),
    "its": (its_posterior_noise, its_cf_sample),
}


def _replays(
    lm: ToyLM, method: str, q: CfQuery, params: SamplingParams, seeds: list[int], trace=None
) -> list[TokenSeq]:
    """Noise reuse: replays at ``q.x_star`` of the stored ``trace``, or else of
    hindsight noise for ``q.y`` at ``q.x``, one per seed."""
    posterior, replay = _NOISE_REUSE[method]
    return [replay(lm, trace or posterior(lm, q.x, q.y, params, s), q.x_star) for s in seeds]


def cmd_counterfactual(args: argparse.Namespace) -> int:
    params = SamplingParams(args.temperature, args.top_k, args.top_p)
    _check_counterfactual_flags(args)
    cap = _enum_cap()
    lm = _load_lm(args.model)
    x = _parse_seq(lm, args.prompt, "--prompt")
    x_star = _parse_seq(lm, args.cf_prompt, "--cf-prompt")
    y = None if args.factual_output is None else _parse_output(lm, args.factual_output, x, x_star)
    q = CfQuery(x, x if y is None else y, x_star)

    payload: dict = {
        "method": args.method,
        "mode": "exact" if args.exact else "sample",
        "prompt": args.prompt,
        "cf_prompt": args.cf_prompt,
        "factual_output": args.factual_output,
        "params": {
            "temperature": params.temperature,
            "top_k": params.top_k,
            "top_p": params.top_p,
        },
        "seed": args.seed,
    }

    if args.exact:
        payload["dist"] = _dist_payload(lm, _EXACT[args.method](lm, q, params, cap))
        _emit(payload, args.format, args.out)
        return EXIT_OK

    n = args.samples
    if args.method == "simple":
        draws = [simple_cf_sample(lm, q, params, derive_seed(args.seed, i)) for i in range(n)]
    elif args.method == "stable":
        dist = stable_cf_dist(lm, q, params, cap)
        outcomes = sorted(dist.entries, key=lambda seq: seq.ids)
        probs = [dist.entries[seq] for seq in outcomes]
        rng = make_rng(args.seed)
        draws = [outcomes[draw(probs, rng.random())] for _ in range(n)]
    else:
        # every trace replayed below, stored or hindsight, carries ``params``
        trace = None
        if args.trace is not None:
            trace = trace_from_json(lm, _read_text(args.trace, "trace"))
            if trace.x != x.stripped():
                raise InputError("--prompt does not match the trace's factual prompt")
            if y is not None and y != trace.y:
                raise InputError("--factual-output does not match the trace's factual output")
            if trace.params != params:
                raise InputError(
                    f"--temperature/--top-k/--top-p do not match the trace's {trace.params}"
                )
        elif args.method == "gumbel":
            _require_untruncated(params, "--method gumbel")
        seeds = [derive_seed(args.seed, i) for i in range(n)]
        draws = _replays(lm, args.method, q, params, seeds, trace)
    payload["draws"] = [_render_seq(lm, s) for s in draws]
    payload["empirical"] = _sample_table(lm, draws)
    _emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    query = BinaryCfQuery.parse(args.query)
    result = counterfactual_bounds_binary(args.p, args.q, query)
    answer = simple_binary_answer(args.p, args.q, query)
    payload = result.to_dict()
    payload["query"] = args.query
    payload["resampling_answer"] = answer
    payload["resampling_answer_within_bounds"] = bool(result.lo <= answer <= result.hi)
    payload["positivity"] = {
        "arg_lo": positivity(result.arg_lo),
        "arg_hi": positivity(result.arg_hi),
    }
    _emit(payload, "json", args.out)
    return EXIT_OK


def _verify_reports(suite: str, seed: int) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    lm3 = lm3_model()
    if suite in ("thm1", "all"):
        reports.append(sweep_det_nondet_equivalence(50, seed=derive_seed(seed, 1)))
    if suite in ("thm2", "all"):
        reports.append(verify_compiled_simple_semantics(lm3, SamplingParams(), 1))
        reports.append(verify_compiled_simple_semantics(lm3, SamplingParams(), 2))
        for i, temp in enumerate((0.5, 1.0, 2.0)):
            lm = random_table_lm(make_rng(derive_seed(seed, 10 + i)), 3, 3)
            reports.append(
                verify_compiled_simple_semantics(lm, SamplingParams(temperature=temp), 1)
            )
    if suite in ("corollary", "all"):
        reports.append(verify_zero_temperature(lm3, 1))
        lm = random_table_lm(make_rng(derive_seed(seed, 20)), 3, 3)
        reports.append(verify_zero_temperature(lm, 1))
    if suite in ("example1", "all"):
        reports.append(verify_canonical_binary())
    if suite in ("stability", "all"):
        asym = asymmetric_lm()
        reports.append(
            verify_gumbel_stability(
                asym,
                asym.vocab.seq(["p"]),
                asym.vocab.seq(["q"]),
                n_traces=10_000,
                seed=derive_seed(seed, 30),
            )
        )
        topk = topk_violation_lm()
        reports.append(
            verify_gumbel_stability(
                topk,
                topk.vocab.seq(["p"]),
                topk.vocab.seq(["q"]),
                n_traces=2_000,
                seed=derive_seed(seed, 31),
                cf_params=SamplingParams(top_k=1),
            )
        )
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    reports = _verify_reports(args.suite, args.seed)
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def cmd_compare(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise InputError("compare needs an explicit --seed")
    if args.samples < 1:
        raise InputError("compare needs --samples >= 1")
    cap = _enum_cap()
    lm = _load_lm(args.model)
    params = SamplingParams(args.temperature, args.top_k, args.top_p)
    x = _parse_seq(lm, args.prompt, "--prompt")
    x_star = _parse_seq(lm, args.cf_prompt, "--cf-prompt")
    if args.factual_output is None:
        raise InputError("compare needs --factual-output")
    y = _parse_output(lm, args.factual_output, x, x_star)
    q = CfQuery(x, y, x_star)
    n = args.samples

    tables = {name: law(lm, q, params, cap) for name, law in _EXACT.items()}
    exactness = dict.fromkeys(tables, "exact")

    _require_untruncated(params, "compare's gumbel row")
    for name, offset in (("gumbel", 0), ("its", n)):
        seeds = [derive_seed(args.seed, offset + i) for i in range(n)]
        draws = _replays(lm, name, q, params, seeds)
        # keyed in set order, which fixes the order of the tvd sums below
        counts = Counter(draws)
        tables[name] = DistTable.from_counts({s: counts[s] for s in set(draws)})
        exactness[name] = f"empirical (n={n})"

    names = ("simple", "gumbel", "its", "stable")
    pairwise = {
        f"{a}|{b}": tvd(tables[a], tables[b])
        for i, a in enumerate(names)
        for b in names[i:]
    }
    payload = {
        "prompt": args.prompt,
        "cf_prompt": args.cf_prompt,
        "factual_output": args.factual_output,
        "n": n,
        "seed": args.seed,
        "estimator": exactness,
        "tvd": pairwise,
        "dists": {name: _dist_payload(lm, t) for name, t in tables.items()},
    }
    _emit(payload, "json", args.out)
    return EXIT_OK


# --- wiring ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused by
    every later one in the process. argparse keeps no per-parse state on it,
    and reads the output streams and the terminal width when it prints, not
    when it builds."""
    parser = argparse.ArgumentParser(
        prog="cfgen",
        description="Exact counterfactual generation for toy autoregressive token models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a causal-model or token-model file")
    p_val.add_argument("--model", required=True)
    p_val.add_argument("--out")

    p_cf = sub.add_parser("counterfactual", help="generate counterfactual outputs")
    p_cf.add_argument("--model", required=True)
    p_cf.add_argument("--prompt", required=True)
    p_cf.add_argument("--cf-prompt", required=True)
    p_cf.add_argument("--method", required=True, choices=METHODS)
    p_cf.add_argument("--exact", action="store_true")
    p_cf.add_argument("--samples", type=int)
    p_cf.add_argument("--seed", type=int)
    p_cf.add_argument("--factual-output")
    p_cf.add_argument("--trace")
    p_cf.add_argument("--temperature", type=float, default=1.0)
    p_cf.add_argument("--top-k", type=int)
    p_cf.add_argument("--top-p", type=float)
    p_cf.add_argument("--format", choices=("json", "tsv"), default="json")
    p_cf.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run the claim-verification suites")
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=20240501)
    p_ver.add_argument("--out")

    p_b = sub.add_parser("bounds", help="identification bounds for the binary model")
    p_b.add_argument("--p", type=float, required=True)
    p_b.add_argument("--q", type=float, required=True)
    p_b.add_argument("--query", required=True, help='e.g. "Y*=0|Y=1,X=1,X*=0"')
    p_b.add_argument("--out")

    p_cmp = sub.add_parser("compare", help="pairwise distances between the methods")
    p_cmp.add_argument("--model", required=True)
    p_cmp.add_argument("--prompt", required=True)
    p_cmp.add_argument("--cf-prompt", required=True)
    p_cmp.add_argument("--factual-output")
    p_cmp.add_argument("--samples", type=int, default=10_000)
    p_cmp.add_argument("--seed", type=int)
    p_cmp.add_argument("--temperature", type=float, default=1.0)
    p_cmp.add_argument("--top-k", type=int)
    p_cmp.add_argument("--top-p", type=float)
    p_cmp.add_argument("--out")

    return parser


_DISPATCH = {
    "validate": cmd_validate,
    "counterfactual": cmd_counterfactual,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except InputError as e:
        print(f"error (config): {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as e:
        print(f"error (model): {e}", file=sys.stderr)
        return EXIT_MODEL
    except EnumerationCapError as e:
        print(f"error (cap): {e}", file=sys.stderr)
        return EXIT_CAP
    except CfgenError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
