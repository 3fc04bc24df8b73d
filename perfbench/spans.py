"""The cfgen calls the benchmark makes, and the spans a traced run puts around them.

Every call into cfgen that a per-layer metric names goes through an ``Api``
namespace. Untraced, its attributes are cfgen's own functions, so the
untraced run pays nothing. Traced, each is wrapped in a span that records
its name, label, start, end, parent span and query id. Spans stay in memory
and are aggregated, and written out, when the run ends.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

# short name workloads call (``api.seq_dist``) -> (span name, cfgen module,
# attribute path).
CALLS = {
    "derive_seed": ("seeding.derive_seed", "seeding", "derive_seed"),
    "sample_output": ("tokenlm.sample_output", "tokenlm", "sample_output"),
    "seq_dist": ("tokenlm.seq_dist", "tokenlm", "seq_dist"),
    "compile_to_nondet": ("tokenlm.compile_to_nondet", "tokenlm", "compile_to_nondet"),
    "lm_from_json": ("tokenlm.lm_from_json", "tokenlm", "lm_from_json"),
    "gumbel_posterior_noise": (
        "generators.gumbel_posterior_noise", "generators", "gumbel_posterior_noise"
    ),
    "its_posterior_noise": ("generators.its_posterior_noise", "generators", "its_posterior_noise"),
    "gumbel_cf_sample": ("generators.gumbel_cf_sample", "generators", "gumbel_cf_sample"),
    "its_cf_sample": ("generators.its_cf_sample", "generators", "its_cf_sample"),
    "gumbel_factual_run": ("generators.gumbel_factual_run", "generators", "gumbel_factual_run"),
    "stability_check": ("generators.stability_check", "generators", "stability_check"),
    "stable_cf_dist": ("generators.stable_cf_dist", "generators", "stable_cf_dist"),
    "random_table_lm": ("oracle.random_table_lm", "oracle", "random_table_lm"),
    "random_nondet_model": ("oracle.random_nondet_model", "oracle", "random_nondet_model"),
    "random_u_independent_scm": (
        "oracle.random_u_independent_scm", "oracle", "random_u_independent_scm"
    ),
    "counterfactual_dist": ("nondet.counterfactual_dist", "nondet", "counterfactual_dist"),
    "counterfactual_dist_cases": (
        "nondet.counterfactual_dist_cases", "nondet", "counterfactual_dist_cases"
    ),
    "to_nondet_when_u_irrelevant": (
        "detscm.to_nondet_when_u_irrelevant", "detscm", "to_nondet_when_u_irrelevant"
    ),
    "det_counterfactual": ("detscm.det_counterfactual", "detscm", "det_counterfactual"),
    "project": ("dist.project", "dist", "DistTable.project"),
    "max_abs_diff": ("dist.max_abs_diff", "dist", "max_abs_diff"),
    "cli_main": ("cli", "cli", "main"),
}


def params_label(params) -> str:
    """``t1``, ``t0_5``, ``topk3``, ``topp0_9``: the reshaping a law was asked for."""
    if params.top_k is not None:
        return f"topk{params.top_k}"
    if params.top_p is not None:
        return f"topp{params.top_p:g}".replace(".", "_")
    return f"t{params.temperature:g}".replace(".", "_")


def _seq_dist_counts(args, result) -> dict:
    lm, x = args[0], args[1]
    return {"outcomes": len(result), "budget": lm.vocab.size ** (lm.k - x.effective_len)}


def _cases_counts(args, result) -> dict:
    m = args[0]
    candidates = 1
    for name in m.non_roots:
        candidates *= len(m.domain(name))
    return {"candidates": candidates, "worlds": len(result)}


def _cli_bytes(args, result) -> dict:
    argv = args[0]
    return {"bytes_out": Path(argv[argv.index("--out") + 1]).stat().st_size}


# Span name -> fn(args) giving a label; the span also counts under name.label.
LABELS = {
    "tokenlm.seq_dist": lambda args: params_label(args[2]),
    "generators.stable_cf_dist": lambda args: params_label(args[2]),
    "cli": lambda args: args[0][0],
}

# Span name -> fn(args, result) giving counters that sum under name.counter.
COUNTERS = {
    "tokenlm.seq_dist": _seq_dist_counts,
    "generators.stable_cf_dist": lambda args, result: {"outcomes": len(result)},
    "generators.stability_check": lambda args, result: {
        "positions": result.checked, "violations": result.violations,
    },
    "tokenlm.compile_to_nondet": lambda args, result: {
        "rows": sum(len(cpt.rows) for cpt in result.cpts.values()),
    },
    "nondet.counterfactual_dist": lambda args, result: {"worlds": len(result)},
    "nondet.counterfactual_dist_cases": _cases_counts,
    "cli": _cli_bytes,
}


class Tracer:
    """In-memory spans: ``[name, label, start, end, parent, query]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.query = -1
        self._open: list[int] = []

    def begin(self, name: str, label: str | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, label, time.perf_counter(), None, parent, self.query])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn):
        label_of = LABELS.get(name)
        counters_of = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name, label_of(args) if label_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counters_of:
                for key, value in counters_of(args, result).items():
                    self.count(f"{name}.{key}", value)
            return result

        return traced

    def aggregate(self) -> dict[str, float]:
        """``calls`` and self-time ``busy_s`` per span name and per name.label,
        plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for (name, label, start, end, _, _), children in zip(self.spans, child_time):
            busy = end - start - children
            for key in (name, f"{name}.{label}") if label else (name,):
                out[f"{key}.calls"] += 1
                out[f"{key}.busy_s"] += busy
        out.update(self.counts)
        return dict(out)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as f:
            f.write("name\tlabel\tstart\tend\tparent\tquery\n")
            for span in self.spans:
                f.write("\t".join(str(v) for v in span) + "\n")


def build_api(cf, tracer: Tracer | None) -> SimpleNamespace:
    api = SimpleNamespace()
    for short, (name, module, path) in CALLS.items():
        fn = getattr(cf, module)
        for attr in path.split("."):
            fn = getattr(fn, attr)
        setattr(api, short, tracer.wrap(name, fn) if tracer else fn)
    return api
