"""cfgen benchmark: one closed-loop workload per run, timed from outside cfgen.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it imports cfgen from the checkout's
``src/`` and nowhere else. The workload runs in a fresh worker process
(``worker.py``) whose string-hash seed is derived from ``--seed``, so a run
is reproducible and its traced and untraced processes hash alike.

With ``--trace 0`` the last line of stdout is the end-to-end result. With
``--trace 1`` the workload runs untraced and then traced, the two must give
the same output digest, and the last line holds the per-layer metrics plus
the traced/untraced throughput ratio; the spans are written to
``perfbench/out/``. The line before the last records the host: Python
version, CPUs, load average and the steal time that /proc/stat counted over
the run, and each run's raw timings beside the reported ones, which are
scaled to a reference host speed (see ``calibrate.py``). Metric names and
units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170

# Per-layer ratios: metric -> (numerator, denominator) among the summed counters.
RATIOS = {
    "tokenlm.seq_dist.outcomes_per_budget": ("tokenlm.seq_dist.outcomes", "tokenlm.seq_dist.budget"),
    "nondet.counterfactual_dist_cases.hit_ratio": (
        "nondet.counterfactual_dist_cases.worlds", "nondet.counterfactual_dist_cases.candidates",
    ),
    "generators.replay_exact_ratio": ("generators.replays_exact", "generators.replays"),
}


def steal_s() -> float:
    """Steal time of the whole host so far, from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def cpu_model() -> str:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def run_worker(args, trace: int, work: Path, deadline: float) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--work", str(work),
    ]
    env = {**os.environ, "PYTHONHASHSEED": str(args.seed % 2**32)}
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=env, timeout=deadline - time.monotonic(), check=True,
        text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(spec: dict, run: dict) -> dict:
    values = {
        **run,
        "ok_frac": (run["attempted"] - run["failed"]) / run["attempted"],
    }
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}


def per_layer(spec: dict, untraced: dict, traced: dict) -> dict:
    layers = traced["layers"]
    for name, (num, den) in RATIOS.items():
        layers[name] = layers.get(num, 0) / layers[den] if layers.get(den) else 0.0
    layers["trace.qps_ratio"] = traced["queries_per_s"] / untraced["queries_per_s"]
    return {m["name"]: metric(layers.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cfgen" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no cfgen checkout at {ROOT} (src/cfgen or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    host = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
    steal_start = steal_s()
    work = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        untraced = run_worker(args, 0, work / "untraced", deadline)
        traced = run_worker(args, 1, work / "traced", deadline) if args.trace else None
    finally:
        # keep only the spans of a traced run
        for sub in work.glob("*/cli"):
            shutil.rmtree(sub, ignore_errors=True)
        if not args.trace:
            shutil.rmtree(work, ignore_errors=True)
    host["loadavg_end"] = os.getloadavg()
    host["steal_s"] = steal_s() - steal_start

    runs = {"untraced": untraced, "traced": traced}
    summary = {
        kind: {f: v for f, v in r.items() if f != "layers"}
        for kind, r in runs.items() if r
    }
    spans = [str(p.relative_to(ROOT)) for p in work.glob("traced/spans.tsv.gz")]
    print(json.dumps({"host": host, "runs": summary, "spans": spans}))
    reported = traced or untraced
    result = {
        "correct": not untraced["failed"] and not reported["failed"],
        "attempted": reported["attempted"],
        "failed": reported["failed"],
    }
    if traced:
        result["correct"] &= traced["digest"] == untraced["digest"]
        result["metrics"] = per_layer(spec, untraced, traced)
    else:
        result["metrics"] = end_to_end(spec, untraced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
