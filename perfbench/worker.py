"""Run one workload in this fresh process and print its figures as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

One caller, one thread, closed loop: each query is issued only after the
previous one has returned, until the queries have taken ``--seconds`` and
number at least ``MIN_QUERIES``. The inputs come from ``random.Random(N)``.
Set-up (a fresh import of cfgen from the checkout's ``src/`` plus the
workload's models and the first query's inputs) runs several times; the
last set-up is the one whose state the timed phase uses. GC stays on, as
users run it.

Every timing is reported twice: raw, and scaled to a reference host speed
measured by slices of ``calibrate``'s kernel run between queries and around
each set-up. The end-to-end metrics are the scaled ones.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 7
SETUP_SLICES = 20
MIN_QUERIES = 1000
DIGEST_QUERIES = 1000
BLOCK_S = 0.5


def import_cfgen():
    """A fresh import of cfgen; refuses any copy but the checkout's own."""
    for name in [m for m in sys.modules if m == "cfgen" or m.startswith("cfgen.")]:
        del sys.modules[name]
    cf = importlib.import_module("cfgen")
    importlib.import_module("cfgen.cli")  # the package does not import its CLI
    if Path(cf.__file__).resolve() != SRC / "cfgen" / "__init__.py":
        raise SystemExit(f"cfgen imported from {cf.__file__}, not from {SRC}")
    return cf


def scale(latencies, blocks) -> array.array:
    """Each latency scaled by the host speed the kernel slices of its block measured.

    ``blocks`` holds ``(end, slices)`` per block of BLOCK_S of query time:
    the queries before index ``end`` and the slice timings taken among them.
    A block without slices (a short last one) takes its predecessor's speed.
    """
    scaled, start, speed = array.array("d"), 0, None
    for end, slices in blocks:
        if slices or speed is None:
            speed = calibrate.factor(slices or [calibrate.slice_s()])
        scaled.extend(t / speed for t in latencies[start:end])
        start = end
    return scaled


def timings(latencies, setup_s) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": statistics.quantiles(latencies, n=100)[98] * 1e3,
    }


def set_up(name: str, seed: int, tracer, work: Path):
    cf = import_cfgen()
    api = spans.build_api(cf, tracer)
    count = tracer.count if tracer else lambda *_: None
    workload = workloads.WORKLOADS[name](cf, api, ROOT, random.Random(seed), count, work)
    queries = workload.queries()
    return queries, next(queries)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    # each set-up is scaled by the host speed the slices just before and
    # just after it measured
    setup_s, scaled_setup_s = [], []
    before = [calibrate.slice_s() for _ in range(SETUP_SLICES)]
    for i in range(SETUPS):
        queries = query = None  # drop the last set-up's state before building the next
        tracer = spans.Tracer() if args.trace and i == SETUPS - 1 else None
        start = time.perf_counter()
        queries, query = set_up(args.workload, args.seed, tracer, args.work)
        setup_s.append(time.perf_counter() - start)
        after = [calibrate.slice_s() for _ in range(SETUP_SLICES)]
        scaled_setup_s.append(setup_s[-1] / calibrate.factor(before + after))
        before = after

    latencies = array.array("d")  # compact, so the run's length barely moves peak RSS
    failures: list[str] = []
    digest = hashlib.sha256()
    busy = block_busy = since_slice = 0.0
    blocks, slices = [], []
    while True:
        run, check = query
        n = len(latencies)
        if tracer:
            tracer.query = n
            query_span = tracer.begin("query")
        start = time.perf_counter()
        try:
            out, error = run(), None
        except Exception as e:  # a failed query is counted, not fatal
            out, error = None, e
        latency = time.perf_counter() - start
        if tracer:
            tracer.end(query_span)
            tracer.query = -1
        latencies.append(latency)
        busy += latency
        since_slice += latency
        block_busy += latency
        if since_slice >= calibrate.EVERY_S:
            slices.append(calibrate.slice_s())
            since_slice = 0.0
        if block_busy >= BLOCK_S:
            blocks.append((len(latencies), slices))
            block_busy, slices = 0.0, []
        try:
            if error:
                raise error
            checked = check(out)
        except Exception as e:  # a wrong or failed answer is counted, not fatal
            failures.append(f"query {n}: {type(e).__name__}: {e}")
            checked = "failed"
        if n < DIGEST_QUERIES:
            digest.update(f"{checked!r}\n".encode())
        if busy >= args.seconds and n + 1 >= MIN_QUERIES:
            break
        query = next(queries)
    blocks.append((len(latencies), slices))

    for line in failures[:5]:
        print(line, file=sys.stderr)
    result = {
        "attempted": len(latencies),
        "failed": len(failures),
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_factor": calibrate.factor([t for _, block in blocks for t in block]),
        "raw": timings(latencies, setup_s),
        **timings(scale(latencies, blocks), scaled_setup_s),
    }
    if tracer:
        tracer.write(args.work / "spans.tsv.gz")
        result["layers"] = tracer.aggregate()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
