#!/usr/bin/env python3
"""Repository benchmark for the flooding reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_long --seed 1 --seconds 30 --trace 0

Workloads: ``sweep_long`` (long-flood batch sweeps), ``survey_variants``
(Monte-Carlo survey of the flooding variants) and ``serve_zipf``
(Zipf-popular async queries against a cached session).  ``BENCHMARK.json``
lists only the first two: ``serve_zipf`` runs the same way but is left
out of the benchmark because its figures were not steady from run to
run on a shared 2-core host (see ``README.md``).  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` is the separate traced
run that reports the per-layer metrics.  Every answer is checked; a
wrong answer makes the exit code non-zero.  The last line of standard
output is the JSON result; a full record (environment, metrics,
problems, spans) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sweep_long", "survey_variants", "serve_zipf")

E2E_UNITS = {
    "setup_s": "s",
    "runs_per_s": "floods/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "saturation_qps": "queries/s",
    "peak_rss_mb": "MB",
}

_VARIANTS = ("lossy", "thinning", "random_delay", "kmemory", "periodic",
             "multi_message", "dynamic")
PER_LAYER_UNITS = {
    "graphs.build_s": "s",
    "api.spec_build_us": "us",
    "api.spec_build_dynamic_ms": "ms",
    "api.digest_us": "us",
    "api.wrap_us": "us",
    "api.plan_us": "us",
    "fastpath.index_freeze_s": "s",
    "fastpath.probe_ms": "ms",
    "fastpath.route.oracle_share": "share",
    "fastpath.route.regret": "ratio",
    "fastpath.lane.pure_ms_per_run": "ms/run",
    "fastpath.lane.numpy_ms_per_run": "ms/run",
    "fastpath.lane.oracle_ms_per_run": "ms/run",
    "fastpath.lane.bitset_ms_per_run": "ms/run",
    "fastpath.kernel_s": "s",
    "fastpath.messages": "count",
    "fastpath.rounds": "count",
    **{f"variants.{kind}_ns_per_msg": "ns/msg" for kind in _VARIANTS},
    "variants.messages": "count",
    "parallel.pool_warm_s": "s",
    "parallel.efficiency": "ratio",
    "parallel.chunks": "count",
    "parallel.chunk_runs_mean": "runs",
    "parallel.ipc_bytes_per_run": "B/run",
    "parallel.submit_rtt_ms": "ms",
    "service.hit_path_us": "us",
    "service.miss_overhead_ms": "ms",
    "service.batches": "count",
    "service.mean_batch": "requests",
    "service.coalesced_batches": "count",
    "service.waited": "count",
    "service.rejected": "count",
    "service.timeouts": "count",
    "service.register_s": "s",
    "cache.hit_rate": "share",
    "cache.coalesced": "count",
    "cache.stores": "count",
    "cache.evictions": "count",
    "cache.size_bytes": "B",
    "cache.get_us": "us",
    "cache.decode_us": "us",
    "cache.encode_us": "us",
    "cache.put_us": "us",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "loadgen.lag_ms_max": "ms",
    "trace.overhead_share": "share",
    "failed_share": "share",
}

def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {src}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def end_to_end(workload: str, seed: int, seconds: float):
    import loads
    import measure
    from verify import Checker

    if workload == "serve_zipf":

        async def serve():
            prepared = await loads.setup_serve(seed)
            checker = Checker(prepared.graphs, seed)
            try:
                timed, answers, universe = await loads.run_serve(
                    seed, prepared, seconds, checker
                )
                rss = measure.peak_rss_mb()
            finally:
                await prepared.session.aclose()
            loads.check_serve(seed, answers, universe, checker)
            return prepared, checker, timed, rss

        prepared, checker, timed, rss = asyncio.run(serve())
    else:
        prepared = loads.setup_batch(workload, seed)
        checker = Checker(prepared.graphs, seed)
        try:
            timed, answered = loads.run_batches(
                workload, seed, prepared, seconds, checker
            )
            rss = measure.peak_rss_mb()
            loads.check_batches(workload, seed, prepared.session, answered, checker)
        finally:
            prepared.session.close()
    metrics = loads.e2e_metrics(timed, prepared.setup_times, rss)
    return metrics, checker, timed, None


def traced(workload: str, seed: int, seconds: float):
    import layers
    import seeded
    from verify import Checker

    checker = Checker(seeded.workload_graphs(workload, seed, 0), seed)
    share = seconds / 2
    if workload == "serve_zipf":
        values, tracer, timed = asyncio.run(layers.trace_serve(seed, share, checker))
    else:
        values, tracer, timed = layers.trace_batches(workload, seed, share, checker)
    missing = set(PER_LAYER_UNITS) - set(values)
    extra = set(values) - set(PER_LAYER_UNITS)
    if missing or extra:
        raise RuntimeError(f"per-layer metrics mismatch: missing {missing}, extra {extra}")
    metrics = {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
    return metrics, checker, timed, tracer


def report(
    workload: str,
    env: Dict[str, object],
    digest: str,
    metrics: Dict[str, Tuple[float, str]],
    checker,
    timed,
    failed_share: float,
) -> None:
    import measure

    print(f"perfbench {workload}: seed {env['seed']}, inputs {digest[:16]}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if int(env["usable_cores"]) < 2:
        print(
            "NOTE: fewer than 2 usable cores; every pooled path ran serially, "
            "so pooled numbers here are serial numbers"
        )
    if timed.latencies_ms:
        tail = measure.tail_percentile(timed.latencies_ms)
        if tail is None:
            print(
                f"latency: {len(timed.latencies_ms)} samples, too few for any "
                "percentile with 10 samples beyond it"
            )
        else:
            pct, value, count = tail
            print(
                f"latency: {count} samples; highest percentile with >= 10 "
                f"samples beyond it: p{pct:g} = {value:.3f} ms"
            )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"failed_share = {failed_share:.6g} (failed {checker.failed} of {timed.attempted})")
    print(f"checks: {checker.checked} made, {checker.failed} failed")
    for problem in checker.problems:
        print(f"  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    use_checkout_source()
    import measure
    import seeded

    env = measure.environment(ROOT, args.seed)
    digest = seeded.input_digest(args.seed, args.workload)
    if args.trace:
        metrics, checker, timed, tracer = traced(args.workload, args.seed, args.seconds)
    else:
        metrics, checker, timed, tracer = end_to_end(
            args.workload, args.seed, args.seconds
        )
    attempted = max(1, timed.attempted, checker.failed)
    failed_share = checker.failed / attempted
    correct = checker.failed == 0
    report(args.workload, env, digest, metrics, checker, timed, failed_share)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "environment": env,
        "input_digest": digest,
        "held_out_seed": seeded.HELD_OUT_SEED,
        "latency_samples": len(timed.latencies_ms),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failed_share": failed_share,
        "problems": checker.problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")
    print(measure.result_line(correct, attempted, checker.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
