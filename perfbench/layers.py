"""The traced run: per-layer numbers from calls into each layer.

The end-to-end loop in :mod:`loads` only sees ``FloodSession``.  Here
the same inputs are pushed through each layer's public entry points in
the order the session uses them, with a span around every call:

    graphs.build -> fastpath.index_freeze -> fastpath.probe ->
    parallel.pool_warm -> api.spec_build -> fastpath.route ->
    parallel.sweep_specs | fastpath.sweep_specs -> api.wrap

(serve_zipf adds api.digest, cache.get/decode or parallel.submit plus
cache.encode/put per request).  The composed answers must equal the
end-to-end answers bit for bit.  The composed pass runs twice, with
spans off and on, and the difference is ``trace.overhead_share``.

Timed per-layer metrics are measured by direct calls with the
workload's own inputs, also for layers off the workload's request path
(the service and cache probes on the sweeps, the variant probe on the
plain floods).  Counters (service batches, cache hits, load-generator
counts) are read from the end-to-end objects and are zero where the
workload has no such object.
"""

from __future__ import annotations

import asyncio
import json
import pickle
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api import FloodResult, FloodSession, FloodSpec, ResultCache
from repro.api.spec import BatchKey
from repro.cache import decode_run, encode_run, result_cache_key
from repro.fastpath import numpy_backend
from repro.fastpath.engine import dispatch_batch, routed_sweep_backend, sweep_specs
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.probe import probe_termination_rounds, routed_backend
from repro.fastpath.variants import variant_backend
from repro.parallel.pool import (
    MIN_PARALLEL_BATCH,
    SweepPool,
    default_chunksize,
    serial_batch_ids,
    worker_count,
)
from repro.service import FloodService

import loads
import measure
import seeded
from verify import Checker

LANE_SAMPLE = 16
"""Runs per graph timed on every eligible lane (the bitset lane needs 16)."""
SERVICE_SAMPLE = 8
"""Distinct specs per workload sent through the service probe."""
CACHE_SAMPLE = 64
SERVE_COMPOSED = 256
"""Requests of the open-loop schedule replayed by the composed pass."""
VARIANT_KINDS = {
    "lossy": "lossy:0.05",
    "thinning": "thinning:0.9",
    "random_delay": "random_delay:0.3",
    "kmemory": "kmemory:2",
    "periodic": "periodic:3,3",
    "multi_message": "multi_message",
    "dynamic": "dynamic:2",
}
KIND_NAMES = {"loss": "lossy"}
"""Variant kinds whose metric name differs from the kind."""
PROBE_BUDGET = 4


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``(id, name, start, end, parent, request)``."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[str]]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = loads.now()
        try:
            yield
        finally:
            end = loads.now()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, request))

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Per span name, the summed duration minus child spans."""
        child = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out: Dict[str, float] = {}
        for span_id, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(span_id, 0.0)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[2] for s in self.spans), default=0.0)
        rows = [
            {
                "id": span_id,
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "parent": parent,
                "request": request,
            }
            for span_id, name, start, end, parent, request in self.spans
        ]
        path.write_text(
            json.dumps({"spans": rows, "self_s": self.self_times()}, indent=1)
        )


def timed_call(fn, *args):
    start = loads.now()
    out = fn(*args)
    return out, loads.now() - start


def per(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


# ----------------------------------------------------------------------
# Traced set-up
# ----------------------------------------------------------------------


class Layers:
    """Set-up and probes for one workload's traced run."""

    def __init__(self, workload: str, seed: int, tracer: Tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.workers = worker_count()
        self.pooled_ok = self.workers > 1
        recipes = seeded.RECIPES[workload](seed, 0)
        with tracer.span("graphs.build"):
            self.graphs = seeded.build_graphs(recipes)
        self.indexes: Dict[object, IndexedGraph] = {}
        self.probes: Dict[object, Tuple[int, ...]] = {}
        self.pools: Dict[object, SweepPool] = {}
        for _, graph in self.graphs:
            with tracer.span("fastpath.index_freeze"):
                IndexedGraph(graph)
            self.indexes[graph] = IndexedGraph.of(graph)
            with tracer.span("fastpath.probe"):
                self.probes[graph] = probe_termination_rounds(self.indexes[graph])
            if self.pooled_ok:
                with tracer.span("parallel.pool_warm"):
                    pool = SweepPool(graph)
                    pool.submit_ids(
                        [[0]] * self.workers, 1, "pure", chunksize=1
                    ).result()
                self.pools[graph] = pool

    def close(self) -> None:
        for pool in self.pools.values():
            pool.close()
        self.pools.clear()

    # -- routing as the session's pooled/serial batch path does it ------

    def resolve(self, spec: FloodSpec) -> str:
        index = self.indexes[spec.graph]
        if spec.variant is not None:
            return variant_backend(index, spec.backend, spec.variant)
        if spec.backend is not None or not spec.probe:
            return routed_sweep_backend(index, spec.backend, spec.max_rounds, False)
        return routed_backend(index, self.probes[spec.graph], spec.max_rounds)

    # -- composed batch path (sweep_long, survey_variants) ---------------

    def composed_batch(self, tracer: Tracer, label: str, build, request: str):
        """One ``FloodSession.sweep`` call, layer by layer.

        Returns a record with the specs, the wrapped results, the build
        time and, per execution group, ``(group, key, pooled, wall s)``.
        """
        start = loads.now()
        with tracer.span("api.spec_build", request):
            specs = build()
        built = loads.now() - start
        groups: Dict[Tuple, List[int]] = {}
        for position, spec in enumerate(specs):
            groups.setdefault(FloodSession._group_key(spec), []).append(position)
        results: List[Optional[FloodResult]] = [None] * len(specs)
        shapes = []
        for positions in groups.values():
            group = [specs[p] for p in positions]
            with tracer.span("fastpath.route", request):
                key = group[0].batch_key(self.resolve(group[0]))
            pooled = self.pooled_ok and len(group) >= MIN_PARALLEL_BATCH
            start = loads.now()
            if pooled:
                with tracer.span("parallel.sweep_specs", request):
                    runs = self.pools[group[0].graph].sweep_specs(group)
            else:
                with tracer.span("fastpath.sweep_specs", request):
                    runs = sweep_specs(group, self.indexes[group[0].graph])
            wall = loads.now() - start
            with tracer.span("api.wrap", request):
                wrapped = [FloodResult.from_indexed(s, r) for s, r in zip(group, runs)]
            for position, result in zip(positions, wrapped):
                results[position] = result
            shapes.append((group, key, pooled, wall))
        return {"label": label, "specs": specs, "results": results,
                "built": built, "shapes": shapes}

    # -- auxiliary kernel measurements -----------------------------------

    def kernel(self, group: List[FloodSpec], key: BatchKey, pooled: bool):
        """Serial kernel time of a group, chunked as the pool chunks it.

        Returns ``(seconds, chunks, ipc bytes, raw runs)``.
        """
        index = self.indexes[group[0].graph]
        ids = [index.resolve_sources(spec.sources) for spec in group]
        run_keys = [spec.run_key() for spec in group] if key.variant else None
        size = default_chunksize(len(ids), self.workers) if pooled else len(ids)
        seconds = 0.0
        ipc = 0
        raws = []
        chunks = 0
        for start in range(0, len(ids), size):
            chunk = ids[start : start + size]
            chunk_keys = run_keys[start : start + size] if run_keys else None
            out, took = timed_call(dispatch_batch, index, chunk, key, chunk_keys)
            seconds += took
            raws.extend(out)
            chunks += 1
            if pooled:
                ipc += len(pickle.dumps((start, chunk, key, chunk_keys), pickle.HIGHEST_PROTOCOL))
                ipc += len(pickle.dumps((start, out), pickle.HIGHEST_PROTOCOL))
        return seconds, chunks, ipc, raws

    def lanes(self, specs: List[FloodSpec], resolved: str, chunk: int) -> Dict[str, float]:
        """Seconds for ``specs`` on every eligible lane and the resolved one.

        Every lane runs twice and the second, warm pass is kept: the
        first call of a backend builds its per-index memo, which would
        otherwise count against whichever lane runs first.
        """
        index = self.indexes[specs[0].graph]
        ids = [index.resolve_sources(spec.sources) for spec in specs]
        budget = specs[0].max_rounds

        def run(backend: str, groups: List[List[List[int]]]) -> float:
            key = BatchKey(budget, backend, False, False, None)
            for _ in range(2):
                start = loads.now()
                for group in groups:
                    dispatch_batch(index, group, key)
                took = loads.now() - start
            return took

        out = {
            "pure": run("pure", [ids]),
            "oracle": run("oracle", [[one] for one in ids]),
            "resolved": run(
                resolved, [ids[first : first + chunk] for first in range(0, len(ids), chunk)]
            ),
        }
        if numpy_backend.HAS_NUMPY:
            out["numpy"] = run("numpy", [ids])
            out["bitset"] = run("oracle", [ids])
        return out

    def submit_rtt_ms(self) -> float:
        if not self.pools:
            return 0.0
        pool = next(iter(self.pools.values()))
        samples = []
        for _ in range(20):
            start = loads.now()
            pool.submit_ids([[0]], 1, "pure").result()
            samples.append((loads.now() - start) * 1e3)
        return measure.median(samples)

    def variant_probe(self, graph) -> Tuple[Dict[str, float], float]:
        """ns per message of every variant stepper on ``graph`` (small
        budget), and the ms to bind one ``dynamic`` spec."""
        index = self.indexes[graph]
        nodes = graph.nodes()
        rng = seeded.rng_for(self.seed, self.workload, "variant-probe")
        out: Dict[str, float] = {}
        dynamic_ms = 0.0
        for name, scenario in VARIANT_KINDS.items():
            width = 2 if name == "multi_message" else 1
            start = loads.now()
            specs = [
                FloodSpec.from_scenario(
                    scenario, graph, rng.sample(nodes, width),
                    seed=7 + i, stream=i, max_rounds=PROBE_BUDGET,
                )
                for i in range(4)
            ]
            if name == "dynamic":
                dynamic_ms = (loads.now() - start) * 1e3 / len(specs)
            seconds = 0.0
            messages = 0
            for spec in specs:
                key = spec.batch_key(self.resolve(spec))
                raws, took = timed_call(
                    dispatch_batch, index, [index.resolve_sources(spec.sources)],
                    key, [spec.run_key()],
                )
                seconds += took
                messages += raws[0][2]
            out[name] = per(seconds, messages, 1e9)
        return out, dynamic_ms


# ----------------------------------------------------------------------
# Service and cache probes
# ----------------------------------------------------------------------


async def service_probe(specs: List[FloodSpec], layers: Layers) -> Dict[str, float]:
    """Register, then each spec once as a miss and once as a hit."""
    service = FloodService(cache=ResultCache())
    try:
        start = loads.now()
        for graph in {spec.graph for spec in specs}:
            service.register(graph)
        register_s = loads.now() - start
        overheads = []
        for spec in specs:
            start = loads.now()
            await service.query_spec(spec)
            latency = loads.now() - start
            index = layers.indexes[spec.graph]
            key = spec.batch_key(layers.resolve(spec))
            _, kernel = timed_call(
                dispatch_batch, index, [index.resolve_sources(spec.sources)],
                key, [spec.run_key()] if key.variant else None,
            )
            overheads.append((latency - kernel) * 1e3)
        hits = []
        for spec in specs:
            start = loads.now()
            await service.query_spec(spec)
            hits.append((loads.now() - start) * 1e6)
    finally:
        await service.close()
    return {
        "service.register_s": register_s,
        "service.miss_overhead_ms": measure.median(overheads),
        "service.hit_path_us": measure.median(hits),
    }


def cache_probe(results: List[FloodResult], layers: Layers) -> Dict[str, float]:
    cache = ResultCache()
    timings = {"encode": 0.0, "put": 0.0, "get": 0.0, "decode": 0.0, "digest": 0.0}
    for result in results:
        spec = result.spec
        start = loads.now()
        digest_key = result_cache_key(spec, result.backend)
        timings["digest"] += loads.now() - start
        blob, took = timed_call(encode_run, result.raw)
        timings["encode"] += took
        timings["put"] += timed_call(cache.put, digest_key, blob)[1]
        got, took = timed_call(cache.get, digest_key)
        timings["get"] += took
        timings["decode"] += timed_call(
            decode_run, got, spec, layers.indexes[spec.graph]
        )[1]
    n = len(results)
    return {
        "api.digest_us": per(timings["digest"], n, 1e6),
        "cache.get_us": per(timings["get"], n, 1e6),
        "cache.decode_us": per(timings["decode"], n, 1e6),
        "cache.encode_us": per(timings["encode"], n, 1e6),
        "cache.put_us": per(timings["put"], n, 1e6),
    }


def plan_probe(specs: List[FloodSpec], batch_size: int) -> float:
    with FloodSession() as session:
        start = loads.now()
        for spec in specs:
            session.plan(spec, batch_size)
        return per(loads.now() - start, len(specs), 1e6)


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------


def _lane_metrics(lane_runs: List[Tuple[Dict[str, float], int]]) -> Dict[str, float]:
    """Per-lane ms per run and the routing regret over the lane samples."""
    totals: Dict[str, float] = {}
    runs = 0
    fastest = 0.0
    for lanes, count in lane_runs:
        runs += count
        fastest += min(v for k, v in lanes.items() if k != "resolved")
        for name, seconds in lanes.items():
            totals[name] = totals.get(name, 0.0) + seconds
    out = {
        f"fastpath.lane.{name}_ms_per_run": per(totals.get(name, 0.0), runs, 1e3)
        for name in ("pure", "numpy", "oracle", "bitset")
    }
    out["fastpath.route.regret"] = totals["resolved"] / fastest if fastest else 0.0
    return out


def _variant_metrics(ns_per_msg: Dict[str, float]) -> Dict[str, float]:
    return {f"variants.{name}_ns_per_msg": ns_per_msg.get(name, 0.0) for name in VARIANT_KINDS}


def _common_tail(
    metrics: Dict[str, float],
    tracer: Tracer,
    layers: Layers,
    timed,
    checker: Checker,
    untraced: float,
    traced: float,
) -> None:
    metrics["graphs.build_s"] = tracer.total("graphs.build")
    metrics["fastpath.index_freeze_s"] = tracer.total("fastpath.index_freeze")
    probe_times = tracer.durations("fastpath.probe")
    metrics["fastpath.probe_ms"] = per(sum(probe_times), len(probe_times), 1e3)
    metrics["parallel.pool_warm_s"] = tracer.total("parallel.pool_warm")
    metrics["parallel.submit_rtt_ms"] = layers.submit_rtt_ms()
    metrics["loadgen.sent"] = timed.sent
    metrics["loadgen.ok"] = timed.ok
    metrics["loadgen.failed"] = timed.sent - timed.ok
    metrics["loadgen.lag_ms_max"] = timed.lag_ms_max
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    metrics["failed_share"] = per(checker.failed, max(1, timed.attempted))


def trace_batches(workload: str, seed: int, seconds: float, checker: Checker):
    """Traced run of sweep_long / survey_variants; returns (metrics, tracer, timed).

    The composed layer-by-layer pass replays the first round of the
    end-to-end run, part by part (one graph or scenario at a time).
    """
    tracer = Tracer()
    layers = Layers(workload, seed, tracer)
    try:
        prepared = loads.setup_batch(workload, seed, reps=1)
        try:
            timed, answered = loads.run_batches(workload, seed, prepared, seconds, checker)
            loads.check_batches(workload, seed, prepared.session, answered, checker)
        finally:
            prepared.session.close()

        def composed(tr: Tracer):
            return [
                layers.composed_batch(tr, label, build, label)
                for label, build in loads.batch_requests(workload, seed, 0, layers.graphs)
            ]

        start = loads.now()
        composed(Tracer(enabled=False))
        untraced = loads.now() - start
        start = loads.now()
        records = composed(tracer)
        traced = loads.now() - start

        specs, results = answered[0] if answered else ([], [])
        if [spec for part in records for spec in part["specs"]] != specs:
            checker.fail("composed pass built other specs for round 0")
        else:
            composed_results = [res for part in records for res in part["results"]]
            for spec, got, want in zip(specs, composed_results, results):
                checker.same(spec, got, want, "composed layers != FloodSession.sweep")
                if got.backend != want.backend:
                    checker.fail(f"{spec!r}: composed backend {got.backend} != {want.backend}")

        metrics: Dict[str, float] = {}
        kernel_s = pooled_kernel = pooled_wall = 0.0
        chunks = chunk_runs = ipc = 0
        kind_seconds: Dict[str, float] = {}
        kind_messages: Dict[str, int] = {}
        for record in records:
            for group, key, pooled, wall in record["shapes"]:
                seconds_k, n_chunks, n_ipc, raws = layers.kernel(group, key, pooled)
                kernel_s += seconds_k
                if pooled:
                    pooled_kernel += seconds_k
                    pooled_wall += wall
                    chunks += n_chunks
                    chunk_runs += len(group)
                    ipc += n_ipc
                if key.variant is not None:
                    kind = KIND_NAMES.get(key.variant.kind, key.variant.kind)
                    kind_seconds[kind] = kind_seconds.get(kind, 0.0) + seconds_k
                    kind_messages[kind] = kind_messages.get(kind, 0) + sum(raw[2] for raw in raws)
        metrics["fastpath.kernel_s"] = kernel_s
        metrics["parallel.efficiency"] = (
            pooled_kernel / (layers.workers * pooled_wall) if pooled_wall else 0.0
        )
        metrics["parallel.chunks"] = chunks
        metrics["parallel.chunk_runs_mean"] = per(chunk_runs, chunks)
        metrics["parallel.ipc_bytes_per_run"] = per(ipc, chunk_runs)

        all_results = [res for record in records for res in record["results"]]
        plain = [res for res in all_results if res.spec.variant is None]
        variant = [res for res in all_results if res.spec.variant is not None]
        metrics["fastpath.messages"] = sum(res.total_messages for res in plain)
        metrics["fastpath.rounds"] = sum(res.termination_round for res in plain)
        metrics["variants.messages"] = sum(res.total_messages for res in variant)
        metrics["fastpath.route.oracle_share"] = per(
            sum(1 for res in plain if res.backend == "oracle"), len(plain)
        )

        if workload == "survey_variants":
            metrics.update(
                _variant_metrics(
                    {k: per(kind_seconds[k], kind_messages[k], 1e9) for k in kind_seconds}
                )
            )
            dynamic = [r for r in records if r["label"].startswith("dynamic")]
            others = [r for r in records if not r["label"].startswith("dynamic")]
            metrics["api.spec_build_dynamic_ms"] = per(
                sum(r["built"] for r in dynamic), sum(len(r["specs"]) for r in dynamic), 1e3
            )
            metrics["api.spec_build_us"] = per(
                sum(r["built"] for r in others), sum(len(r["specs"]) for r in others), 1e6
            )
            graph = layers.graphs[0][1]
            rng = seeded.rng_for(seed, workload, "lane-sample")
            lane_specs = [
                FloodSpec(graph=graph, sources=(v,))
                for v in rng.sample(graph.nodes(), LANE_SAMPLE)
            ]
            resolved = layers.resolve(lane_specs[0])
            lane_runs = [(layers.lanes(lane_specs, resolved, LANE_SAMPLE), LANE_SAMPLE)]
        else:
            ns, dynamic_ms = layers.variant_probe(layers.graphs[-1][1])
            metrics.update(_variant_metrics(ns))
            metrics["api.spec_build_dynamic_ms"] = dynamic_ms
            metrics["api.spec_build_us"] = per(
                sum(r["built"] for r in records), sum(len(r["specs"]) for r in records), 1e6
            )
            lane_runs = []
            for record in records:
                group, key, pooled, _ = record["shapes"][0]
                size = default_chunksize(len(group), layers.workers) if pooled else len(group)
                lane_runs.append(
                    (layers.lanes(group[:LANE_SAMPLE], key.backend, size), LANE_SAMPLE)
                )
        metrics.update(_lane_metrics(lane_runs))
        metrics["api.wrap_us"] = per(tracer.total("api.wrap"), len(all_results), 1e6)
        first = records[0]["specs"]
        metrics["api.plan_us"] = plan_probe(first[:LANE_SAMPLE], len(first))

        rng = seeded.rng_for(seed, workload, "service-sample")
        sample = rng.sample(all_results, SERVICE_SAMPLE)
        metrics.update(
            asyncio.run(service_probe([res.spec for res in sample], layers))
        )
        metrics.update(cache_probe(all_results[:CACHE_SAMPLE], layers))
        for name in ("batches", "mean_batch", "coalesced_batches", "waited",
                     "rejected", "timeouts"):
            metrics[f"service.{name}"] = 0
        for name in ("hit_rate", "coalesced", "stores", "evictions", "size_bytes"):
            metrics[f"cache.{name}"] = 0
        _common_tail(metrics, tracer, layers, timed, checker, untraced, traced)
        return metrics, tracer, timed
    finally:
        layers.close()


async def trace_serve(seed: int, seconds: float, checker: Checker):
    """Traced run of serve_zipf; returns (metrics, tracer, timed)."""
    tracer = Tracer()
    layers = Layers("serve_zipf", seed, tracer)
    try:
        prepared = await loads.setup_serve(seed, reps=1)
        try:
            timed, answers, universe = await loads.run_serve(
                seed, prepared, seconds, checker
            )
            stats = prepared.session._service.stats
            cache_stats = prepared.session.cache_stats()
        finally:
            await prepared.session.aclose()
        loads.check_serve(seed, answers, universe, checker)

        schedule = loads.serve_schedule(seed, seconds, len(universe))
        positions = [position for _, position in schedule[:SERVE_COMPOSED]]
        misses: List[Tuple[FloodSpec, BatchKey, float]] = []

        def composed(tr: Tracer):
            cache = ResultCache()
            results = []
            for number, position in enumerate(positions):
                request = f"q{number}"
                template = universe[position]
                with tr.span("api.spec_build", request):
                    spec = FloodSpec(graph=template.graph, sources=template.sources)
                index = layers.indexes[spec.graph]
                with tr.span("fastpath.route", request):
                    backend = layers.resolve(spec)
                with tr.span("api.digest", request):
                    key = result_cache_key(spec, backend)
                with tr.span("cache.get", request):
                    blob = cache.get(key)
                if blob is not None:
                    with tr.span("cache.decode", request):
                        run = decode_run(blob, spec, index)
                else:
                    start = loads.now()
                    ids = [index.resolve_sources(spec.sources)]
                    pool = layers.pools.get(spec.graph)
                    with tr.span("parallel.submit", request):
                        if pool is not None:
                            run = pool.submit_batch(ids, spec.batch_key(backend)).result()[0]
                        else:  # one usable core: the service's serial executor
                            run = serial_batch_ids(index, ids, spec.batch_key(backend))[0]
                    if tr.enabled:
                        misses.append((spec, spec.batch_key(backend), loads.now() - start))
                    with tr.span("cache.encode", request):
                        blob = encode_run(run)
                    with tr.span("cache.put", request):
                        cache.put(key, blob)
                with tr.span("api.wrap", request):
                    results.append(FloodResult.from_indexed(spec, run))
            return results

        start = loads.now()
        composed(Tracer(enabled=False))
        untraced = loads.now() - start
        start = loads.now()
        composed_results = composed(tracer)
        traced = loads.now() - start
        for position, got in zip(positions, composed_results):
            want = answers.get(position)
            if want is None:
                checker.fail(f"position {position} was not served end to end")
                continue
            checker.same(universe[position], got, want, "composed layers != aquery")
            if got.backend != want.backend:
                checker.fail(f"composed backend {got.backend} != served {want.backend}")

        metrics: Dict[str, float] = {}
        kernel_s = pooled_wall = 0.0
        ipc = 0
        for spec, key, wall in misses:
            seconds_k, _, n_ipc, _ = layers.kernel([spec], key, True)
            kernel_s += seconds_k
            pooled_wall += wall
            ipc += n_ipc
        metrics["fastpath.kernel_s"] = kernel_s
        metrics["parallel.efficiency"] = (
            kernel_s / (layers.workers * pooled_wall) if pooled_wall else 0.0
        )
        metrics["parallel.chunks"] = len(misses)
        metrics["parallel.chunk_runs_mean"] = 1.0 if misses else 0.0
        metrics["parallel.ipc_bytes_per_run"] = per(ipc, len(misses))
        metrics["fastpath.messages"] = sum(r.total_messages for r in composed_results)
        metrics["fastpath.rounds"] = sum(r.termination_round for r in composed_results)
        metrics["variants.messages"] = 0
        metrics["fastpath.route.oracle_share"] = per(
            sum(1 for r in composed_results if r.backend == "oracle"), len(composed_results)
        )
        ns, dynamic_ms = layers.variant_probe(layers.graphs[-1][1])
        metrics.update(_variant_metrics(ns))
        metrics["api.spec_build_dynamic_ms"] = dynamic_ms
        metrics["api.spec_build_us"] = per(
            tracer.total("api.spec_build"), len(composed_results), 1e6
        )
        lane_runs = []
        rng = seeded.rng_for(seed, "serve_zipf", "lane-sample")
        for _, graph in layers.graphs:
            specs = [FloodSpec(graph=graph, sources=(v,)) for v in rng.sample(graph.nodes(), LANE_SAMPLE)]
            lane_runs.append((layers.lanes(specs, layers.resolve(specs[0]), 1), LANE_SAMPLE))
        metrics.update(_lane_metrics(lane_runs))
        metrics["api.wrap_us"] = per(tracer.total("api.wrap"), len(composed_results), 1e6)
        metrics["api.plan_us"] = plan_probe([universe[p] for p in positions[:LANE_SAMPLE]], 1)
        sample = [universe[p] for p in rng.sample(range(len(universe)), SERVICE_SAMPLE)]
        metrics.update(await service_probe(sample, layers))
        metrics.update(cache_probe(composed_results[:CACHE_SAMPLE], layers))
        metrics["service.batches"] = stats.batches
        metrics["service.mean_batch"] = stats.mean_batch_size()
        metrics["service.coalesced_batches"] = stats.coalesced_batches
        metrics["service.waited"] = stats.waited
        metrics["service.rejected"] = stats.rejected
        metrics["service.timeouts"] = stats.timeouts
        metrics["cache.hit_rate"] = cache_stats.hit_rate()
        metrics["cache.coalesced"] = cache_stats.coalesced
        metrics["cache.stores"] = cache_stats.stores
        metrics["cache.evictions"] = cache_stats.evictions
        metrics["cache.size_bytes"] = cache_stats.size_bytes
        _common_tail(metrics, tracer, layers, timed, checker, untraced, traced)
        return metrics, tracer, timed
    finally:
        layers.close()
