"""The three workloads, driven end to end through the public surface.

Each workload sets up several times (graph build, index freeze, probe,
pool warm-up and service registration) and keeps the set-up of
repetition 0 (the inputs that the traced run and the input digest also
use), then runs its timed loop for the requested number of seconds and
checks every answer.  Timings use ``time.perf_counter``; correctness
checks run outside the timed sections.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import FloodSession, FloodSpec, ResultCache
from repro.fastpath.indexed import IndexedGraph
from repro.parallel.pool import MIN_PARALLEL_BATCH

import measure
import seeded
from verify import Checker, headline_fields

SETUP_REPS = 15
SERVE_OPEN_SHARE = 0.6
"""Share of ``--seconds`` given to the open-loop phase of serve_zipf."""
WARM_S = 5.0
"""Seconds of untimed closed-loop traffic that fill serve_zipf's cache."""
LEAD_S = 1.0
"""Untimed lead-in of serve_zipf's open-loop schedule."""
WINDOW_S = 0.5
"""Width of the closed-loop throughput windows of serve_zipf."""
REFERENCE_SAMPLE = 1
"""Specs per graph (per scenario for the survey) checked against the
reference engines on every run."""


@dataclass
class Timed:
    """What one workload's timed loop observed."""

    latencies_ms: List[float] = field(default_factory=list)
    run_rates: List[float] = field(default_factory=list)
    request_rates: List[float] = field(default_factory=list)
    attempted: int = 0
    lag_ms_max: float = 0.0
    sent: int = 0
    ok: int = 0


@dataclass
class Prepared:
    """A set-up workload: the session, its graphs and set-up timings."""

    session: FloodSession
    graphs: List[Tuple[str, object]]
    setup_times: List[float]


def now() -> float:
    return time.perf_counter()


def settle() -> None:
    """Collect, then freeze the set-up heap out of later collections.

    Repeated set-ups leave graphs and indexes alive in the program's
    equality-keyed caches; without this, full collections over that
    heap stall the event loop for tens of milliseconds at random
    points of the timed loop.
    """
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def setup_order(reps: int) -> List[int]:
    """Set-up repetitions, the kept repetition 0 last.

    Each repetition's inputs are generated and the heap collected before
    its timer starts.  Repetition 0 goes last so that its graphs are the
    most recent entries of the program's index LRU during the timed loop.
    """
    return list(range(1, reps)) + [0]


def _warm_specs(graph, scenario: Optional[str]) -> List[FloodSpec]:
    """A cheap batch just large enough to start the graph's pool.

    One-round floods: the session forks the pool, ships the index and
    (for plain specs) caches the pool's routing probe.
    """
    nodes = graph.nodes()[:MIN_PARALLEL_BATCH]
    if scenario is None:
        return [FloodSpec(graph=graph, sources=(v,), max_rounds=1) for v in nodes]
    return [
        FloodSpec.from_scenario(scenario, graph, [v], max_rounds=1) for v in nodes
    ]


def setup_batch(workload: str, seed: int, reps: int = SETUP_REPS) -> Prepared:
    """Set up a sweep workload ``reps`` times; keep repetition 0's session."""
    scenario = None if workload == "sweep_long" else "kmemory:2"
    times: List[float] = []
    kept: Optional[Prepared] = None
    for rep in setup_order(reps):
        recipes = seeded.RECIPES[workload](seed, rep)
        gc.collect()
        start = now()
        graphs = seeded.build_graphs(recipes)
        session = FloodSession()
        for _, graph in graphs:
            IndexedGraph.of(graph)
            session.sweep(_warm_specs(graph, scenario))
        times.append(now() - start)
        if rep == 0:
            kept = Prepared(session, graphs, times)
        else:
            session.close()
    assert kept is not None
    settle()
    return kept


async def setup_serve(seed: int, reps: int = SETUP_REPS) -> Prepared:
    """Set up serve_zipf ``reps`` times; keep repetition 0's session.

    Registration goes through a cache-bypassing query per graph, which
    builds the index, forks the service's pool and primes its probe.
    """
    times: List[float] = []
    kept: Optional[Prepared] = None
    for rep in setup_order(reps):
        recipes = seeded.RECIPES["serve_zipf"](seed, rep)
        gc.collect()
        start = now()
        graphs = seeded.build_graphs(recipes)
        session = FloodSession(cache=ResultCache())
        for _, graph in graphs:
            IndexedGraph.of(graph)
            await session.aquery(
                FloodSpec(graph=graph, sources=(graph.nodes()[0],), cache="bypass")
            )
        times.append(now() - start)
        if rep == 0:
            kept = Prepared(session, graphs, times)
        else:
            await session.aclose()
    assert kept is not None
    settle()
    return kept


# ----------------------------------------------------------------------
# Closed-loop batch workloads
# ----------------------------------------------------------------------


def batch_requests(workload: str, seed: int, round_no: int, graphs):
    """The round's parts: ``(label, thunk building its specs)``, one per
    graph (sweep_long) or scenario (survey_variants)."""
    if workload == "sweep_long":
        return [
            (name, lambda name=name, graph=graph: seeded.sweep_batch(seed, round_no, name, graph))
            for name, graph in graphs
        ]
    plan = seeded.survey_plan(seed, round_no, graphs[0][1])
    return [
        (scenario, lambda calls=calls: seeded.build_survey_specs(calls))
        for scenario, calls in plan
    ]


def run_batches(
    workload: str,
    seed: int,
    prepared: Prepared,
    seconds: float,
    checker: Checker,
) -> Tuple[Timed, List[Tuple[List[FloodSpec], list]]]:
    """The closed loop of sweep_long / survey_variants.

    One caller issues one ``FloodSession.sweep`` per round, holding every
    part of the round (the session runs each graph's or scenario's specs
    as its own group), and the next only when it returns, so every
    latency sample is the same mix of work.  Building the specs is part
    of the timed call.  Rounds repeat until the timed part reaches
    ``seconds`` (at least one runs).  Returns the
    observations and every round's ``(specs, results)``, in order.
    """
    session = prepared.session
    timed = Timed()
    answered: List[Tuple[List[FloodSpec], list]] = []
    elapsed = 0.0
    round_no = 0
    last_done: Optional[float] = None
    while round_no == 0 or elapsed < seconds:
        parts = batch_requests(workload, seed, round_no, prepared.graphs)
        round_no += 1
        start = now()
        if last_done is not None:
            timed.lag_ms_max = max(timed.lag_ms_max, (start - last_done) * 1e3)
        specs = [spec for _, build in parts for spec in build()]
        timed.sent += 1
        timed.attempted += len(specs)
        try:
            results = session.sweep(specs)
        except Exception as exc:  # counted, reported, never fatal
            checker.fail(f"sweep raised {exc!r}")
            results = None
        last_done = now()
        took = last_done - start
        elapsed += took
        timed.latencies_ms.append(took * 1e3)
        if results is None:
            continue
        timed.ok += 1
        answered.append((specs, results))
        timed.run_rates.append(len(specs) / took)
        timed.request_rates.append(1.0 / took)
    return timed, answered


def check_batches(
    workload: str,
    seed: int,
    session: FloodSession,
    answered: List[Tuple[List[FloodSpec], list]],
    checker: Checker,
) -> None:
    rng = seeded.rng_for(seed, workload, "reference-sample")
    by_group: Dict[object, List[Tuple[FloodSpec, object]]] = {}
    for specs, results in answered:
        if len(results) != len(specs):
            checker.fail("sweep returned the wrong number of results")
            continue
        for spec, result in zip(specs, results):
            if workload == "sweep_long":
                checker.theory(spec, result)
            elif result.spec != spec:
                checker.fail(f"answer for {spec!r} carries another spec")
            group = spec.graph if workload == "sweep_long" else spec.variant.kind
            by_group.setdefault(group, []).append((spec, result))
    for group in sorted(by_group, key=repr):
        for spec, result in rng.sample(by_group[group], REFERENCE_SAMPLE):
            checker.against_reference(session, spec, result)


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------


async def closed_loop(
    session: FloodSession,
    universe: List[FloodSpec],
    seed: int,
    phase: str,
    seconds: float,
    on_answer,
) -> float:
    """``CLOSED_CALLERS`` concurrent callers, each awaiting its answer
    before its next request, for ``seconds``; returns the elapsed time.

    ``on_answer(position, result or exception, completion offset)``
    sees every outcome.
    """
    start = now()
    stop = start + seconds

    async def caller(number: int) -> None:
        positions = seeded.closed_requests(seed, phase, number, len(universe))
        while now() < stop:
            position = next(positions)
            try:
                outcome = await session.aquery(universe[position])
            except Exception as exc:  # counted, reported, never fatal
                outcome = exc
            on_answer(position, outcome, now() - start)

    await asyncio.gather(*(caller(c) for c in range(seeded.CLOSED_CALLERS)))
    return now() - start


def serve_schedule(seed: int, seconds: float, size: int) -> List[Tuple[float, int]]:
    """Phase (a)'s arrivals for a ``seconds``-long run, lead-in included."""
    return seeded.open_schedule(seed, LEAD_S + seconds * SERVE_OPEN_SHARE, size)


async def run_serve(
    seed: int, prepared: Prepared, seconds: float, checker: Checker
) -> Tuple[Timed, Dict[int, object], List[FloodSpec]]:
    """Warm the cache, then phase (a), an open loop, and phase (b), a
    closed loop.

    The untimed warm-up is a closed loop of ``WARM_S`` seconds on its
    own request stream: it fills the result cache to its steady state,
    which users pay once per service, not per query.  While a phase
    runs, its outcomes are only collected (the first answer per
    position, and the fields of every repeated answer); they are
    compared after the phase ends, so the checks stay out of the
    timings.  Returns the observations, the first answer per universe
    position, and the universe.
    """
    session = prepared.session
    universe = seeded.serve_universe(seed, prepared.graphs)
    timed = Timed()
    answers: Dict[int, object] = {}
    errors: List[Exception] = []
    repeats: List[Tuple[int, tuple]] = []

    def record(position: int, outcome) -> bool:
        if isinstance(outcome, Exception):
            errors.append(outcome)
            return False
        first = answers.setdefault(position, outcome)
        if first is not outcome:
            # Keep the compared fields, not the whole result, so that
            # the benchmark holds little memory while a phase runs.
            repeats.append((position, headline_fields(outcome)))
        return True

    def check_phase() -> None:
        """Check and drop the outcomes collected so far."""
        for exc in errors:
            checker.fail(f"aquery raised {exc!r}")
        for position, fields in repeats:
            checker.same_fields(universe[position], fields, answers[position], "two answers differ")
        errors.clear()
        repeats.clear()

    def warm(position: int, outcome, _offset: float) -> None:
        timed.attempted += 1
        record(position, outcome)

    await closed_loop(session, universe, seed, "warm", WARM_S, warm)
    check_phase()
    settle()

    # Phase (a): open loop, timed from each request's due time.  The
    # first LEAD_S seconds of the schedule run untimed, so the switch
    # from the closed warm-up to the open schedule is not measured.
    open_seconds = seconds * SERVE_OPEN_SHARE
    schedule = serve_schedule(seed, seconds, len(universe))
    latencies: List[float] = []

    async def one(position: int, due: float, timed_request: bool) -> None:
        try:
            outcome = await session.aquery(universe[position])
        except Exception as exc:  # counted, reported, never fatal
            outcome = exc
        good = record(position, outcome)
        if not timed_request:
            return
        latencies.append((now() - due) * 1e3)
        if good:
            timed.ok += 1

    tasks = []
    origin = now() + 0.01
    for offset, position in schedule:
        due = origin + offset
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        timed_request = offset >= LEAD_S
        if timed_request:
            timed.lag_ms_max = max(timed.lag_ms_max, (now() - due) * 1e3)
            timed.sent += 1
        timed.attempted += 1
        tasks.append(asyncio.ensure_future(one(position, due, timed_request)))
    await asyncio.gather(*tasks)
    timed.latencies_ms = latencies
    check_phase()

    # Phase (b): closed loop, a fixed number of concurrent callers.
    completions: List[Tuple[float, int]] = []

    def closed(position: int, outcome, offset: float) -> None:
        timed.sent += 1
        timed.attempted += 1
        if record(position, outcome):
            timed.ok += 1
            completions.append((offset, 1))

    took = await closed_loop(
        session, universe, seed, "closed", seconds - open_seconds, closed
    )
    check_phase()
    timed.run_rates = [len(completions) / took]
    timed.request_rates = measure.windows(completions, WINDOW_S)
    return timed, answers, universe


def check_serve(
    seed: int, answers: Dict[int, object], universe: List[FloodSpec], checker: Checker
) -> None:
    """Theory on every answer; every answer against a serial ``run``."""
    with FloodSession(workers=0) as serial:
        for position in sorted(answers):
            spec = universe[position]
            result = answers[position]
            checker.theory(spec, result)
            checker.same(spec, result, serial.run(spec), "served answer != serial run")
        rng = seeded.rng_for(seed, "serve_zipf", "reference-sample")
        for position in rng.sample(sorted(answers), 2 * REFERENCE_SAMPLE):
            checker.against_reference(serial, universe[position], answers[position])


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------


def e2e_metrics(timed: Timed, setup_times: List[float], rss_mb: float):
    latencies = timed.latencies_ms
    return {
        "setup_s": (measure.median(setup_times), "s"),
        "runs_per_s": (measure.median(timed.run_rates), "floods/s"),
        "query_p50_ms": (measure.percentile(latencies, 50), "ms"),
        "query_p99_ms": (measure.percentile(latencies, 99), "ms"),
        "saturation_qps": (measure.median(timed.request_rates), "queries/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
