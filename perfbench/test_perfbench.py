"""Tests of the benchmark's own code.

Run from the root of the checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import loads  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import seeded  # noqa: E402
from repro.api import FloodSession, FloodSpec  # noqa: E402
from repro.graphs import cycle_graph, petersen_graph, torus_graph  # noqa: E402
from repro.graphs.random_graphs import barabasi_albert  # noqa: E402
from repro.graphs.traversal import all_eccentricities  # noqa: E402
from verify import Checker, eccentricities, headline_fields  # noqa: E402

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


# -- seeded inputs ------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_equal_seeds_give_identical_inputs(workload):
    assert seeded.input_digest(5, workload) == seeded.input_digest(5, workload)
    assert seeded.input_digest(5, workload) != seeded.input_digest(6, workload)


def test_graphs_are_seeded_and_setups_distinct():
    first = seeded.workload_graphs("sweep_long", 3, 0)
    assert first == seeded.workload_graphs("sweep_long", 3, 0)
    later = seeded.workload_graphs("sweep_long", 3, 1)
    for (name, graph), (_, other) in zip(first, later):
        assert graph != other, name
        assert graph.num_nodes == other.num_nodes
        assert graph.num_edges == other.num_edges


def test_schedule_is_seeded_sorted_and_bursty():
    schedule = seeded.open_schedule(4, 2.0, 500)
    assert schedule == seeded.open_schedule(4, 2.0, 500)
    assert schedule != seeded.open_schedule(5, 2.0, 500)
    dues = [due for due, _ in schedule]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 2.0
    bursts = 2.0 / seeded.BURST_EVERY
    expected = seeded.OPEN_RATE * 2.0 + bursts * seeded.BURST_SIZE
    assert 0.8 * expected < len(schedule) < 1.2 * expected
    assert dues.count(seeded.BURST_EVERY / 2) >= seeded.BURST_SIZE


def test_zipf_is_seeded_and_skewed():
    size = 1000
    draws = [seeded.ZipfPicker(size).pick(seeded.rng_for(1, "z", i)) for i in range(20)]
    again = [seeded.ZipfPicker(size).pick(seeded.rng_for(1, "z", i)) for i in range(20)]
    assert draws == again
    stream = seeded.closed_requests(2, "closed", 0, size)
    sample = [next(stream) for _ in range(20000)]
    assert sample[:50] == [
        p for p, _ in zip(seeded.closed_requests(2, "closed", 0, size), range(50))
    ]
    top = sample.count(0)
    assert top > sample.count(1) > sample.count(9) > 0
    assert all(0 <= p < size for p in sample)


def test_universe_interleaves_graphs_in_proportion():
    graphs = [("a", cycle_graph(30)), ("b", cycle_graph(10))]
    universe = seeded.serve_universe(1, graphs)
    assert len(universe) == 40 and len(set(universe)) == 40
    for start in range(0, 40, 8):
        band = universe[start : start + 8]
        assert sum(spec.graph is graphs[1][1] for spec in band) == 2


# -- statistics ---------------------------------------------------------


def test_percentile_rule_needs_ten_samples_beyond():
    assert measure.tail_percentile(list(range(1000))) == (99.0, 989.0, 1000)
    pct, value, count = measure.tail_percentile(list(range(999)))
    assert (pct, count) == (90.0, 999) and value == 899.0
    assert measure.tail_percentile(list(range(20)))[0] == 50.0
    assert measure.tail_percentile(list(range(19))) is None
    assert measure.tail_percentile(list(range(100000)))[0] == 99.99
    assert measure.tail_percentile(list(range(99999)))[0] == 99.9


def test_nearest_rank_percentile_and_median():
    assert measure.percentile([5, 1, 3], 50) == 3
    assert measure.percentile(list(range(1, 101)), 99) == 99
    assert measure.median([4, 1, 3, 2]) == 2.5


def test_windows_rate():
    samples = [(0.1, 1), (0.2, 1), (0.7, 1), (1.1, 1)]
    assert measure.windows(samples, 0.5) == [4.0, 2.0]


# -- metric names -------------------------------------------------------


def test_metric_names_match_the_contract_and_benchmark_file():
    names = list(run.E2E_UNITS) + list(run.PER_LAYER_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
        assert measure.NAME_RE.match(name), name
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_result_line_rejects_bad_names_and_values():
    line = measure.result_line(True, 3, 0, {"a.b_c-1": (1.5, "ms")})
    assert json.loads(line) == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"a.b_c-1": {"value": 1.5, "unit": "ms"}},
    }
    with pytest.raises(ValueError):
        measure.result_line(True, 1, 0, {"bad name": (1.0, "ms")})
    with pytest.raises(ValueError):
        measure.result_line(True, 1, 0, {"x": (float("inf"), "ms")})


# -- correctness checks -------------------------------------------------


def test_bitset_eccentricities_match_traversal():
    for graph in (
        cycle_graph(9),
        petersen_graph(),
        torus_graph(4, 6),
        barabasi_albert(150, 3, seed=2),
    ):
        assert eccentricities(graph) == all_eccentricities(graph)


def test_checker_flags_a_wrong_answer():
    graph = torus_graph(4, 6)
    checker = Checker([("t", graph)], 0)
    spec = FloodSpec(graph=graph, sources=(graph.nodes()[0],))
    with FloodSession(workers=0) as session:
        good = session.run(spec)
        checker.theory(spec, good)
        checker.against_reference(session, spec, good)
        assert checker.failed == 0
        good.termination_round += 1
        checker.theory(spec, good)
        checker.against_reference(session, spec, good)
    assert checker.failed == 2


def test_checker_flags_a_repeated_answer_that_differs():
    graph = torus_graph(4, 6)
    checker = Checker([("t", graph)], 0)
    spec = FloodSpec(graph=graph, sources=(graph.nodes()[0],))
    with FloodSession(workers=0) as session:
        first, again = session.run(spec), session.run(spec)
    checker.same_fields(spec, headline_fields(again), first, "answers differ")
    assert checker.failed == 0
    again.total_messages += 1
    checker.same_fields(spec, headline_fields(again), first, "answers differ")
    assert checker.failed == 1


def test_kept_setup_uses_the_digested_inputs():
    prepared = loads.setup_batch("survey_variants", 4, reps=2)
    prepared.session.close()
    assert len(prepared.setup_times) == 2
    assert prepared.graphs == seeded.workload_graphs("survey_variants", 4, 0)


def test_forced_wrong_answer_flips_the_exit_code(monkeypatch, capsys):
    from repro.api.session import FloodSession as Session

    real = Session.sweep

    def corrupt(self, specs):
        results = real(self, specs)
        if results and results[0].spec.max_rounds > 1:
            results[0].termination_round += 1
        return results

    monkeypatch.setattr(Session, "sweep", corrupt)
    code = run.main(
        ["--workload", "sweep_long", "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
