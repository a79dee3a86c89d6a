"""Shared helpers for the benchmark suite.

Every benchmark regenerates one row of the paper's evaluation (a figure
or a theorem-level claim) and times it with pytest-benchmark.  The
*correctness* of each regenerated artefact is asserted inside the
benchmark as well, so ``pytest benchmarks/ --benchmark-only`` doubles
as a reproduction run: a performance report whose every row has been
re-verified against the paper's expectation.

Measured-vs-expected values are attached to ``benchmark.extra_info`` so
they appear in ``--benchmark-json`` exports.
"""

from __future__ import annotations

import pytest


def record(benchmark, **info) -> None:
    """Attach expected/measured observables to the benchmark report."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


def spec_batch(graph, source_sets, **fields):
    """One :class:`~repro.api.FloodSpec` per source set.

    Variant batches put set ``i`` on RNG stream ``i``, so identical
    sources still run independent trials.
    """
    from repro.api import FloodSpec

    trials = fields.get("variant") is not None
    return [
        FloodSpec(
            graph=graph,
            sources=tuple(sources),
            stream=position if trials else 0,
            **fields,
        )
        for position, sources in enumerate(source_sets)
    ]


def serial_sweep(graph, source_sets, **fields):
    """The serial spec sweep of one batch, specs built inside the call."""
    from repro.fastpath import sweep_specs

    return sweep_specs(spec_batch(graph, source_sets, **fields))
