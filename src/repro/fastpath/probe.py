"""Cheap rounds probes: predicted termination rounds at BFS cost.

The predicted termination round of a flood from source ``s`` is the
largest finite BFS level of the implicit double cover rooted at
``(s, 0)`` (see :mod:`repro.fastpath.oracle_backend`), so a handful of
single-source cover BFS passes from evenly spaced sample nodes --
O(samples * (n + m)) total, the same order as *one* oracle-backed run
-- yields an honest estimate of a graph's round scale.  Long-flood
families (odd cycles: n rounds) and short dense ones (expanders: a
handful of rounds) separate by orders of magnitude.

Backend resolution does not consult the probe: the cover bound caps a
frontier flood's total work at O(n + m + rounds) too, and the frontier
auto-selection of :func:`repro.fastpath.engine.select_backend` measured
faster than the oracle lanes on every long-flood family (the lane table
is in ``docs/architecture.md``).  The probe is a diagnostic: it is
deterministic (fixed sample positions, no randomness) and exact per
sample.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.oracle_backend import cover_levels

PROBE_SAMPLES = 4
"""Default number of sampled single-source cover BFS passes."""


def probe_termination_rounds(
    index: IndexedGraph, samples: int = PROBE_SAMPLES
) -> Tuple[int, ...]:
    """Predicted single-source termination rounds from sampled sources.

    Runs one implicit-cover BFS from each of ``samples`` evenly spaced
    node ids and returns the predicted termination round of a flood
    started at each -- exact per sample, O(samples * (n + m)) total.
    """
    if index.n == 0 or samples < 1:
        return ()
    step = max(1, index.n // samples)
    sample_ids = list(range(0, index.n, step))[:samples]
    rounds = []
    for source in sample_ids:
        dist = cover_levels(index, [source])
        rounds.append(max(dist))
    return tuple(rounds)


def routed_backend(
    index: IndexedGraph,
    probe_rounds: Sequence[int],
    budget: Optional[int] = None,
) -> str:
    """Compatibility name for ``select_backend(index, None)``.

    The name and signature remain because the repository benchmark
    (``perfbench/layers.py``) imports them; ``probe_rounds`` and
    ``budget`` are ignored.
    """
    from repro.fastpath.engine import select_backend

    return select_backend(index, None)
