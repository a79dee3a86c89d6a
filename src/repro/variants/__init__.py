"""Extensions beyond the brief announcement's core results.

Each variant probes one assumption of the model:

* :mod:`~repro.variants.k_memory` -- how much memory does termination
  actually need?  (``k = 0`` diverges; ``k = 1`` is AF; more memory
  shortens the run.)
* :mod:`~repro.variants.lossy` -- drop the "no messages lost" clause.
* :mod:`~repro.variants.dynamic` -- let the topology change per round.
* :mod:`~repro.variants.multi_message` -- several concurrent floods and
  their independence invariant.
* :mod:`~repro.variants.random_delay` -- oblivious (non-adversarial)
  asynchrony, the empirical complement of Section 4.

The hot variants (probabilistic thinning, Bernoulli loss, k-memory)
also run on the arc-mask fast path -- see
:mod:`repro.fastpath.variants` (``FloodSpec(..., variant=thinning(q,
seed))`` etc.).  The implementations here are the independent
*references* the fast path is held bit-identical to: both sides draw
their randomness from the counter-based streams of :mod:`repro.rng`
(trial ``i`` of seed ``s`` owns ``derive_key(s, i)``), so seeded
outcomes agree across implementations, worker counts and batch
reshardings.
"""

from repro.variants.dynamic import (
    DynamicRun,
    EdgeFlipSchedule,
    GraphSchedule,
    PeriodicSchedule,
    StaticSchedule,
    export_arc_schedule,
    simulate_dynamic,
)
from repro.variants.k_memory import (
    KMemoryFlooding,
    MemorySweepPoint,
    k_memory_trace,
    memory_sweep,
)
from repro.variants.lossy import LossySummary, loss_sweep, lossy_flood, lossy_survey
from repro.variants.multi_message import (
    MultiMessageFlooding,
    concurrent_floods,
    independence_holds,
    restrict_to_payload,
)
from repro.variants.periodic import (
    PeriodicRun,
    injection_phase_diagram,
    periodic_injection_flood,
)
from repro.variants.probabilistic import (
    CoveragePoint,
    ProbabilisticRun,
    coverage_curve,
    probabilistic_flood,
)
from repro.variants.random_delay import (
    DelaySummary,
    default_step_budget,
    delay_sweep,
    random_delay_survey,
)

__all__ = [
    "DynamicRun",
    "EdgeFlipSchedule",
    "GraphSchedule",
    "PeriodicSchedule",
    "StaticSchedule",
    "export_arc_schedule",
    "simulate_dynamic",
    "KMemoryFlooding",
    "MemorySweepPoint",
    "k_memory_trace",
    "memory_sweep",
    "LossySummary",
    "loss_sweep",
    "lossy_flood",
    "lossy_survey",
    "MultiMessageFlooding",
    "concurrent_floods",
    "independence_holds",
    "restrict_to_payload",
    "PeriodicRun",
    "injection_phase_diagram",
    "periodic_injection_flood",
    "CoveragePoint",
    "ProbabilisticRun",
    "coverage_curve",
    "probabilistic_flood",
    "DelaySummary",
    "default_step_budget",
    "delay_sweep",
    "random_delay_survey",
]
