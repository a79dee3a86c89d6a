"""The optional numpy fast backend: vectorised arc-array frontier.

The frontier is a boolean vector ``F`` over all directed arc slots of
the :class:`~repro.fastpath.indexed.IndexedGraph`.  One round is three
vector operations:

* ``H = F[reverse_slot]`` -- ``H[j]`` is true iff the *owner* of slot
  ``j`` heard from ``targets[j]`` (the reverse-slot array is the
  involution that flips every arc);
* ``heard_any[owner[H]] = True`` -- which nodes received anything;
* ``F' = heard_any[owner] & ~H`` -- every receiver re-sends along all
  its slots except those it heard along.

Cost is O(arcs) per round independent of frontier size, which wins on
the dense mid-flood rounds of large graphs and loses to the pure
backend on small or sparse instances -- the dispatcher in
:mod:`repro.fastpath.engine` picks accordingly.

The stochastic variant kinds run on the same vectors
(:func:`run_thinned`, :func:`run_delay`): their keep/hold decisions
are counter-based draws (:func:`repro.rng.gamma_draws`) over the
candidate slots of a round, against the ``slot * GAMMA`` column the
sidecar precomputes, so every draw equals the pure stepper's
:func:`~repro.rng.slot_draw` and the runs are bit-identical to
:mod:`repro.fastpath.variants`.

This module imports cleanly when numpy is absent; ``HAS_NUMPY`` gates
every entry point (the container may or may not ship numpy, and the
pure backend is always available).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.pure_backend import RawRun
from repro.rng import gamma_draws, round_key, slot_gammas

try:  # pragma: no cover - exercised implicitly by backend selection
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAS_NUMPY = _np is not None


class _ArcArrays:
    """Numpy sidecar of an :class:`IndexedGraph`, built once per index."""

    __slots__ = ("offsets", "targets", "reverse_slot", "owner", "slot_gamma")

    def __init__(self, index: IndexedGraph) -> None:
        self.offsets = _np.asarray(index.offsets, dtype=_np.int64)
        self.targets = _np.asarray(index.targets, dtype=_np.int64)
        self.reverse_slot = _np.asarray(index.reverse_slot, dtype=_np.int64)
        degrees = self.offsets[1:] - self.offsets[:-1]
        self.owner = _np.repeat(_np.arange(index.n, dtype=_np.int64), degrees)
        # The round-independent half of every variant draw.
        self.slot_gamma = slot_gammas(_np.arange(index.num_arcs))


def _arrays(index: IndexedGraph) -> _ArcArrays:
    cached = index._numpy_arrays
    if cached is None:
        cached = _ArcArrays(index)
        index._numpy_arrays = cached
    return cached


def _source_arcs(index: IndexedGraph, source_ids: Sequence[int]):
    """The boolean arc vector of every out-arc of the sources."""
    offsets = index.offsets
    arcs = _np.zeros(index.num_arcs, dtype=bool)
    for source in source_ids:
        arcs[offsets[source] : offsets[source + 1]] = True
    return arcs


def run(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    collect_senders: bool = True,
    collect_receives: bool = True,
) -> RawRun:
    """Run amnesiac flooding from ``source_ids`` under a round budget.

    Exact integer semantics identical to the pure backend (booleans and
    index arithmetic only -- no floating point touches the result).
    """
    if _np is None:  # pragma: no cover - guarded by the dispatcher
        raise RuntimeError("numpy backend requested but numpy is not importable")
    arrays = _arrays(index)
    owner = arrays.owner
    reverse_slot = arrays.reverse_slot
    n = index.n

    frontier = _source_arcs(index, source_ids)

    round_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    total = 0
    terminated = True
    round_number = 1

    while frontier.any():
        if round_number > budget:
            terminated = False
            break
        count = int(frontier.sum())
        round_counts.append(count)
        total += count
        if sender_rounds is not None:
            senders = _np.zeros(n, dtype=bool)
            senders[owner[frontier]] = True
            sender_rounds.append(_np.flatnonzero(senders).tolist())
        heard = frontier[reverse_slot]
        heard_any = _np.zeros(n, dtype=bool)
        heard_any[owner[heard]] = True
        if receives is not None:
            for receiver in _np.flatnonzero(heard_any).tolist():
                receives[receiver].append(round_number)
        frontier = heard_any[owner] & ~heard
        round_number += 1

    return terminated, round_counts, total, sender_rounds, receives


# ----------------------------------------------------------------------
# Stochastic variant steppers
# ----------------------------------------------------------------------
#
# Both steppers carry the in-transit messages as an ascending array of
# arc slots, deliver them with two scatters (the receivers' heard arcs
# and the receivers themselves) and take the amnesiac forwards as
# ``heard_any[owner] & ~heard``, exactly the frontier rule above.  The
# pure twins in :mod:`repro.fastpath.variants` are the reference.


class _Tally:
    """Per-run statistics shared by the variant steppers."""

    __slots__ = ("counts", "total", "senders", "receives", "reached")

    def __init__(
        self,
        n: int,
        source_ids: Sequence[int],
        collect_senders: bool,
        collect_receives: bool,
    ) -> None:
        self.counts: List[int] = []
        self.total = 0
        self.senders: Optional[List[List[int]]] = [] if collect_senders else None
        self.receives: Optional[List[List[int]]] = (
            [[] for _ in range(n)] if collect_receives else None
        )
        self.reached = _np.zeros(n, dtype=bool)
        self.reached[list(source_ids)] = True

    def deliver(self, arrays: _ArcArrays, n: int, slots, round_number: int):
        """Record one round delivering ``slots``; returns the forwards.

        The forwards are the boolean arc vector of every slot a
        receiver sends along next: all of its slots except those it
        heard along this round.
        """
        count = len(slots)
        self.counts.append(count)
        self.total += count
        if self.senders is not None:
            self.senders.append(_np.unique(arrays.owner[slots]).tolist())
        heard = _np.zeros(len(arrays.owner), dtype=bool)
        heard[arrays.reverse_slot[slots]] = True
        heard_any = _np.zeros(n, dtype=bool)
        heard_any[arrays.targets[slots]] = True
        self.reached |= heard_any
        if self.receives is not None:
            for receiver in _np.flatnonzero(heard_any).tolist():
                self.receives[receiver].append(round_number)
        return heard_any[arrays.owner] & ~heard

    def raw(self, terminated: bool) -> tuple:
        return (
            terminated,
            self.counts,
            self.total,
            self.senders,
            self.receives,
            int(self.reached.sum()),
        )


def run_thinned(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    threshold: int,
    run_key: int,
    collect_senders: bool = False,
    collect_receives: bool = False,
) -> tuple:
    """Survival-thinned flooding (``thinning``/``loss``) on arc vectors.

    Round ``r`` delivers the slots that survived the draws of
    ``round_key(run_key, r)``; a slot survives iff its draw is below
    ``threshold``.  Returns the
    :data:`~repro.fastpath.variants.VariantRawRun` tuple of
    :func:`repro.fastpath.variants._run_stochastic`, bit for bit.
    """
    if _np is None:  # pragma: no cover - guarded by the dispatcher
        raise RuntimeError("numpy backend requested but numpy is not importable")
    arrays = _arrays(index)
    gammas = arrays.slot_gamma
    limit = _np.uint64(threshold)
    n = index.n
    tally = _Tally(n, source_ids, collect_senders, collect_receives)

    def survivors(candidates, round_number: int):
        slots = _np.flatnonzero(candidates)
        draws = gamma_draws(round_key(run_key, round_number), gammas[slots])
        return slots[draws < limit]

    slots = survivors(_source_arcs(index, source_ids), 1)
    terminated = True
    round_number = 1
    while len(slots):
        if round_number > budget:
            terminated = False
            break
        forwards = tally.deliver(arrays, n, slots, round_number)
        round_number += 1
        slots = survivors(forwards, round_number)
    return tally.raw(terminated)


def run_delay(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    threshold: int,
    run_key: int,
    collect_senders: bool = False,
    collect_receives: bool = False,
) -> tuple:
    """Step-granular random-delay asynchrony on arc vectors.

    Step ``s`` holds each pending slot whose draw under
    ``round_key(run_key, s)`` is below ``threshold`` and delivers the
    rest; when every draw says hold, it delivers the pending slot with
    the smallest draw (``argmin`` over ascending slots, so ties go to
    the lowest slot).  Forwards join the held slots.  Returns the
    :data:`~repro.fastpath.variants.VariantRawRun` tuple of
    :func:`repro.fastpath.variants._run_delay`, bit for bit.
    """
    if _np is None:  # pragma: no cover - guarded by the dispatcher
        raise RuntimeError("numpy backend requested but numpy is not importable")
    arrays = _arrays(index)
    gammas = arrays.slot_gamma
    limit = _np.uint64(threshold)
    n = index.n
    tally = _Tally(n, source_ids, collect_senders, collect_receives)

    pending = _source_arcs(index, source_ids)
    terminated = True
    for step_number in range(1, budget + 1):
        slots = _np.flatnonzero(pending)
        if not len(slots):
            break
        draws = gamma_draws(round_key(run_key, step_number), gammas[slots])
        delivered = slots[draws >= limit]
        if not len(delivered):
            best = int(draws.argmin())
            delivered = slots[best : best + 1]
        pending[delivered] = False
        pending |= tally.deliver(arrays, n, delivered, step_number)
    else:
        if pending.any():
            terminated = False
    return tally.raw(terminated)
