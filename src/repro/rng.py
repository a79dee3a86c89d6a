"""Counter-based randomness for the stochastic variants.

The reference variants originally drew their randomness from a
sequential ``random.Random`` stream, which makes every outcome depend
on *iteration order*: insert a trial, reshard a batch, or visit arcs in
a different order and every later draw changes.  That is fatal for the
fast path, whose contract is bit-identical results across backends,
worker counts and chunk sizes.

This module replaces the stream with a *counter-based* generator in the
style of Philox/Threefry (see also JAX's ``random.fold_in``): a draw is
a pure hash of *where it is used* --

    ``uniform = hash(seed, run_index, round_number, arc_slot)``

-- so any execution order, sharding, or batching produces the same
value for the same coordinates.  The hash is the SplitMix64 finalizer
(Steele, Lea & Flood 2014), whose avalanche behaviour is more than
enough for Monte-Carlo thinning decisions, computed with plain Python
int arithmetic (dependency-free, identical on every platform).

Layout of a draw's coordinates:

* :func:`derive_key` folds a user seed and any number of counter
  indices (trial number, parameter position) into a 64-bit *stream
  key*.  The same derivation is used by the surveys of
  :mod:`repro.variants` and the arc-mask steppers of
  :mod:`repro.fastpath.variants`, so the reference and the fast path
  see the same randomness.
* :func:`round_key` folds a round number into a stream key, once per
  round.
* :func:`slot_draw` hashes an arc slot against a round key -- the
  per-message operation, one SplitMix64 finalize -- yielding a 53-bit
  integer.  A message survives a thinning probability ``p`` iff its
  draw is below :func:`survival_threshold` of ``p``; comparing in
  integer space keeps the decision exact at ``p = 0.0`` (never) and
  ``p = 1.0`` (always).
* :func:`slot_draws` is the batched form of :func:`slot_draw` over a
  numpy ``uint64`` slot array -- the per-round operation of the numpy
  variant steppers.  numpy's ``uint64`` arithmetic wraps modulo
  ``2**64`` exactly as the masked Python ints do, so every draw is
  bit-identical to the scalar one.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised implicitly by the numpy lanes
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

MASK64 = (1 << 64) - 1
"""All arithmetic is modulo 2**64 (the SplitMix64 word size)."""

GAMMA = 0x9E3779B97F4A7C15
"""2**64 / golden ratio: the Weyl-sequence increment of SplitMix64."""

_SEED_SALT = 0x5DEECE66D2B79F8B
"""Mixed into raw seeds so ``seed=0`` is not the all-zero stream."""

DRAW_BITS = 53
"""Draws are 53-bit integers (exactly representable as floats)."""

_DRAW_SPACE = 1 << DRAW_BITS


def mix64(value: int) -> int:
    """The SplitMix64 finalizer: a 64-bit avalanche hash."""
    value &= MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
    return value ^ (value >> 31)


def fresh_seed() -> int:
    """One OS-entropy draw: the seed of an explicitly unseeded run.

    This is the package's *only* sanctioned entropy source.  Callers
    with ``seed=None`` draw exactly once, record the value in their
    result, and derive every subsequent decision from it through
    :func:`derive_key` -- so even "random" runs are replayable from
    their recorded seed.  63 bits keeps the value a non-negative
    Python/numpy int64.
    """
    return int.from_bytes(os.urandom(8), "big") >> 1


def derive_key(seed: int, *indices: int) -> int:
    """Fold a seed and counter indices into an independent stream key.

    ``derive_key(seed, i)`` is the per-trial (or per-run) derivation:
    trial ``i`` of a seeded experiment owns the stream
    ``derive_key(seed, i)`` regardless of how many trials ran before
    it, in what order, or in which worker process.  Extra indices nest
    further coordinates (``derive_key(seed, rate_index, trial)``).
    """
    key = mix64((seed & MASK64) ^ _SEED_SALT)
    for index in indices:
        key = mix64(key ^ ((index & MASK64) * GAMMA) & MASK64)
    return key


def derive_keys(seed: int, count: int) -> list:
    """The first ``count`` per-run keys of ``seed`` (positions 0..count-1)."""
    return [derive_key(seed, index) for index in range(count)]


def round_key(key: int, round_number: int) -> int:
    """Fold a round number into a stream key (hoisted out of arc loops)."""
    return mix64(key ^ ((round_number * GAMMA) & MASK64))


def slot_draw(rkey: int, slot: int) -> int:
    """The 53-bit draw for one arc slot under a round key.

    One finalize per message -- the hot operation of the stochastic
    steppers.  Distinct ``(key, round, slot)`` coordinates give
    independent draws; the same coordinates always give the same draw.
    """
    return mix64(rkey ^ ((slot * GAMMA) & MASK64)) >> (64 - DRAW_BITS)


def slot_gammas(slots):
    """``slot * GAMMA mod 2**64`` over a ``uint64`` slot array.

    The round-independent half of :func:`slot_draws`; the numpy
    steppers precompute it once per index and pass it to
    :func:`gamma_draws` every round.
    """
    return _np.asarray(slots, dtype=_np.uint64) * _np.uint64(GAMMA)


def gamma_draws(rkey: int, gammas):
    """:func:`slot_draws` for slots already multiplied by ``GAMMA``."""
    value = gammas ^ _np.uint64(rkey & MASK64)
    value = (value ^ (value >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return (value ^ (value >> _np.uint64(31))) >> _np.uint64(64 - DRAW_BITS)


def slot_draws(rkey: int, slots):
    """The batched :func:`slot_draw`: one 53-bit draw per array slot.

    ``slots`` is an array of non-negative slot numbers; the result is a
    ``uint64`` array with ``out[i] == slot_draw(rkey, slots[i])``.
    Requires numpy.
    """
    return gamma_draws(rkey, slot_gammas(slots))


def mask_hold_split(rkey: int, base: int, mask: int, threshold: int) -> tuple:
    """Batched :func:`slot_draw` over the set bits of an arc mask.

    For each set bit ``position`` of ``mask`` (an arc block starting at
    absolute slot ``base``), draws ``slot_draw(rkey, base + position)``
    and accumulates the bit in the *held* submask iff the draw falls
    below ``threshold``.  Returns ``(held, best_position, best_draw)``
    where ``best`` is the smallest ``(draw, position)`` pair of the
    block -- the forced-delivery candidate of the random-delay stepper
    when every coin says hold.  ``best_position`` is ``-1`` for an
    empty mask.

    This is the hot per-step loop of the delay variant, so the
    SplitMix64 finalizer is inlined (one call per *mask* instead of one
    per arc); the draws are bit-identical to per-slot
    :func:`slot_draw` calls, which the scenario equivalence matrix
    holds against the set-based adversary consuming the same
    coordinates one slot at a time.
    """
    held = 0
    best_draw = -1
    best_position = -1
    position = 0
    shift = 64 - DRAW_BITS
    while mask:
        if mask & 1:
            value = rkey ^ (((base + position) * GAMMA) & MASK64)
            value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
            draw = (value ^ (value >> 31)) >> shift
            if draw < threshold:
                held |= 1 << position
            # Ascending positions with strict <: ties keep the lowest.
            if best_draw < 0 or draw < best_draw:
                best_draw = draw
                best_position = position
        mask >>= 1
        position += 1
    return held, best_position, best_draw


def slot_uniform(rkey: int, slot: int) -> float:
    """:func:`slot_draw` scaled to a float in ``[0, 1)``."""
    return slot_draw(rkey, slot) * (1.0 / _DRAW_SPACE)


def survival_threshold(probability: float) -> int:
    """The integer cut-off for a survival probability.

    A message survives iff ``slot_draw(...) < survival_threshold(p)``;
    the endpoints are exact: ``p = 0.0`` keeps nothing and ``p = 1.0``
    keeps everything (every 53-bit draw is below ``2**53``).
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be within [0, 1]")
    return round(probability * _DRAW_SPACE)
