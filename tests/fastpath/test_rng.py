"""The counter-based RNG: determinism, independence, stability.

These tests pin the exact draw values of :mod:`repro.rng`.  That is
deliberate: the module is the seed-stream contract between the
reference variants and the arc-mask fast path -- if its outputs move,
every seeded variant outcome in the repo moves with them, so a change
here must be a conscious, test-updating decision.
"""

from __future__ import annotations

import pytest

from repro.rng import (
    DRAW_BITS,
    derive_key,
    derive_keys,
    gamma_draws,
    mask_hold_split,
    mix64,
    round_key,
    slot_draw,
    slot_draws,
    slot_gammas,
    slot_uniform,
    survival_threshold,
)


class TestMix:
    def test_mix64_is_deterministic_and_64_bit(self):
        values = [mix64(v) for v in (1, 2, 2**63, 2**64 - 1, 123456789)]
        assert values == [mix64(v) for v in (1, 2, 2**63, 2**64 - 1, 123456789)]
        assert all(0 <= v < 2**64 for v in values)

    def test_mix64_avalanche(self):
        # Neighbouring inputs land far apart (weak avalanche check:
        # roughly half the output bits flip).
        for base in (3, 1000, 2**40):
            flipped = bin(mix64(base) ^ mix64(base + 1)).count("1")
            assert 16 <= flipped <= 48

    def test_pinned_values(self):
        # The cross-implementation seed-stream contract: moving these
        # moves every seeded variant outcome in the repo.
        assert mix64(0) == 0
        assert derive_key(0) == 4139032793521000791
        assert derive_key(42, 0) == 5780182604005959264
        assert derive_key(42, 1) == 5934694400667160493


class TestDeriveKey:
    def test_counter_streams_are_stable(self):
        # Key i depends only on (seed, i): deriving more keys, or in a
        # different order, never changes earlier ones.
        first = derive_keys(7, 5)
        longer = derive_keys(7, 50)
        assert longer[:5] == first
        assert derive_key(7, 3) == first[3]

    def test_distinct_coordinates_distinct_streams(self):
        keys = {derive_key(1, i) for i in range(200)}
        keys |= {derive_key(2, i) for i in range(200)}
        assert len(keys) == 400

    def test_nested_indices(self):
        # Order of coordinates matters, and nested coordinates give a
        # stream distinct from any single-index one.
        assert derive_key(5, 1, 2) != derive_key(5, 2, 1)
        assert derive_key(5, 1, 2) != derive_key(5, 1)
        assert derive_key(5, 1, 2) == derive_key(5, 1, 2)


class TestDraws:
    def test_draw_range_and_uniform(self):
        rkey = round_key(derive_key(11), 3)
        for slot in range(100):
            draw = slot_draw(rkey, slot)
            assert 0 <= draw < 2**DRAW_BITS
            assert 0.0 <= slot_uniform(rkey, slot) < 1.0

    def test_draws_are_order_free(self):
        rkey = round_key(derive_key(11), 3)
        forward = [slot_draw(rkey, s) for s in range(50)]
        backward = [slot_draw(rkey, s) for s in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_rounds_decorrelate(self):
        key = derive_key(11)
        assert slot_draw(round_key(key, 1), 0) != slot_draw(round_key(key, 2), 0)

    def test_roughly_uniform_mean(self):
        rkey = round_key(derive_key(99), 1)
        mean = sum(slot_uniform(rkey, s) for s in range(2000)) / 2000
        assert 0.45 < mean < 0.55


class TestThresholds:
    def test_endpoints_exact(self):
        # p = 0 keeps nothing and p = 1 keeps everything: every 53-bit
        # draw sits strictly below the p = 1 threshold and never below 0.
        rkey = round_key(derive_key(1), 1)
        assert survival_threshold(0.0) == 0
        assert survival_threshold(1.0) == 2**DRAW_BITS
        assert all(slot_draw(rkey, s) < 2**DRAW_BITS for s in range(100))
        assert not any(slot_draw(rkey, s) < 0 for s in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            survival_threshold(1.5)
        with pytest.raises(ValueError):
            survival_threshold(-0.1)

    def test_survivors_monotone_in_probability(self):
        # Same draws, lower cut-off: the low-p survivors are a subset.
        rkey = round_key(derive_key(4), 2)
        kept_low = {
            s for s in range(500)
            if slot_draw(rkey, s) < survival_threshold(0.2)
        }
        kept_high = {
            s for s in range(500)
            if slot_draw(rkey, s) < survival_threshold(0.8)
        }
        assert kept_low <= kept_high
        assert len(kept_low) < len(kept_high)


try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


@pytest.mark.skipif(np is None, reason="needs numpy")
class TestBatchedDraws:
    """``slot_draws`` is the scalar ``slot_draw`` over a uint64 array."""

    KEYS = (0, 2**64 - 1, 1, derive_key(7), round_key(derive_key(42, 3), 11))
    SLOTS = (0, 1, 2, 63, 64, 4095, 2**32 - 1, 2**32, 2**32 + 5, 2**40 + 3, 2**63 + 1)

    @pytest.mark.parametrize("rkey", KEYS)
    def test_matches_scalar_draws(self, rkey):
        slots = np.array(self.SLOTS + tuple(range(300)), dtype=np.uint64)
        draws = slot_draws(rkey, slots)
        assert draws.dtype == np.uint64
        assert [int(d) for d in draws] == [slot_draw(rkey, int(s)) for s in slots]

    @pytest.mark.parametrize("rkey", KEYS)
    def test_gamma_draws_take_premultiplied_slots(self, rkey):
        slots = np.arange(500, dtype=np.uint64)
        assert np.array_equal(
            gamma_draws(rkey, slot_gammas(slots)), slot_draws(rkey, slots)
        )

    def test_empty_slot_array(self):
        assert len(slot_draws(5, np.array([], dtype=np.uint64))) == 0

    @pytest.mark.parametrize("rkey", KEYS)
    @pytest.mark.parametrize("base", [0, 64, 2**32 + 1])
    def test_mask_hold_split_agrees(self, rkey, base):
        """The inlined per-mask split equals the batched draws."""
        mask = 0b1011_0110_1110_0101_1
        positions = [p for p in range(mask.bit_length()) if mask >> p & 1]
        threshold = survival_threshold(0.4)
        draws = slot_draws(
            rkey, np.array([base + p for p in positions], dtype=np.uint64)
        )
        held, best_position, best_draw = mask_hold_split(rkey, base, mask, threshold)
        assert held == sum(
            1 << p for p, d in zip(positions, draws) if int(d) < threshold
        )
        lowest = int(draws.argmin())
        assert (best_position, best_draw) == (positions[lowest], int(draws[lowest]))
