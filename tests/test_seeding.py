"""Tests for deterministic RNG derivation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.seeding import derive_rng


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        a = derive_rng(42, "model", 3).random(5)
        b = derive_rng(42, "model", 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_different_streams(self):
        a = derive_rng(42, "model").random(5)
        b = derive_rng(42, "data").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_different_streams(self):
        a = derive_rng(1, "x").random(5)
        b = derive_rng(2, "x").random(5)
        assert not np.array_equal(a, b)

    def test_string_hash_is_stable(self):
        """String keys must hash identically across calls (no PYTHONHASHSEED)."""
        from repro.utils.seeding import _stable_string_hash

        assert _stable_string_hash("trainer") == _stable_string_hash("trainer")
        assert _stable_string_hash("a") != _stable_string_hash("b")

    @given(st.integers(0, 2**31 - 1), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_derivation_deterministic_property(self, seed, key):
        a = derive_rng(seed, key).integers(0, 1000, 3)
        b = derive_rng(seed, key).integers(0, 1000, 3)
        np.testing.assert_array_equal(a, b)

