"""Corruption injection, imputation policies, and the mask-aware data path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CTSData, get_dataset
from repro.data.corruption import (
    CORRUPTION_PROFILES,
    CorruptionResult,
    apply_profile,
    corrupt_dataset,
    inject_block_missing,
    inject_irregular_sampling,
    inject_level_shift,
    inject_point_anomalies,
    inject_sensor_outage,
    list_profiles,
)
from repro.data.scalers import StandardScaler
from repro.data.transforms import (
    IMPUTATION_POLICIES,
    impute_missing,
    impute_non_finite,
)
from repro.data.windows import iterate_batches, iterate_masked_batches, make_windows, split_windows

RNG = np.random.default_rng(7)


def _values(n=4, t=60, f=2):
    return RNG.normal(10.0, 3.0, size=(n, t, f))


INJECTORS = [
    inject_sensor_outage,
    inject_block_missing,
    inject_point_anomalies,
    inject_level_shift,
    inject_irregular_sampling,
]


class TestInjectors:
    @pytest.mark.parametrize("injector", INJECTORS)
    def test_mask_contract(self, injector):
        """mask=True entries equal clean; every non-finite entry is masked out."""
        x = _values()
        result = injector(x, np.random.default_rng(0))
        assert isinstance(result, CorruptionResult)
        assert result.values.shape == x.shape
        np.testing.assert_array_equal(result.values[result.mask], x[result.mask])
        assert np.isfinite(result.values[result.mask]).all()
        bad = ~np.isfinite(result.values)
        assert not (bad & result.mask).any()

    @pytest.mark.parametrize("injector", INJECTORS)
    def test_clean_reference_untouched(self, injector):
        x = _values()
        before = x.copy()
        result = injector(x, np.random.default_rng(1))
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(result.clean, before)

    @pytest.mark.parametrize("injector", INJECTORS)
    def test_actually_corrupts(self, injector):
        result = injector(_values(), np.random.default_rng(2))
        assert result.corrupted_fraction > 0

    def test_anomalies_stay_finite_but_masked(self):
        result = inject_point_anomalies(_values(), np.random.default_rng(3), rate=0.1)
        assert np.isfinite(result.values).all()
        hit = ~result.mask
        assert hit.any()
        assert (result.values[hit] != result.clean[hit]).all()

    def test_level_shift_masks_post_changepoint(self):
        result = inject_level_shift(_values(), np.random.default_rng(4))
        assert np.isfinite(result.values).all()
        assert result.corrupted_fraction > 0

    def test_block_missing_handles_short_series(self):
        # block_length > t must not produce a degenerate rng.integers range
        x = _values(t=3)
        result = inject_block_missing(x, np.random.default_rng(5), rate=0.5, block_length=8)
        assert result.values.shape == x.shape

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            inject_block_missing(np.zeros((5, 5)), np.random.default_rng(0))


class TestProfiles:
    def test_registry_contents(self):
        names = list_profiles()
        for required in (
            "block_missing",
            "sensor_outage",
            "point_anomalies",
            "level_shift",
            "irregular_sampling",
            "mixed",
        ):
            assert required in names

    @given(
        profile=st.sampled_from(sorted(CORRUPTION_PROFILES)),
        severity=st.floats(0.05, 1.0),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_profiles_deterministic_under_derive_rng(self, profile, severity, seed):
        """Same (profile, severity, seed, key) -> bitwise-identical dirt."""
        x = np.random.default_rng(9).normal(size=(3, 40, 2))
        a = apply_profile(profile, x, severity=severity, seed=seed, key="k")
        b = apply_profile(profile, x, severity=severity, seed=seed, key="k")
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.mask, b.mask)

    @given(
        profile=st.sampled_from(sorted(CORRUPTION_PROFILES)),
        severity=st.floats(0.1, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_profiles_mask_consistent(self, profile, severity):
        """Observed entries equal clean; non-finite entries are all masked."""
        x = np.random.default_rng(11).normal(size=(3, 40, 2))
        result = apply_profile(profile, x, severity=severity, seed=1, key="k")
        np.testing.assert_array_equal(result.values[result.mask], x[result.mask])
        assert not (~np.isfinite(result.values) & result.mask).any()

    def test_different_keys_differ(self):
        x = _values()
        a = apply_profile("block_missing", x, severity=0.4, seed=0, key="a")
        b = apply_profile("block_missing", x, severity=0.4, seed=0, key="b")
        assert not np.array_equal(a.mask, b.mask)

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            apply_profile("nope", _values())

    def test_severity_out_of_range_raises(self):
        with pytest.raises(ValueError):
            apply_profile("block_missing", _values(), severity=0.0)
        with pytest.raises(ValueError):
            apply_profile("block_missing", _values(), severity=1.5)


class TestImputeMissing:
    def _holed(self):
        x = _values()
        result = inject_block_missing(x, np.random.default_rng(0), rate=0.3)
        return x, result

    @pytest.mark.parametrize("policy", IMPUTATION_POLICIES)
    def test_fills_are_finite_and_observed_untouched(self, policy):
        _, result = self._holed()
        filled = impute_missing(result.values, result.mask, policy=policy)
        assert np.isfinite(filled).all()
        np.testing.assert_array_equal(filled[result.mask], result.values[result.mask])

    @pytest.mark.parametrize("policy", IMPUTATION_POLICIES)
    def test_clean_array_identity(self, policy):
        x = _values()
        assert impute_missing(x, policy=policy) is x

    @pytest.mark.parametrize("policy", IMPUTATION_POLICIES)
    def test_all_missing_slice_falls_back_to_zero(self, policy):
        x = _values(n=2, t=10)
        x[0, :, 0] = np.nan
        filled = impute_missing(x, policy=policy)
        np.testing.assert_array_equal(filled[0, :, 0], 0.0)

    def test_mean_policy_uses_observed_mean(self):
        x = np.array([[[1.0], [np.nan], [3.0]]])
        filled = impute_missing(x, policy="mean")
        assert filled[0, 1, 0] == pytest.approx(2.0)

    def test_mask_excludes_untrusted_anchors(self):
        # entry 2 is finite but untrusted; the mean must ignore it
        x = np.array([[[1.0], [np.nan], [100.0], [3.0]]])
        mask = np.array([[[True], [False], [False], [True]]])
        filled = impute_missing(x, mask, policy="mean")
        assert filled[0, 1, 0] == pytest.approx(2.0)
        assert filled[0, 2, 0] == 100.0  # untrusted-but-finite kept as-is

    def test_ffill_carries_forward_then_backward(self):
        x = np.array([[[np.nan], [2.0], [np.nan], [5.0], [np.nan]]])
        filled = impute_missing(x, policy="ffill")
        np.testing.assert_allclose(filled[0, :, 0], [2.0, 2.0, 2.0, 5.0, 5.0])

    def test_linear_interpolates_between_anchors(self):
        x = np.array([[[0.0], [np.nan], [np.nan], [3.0]]])
        filled = impute_missing(x, policy="linear")
        np.testing.assert_allclose(filled[0, :, 0], [0.0, 1.0, 2.0, 3.0])

    def test_preserves_float32(self):
        x = _values().astype(np.float32)
        x[0, 0, 0] = np.nan
        assert impute_missing(x, policy="mean").dtype == np.float32

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            impute_missing(_values(), policy="cubic")

    def test_pipeline_survives_outages(self):
        """A forecaster must stay finite when fed outage-corrupted data."""
        from repro.core import build_forecaster
        from repro.space import HyperSpace, JointSearchSpace

        rng = np.random.default_rng(0)
        result = inject_block_missing(
            np.abs(RNG.normal(10, 2, size=(4, 80, 1))), rng, rate=0.4, block_length=6
        )
        values = impute_missing(result.values, result.mask).astype(np.float32)
        data = CTSData(
            "corrupted", values, np.ones((4, 4), np.float32), "test", mask=result.mask
        )
        space = JointSearchSpace(
            hyper_space=HyperSpace(num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,),
                                   output_dims=(8,), output_modes=(0,), dropout=(0,))
        )
        model = build_forecaster(space.sample(rng), data, horizon=3)
        out = model(values.transpose(1, 0, 2)[None, :6])
        assert np.isfinite(out.numpy()).all()


class TestImputeNonFinite:
    def test_clean_array_is_returned_bit_identical(self):
        x = _values()
        assert impute_non_finite(x) is x

    def test_all_nan_slice_falls_back_to_zero(self):
        x = _values(n=2, t=8)
        x[1, :, 1] = np.nan
        out = impute_non_finite(x)
        np.testing.assert_array_equal(out[1, :, 1], 0.0)
        assert np.isfinite(out).all()

    def test_fills_with_finite_mean(self):
        x = np.array([[[2.0], [np.nan], [4.0]]])
        out = impute_non_finite(x)
        assert out[0, 1, 0] == pytest.approx(3.0)

    def test_inf_treated_as_missing(self):
        x = np.array([[[2.0], [np.inf], [4.0]]])
        out = impute_non_finite(x)
        assert out[0, 1, 0] == pytest.approx(3.0)

    def test_finite_entries_untouched(self):
        x = _values()
        x[0, 3, 0] = np.nan
        out = impute_non_finite(x)
        keep = np.isfinite(x)
        np.testing.assert_array_equal(out[keep], x[keep])


def _masked_dataset(n=4, t=60):
    values = np.abs(RNG.normal(10, 2, size=(n, t, 1))).astype(np.float32)
    adjacency = np.ones((n, n), np.float32)
    result = inject_block_missing(values, np.random.default_rng(0), rate=0.3)
    filled = impute_missing(result.values, result.mask).astype(np.float32)
    return CTSData("dirty", filled, adjacency, "test", mask=result.mask)


class TestCTSDataMask:
    def test_mask_shape_validated(self):
        values = np.ones((2, 10, 1), np.float32)
        with pytest.raises(ValueError):
            CTSData("bad", values, np.ones((2, 2), np.float32), "test",
                    mask=np.ones((2, 9, 1), dtype=bool))

    def test_mask_dtype_validated(self):
        values = np.ones((2, 10, 1), np.float32)
        with pytest.raises(ValueError):
            CTSData("bad", values, np.ones((2, 2), np.float32), "test",
                    mask=np.ones((2, 10, 1), dtype=np.float32))

    def test_mask_survives_slicing(self):
        data = _masked_dataset()
        sliced = data.slice_time(5, 40)
        np.testing.assert_array_equal(sliced.mask, data.mask[:, 5:40])
        picked = data.select_nodes(np.array([0, 2]))
        np.testing.assert_array_equal(picked.mask, data.mask[[0, 2]])

    def test_clean_data_has_no_mask(self):
        data = get_dataset("PEMS08", seed=0)
        assert data.mask is None


class TestCorruptDataset:
    def test_registry_dirty_variant(self):
        dirty = get_dataset("PEMS08-missing", seed=0)
        assert dirty.mask is not None
        assert np.isfinite(dirty.values).all()
        assert (~dirty.mask).mean() >= 0.2  # the e2e missingness floor

    def test_deterministic_across_calls(self):
        a = get_dataset("PEMS08-missing", seed=0)
        b = get_dataset("PEMS08-missing", seed=0)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_values_finite_and_observed_match_clean(self):
        clean = get_dataset("SZ-TAXI", seed=0)
        dirty = corrupt_dataset(clean, "block_missing", severity=0.25, seed=0)
        assert np.isfinite(dirty.values).all()
        np.testing.assert_array_equal(dirty.values[dirty.mask], clean.values[dirty.mask])
        assert dirty.name == "SZ-TAXI~block_missing@0.25"

    def test_existing_mask_intersected(self):
        base = _masked_dataset()
        dirty = corrupt_dataset(base, "irregular_sampling", severity=0.3, seed=0)
        assert (~dirty.mask).sum() >= (~base.mask).sum()
        assert not (dirty.mask & ~base.mask).any()


class TestMaskedScaler:
    def test_maskless_path_unchanged(self):
        x = _values()
        a = StandardScaler().fit(x)
        b = StandardScaler().fit(x, mask=None)
        np.testing.assert_array_equal(a.mean_, b.mean_)
        np.testing.assert_array_equal(a.std_, b.std_)

    def test_masked_stats_ignore_fill_values(self):
        x = _values()
        mask = np.ones(x.shape, dtype=bool)
        poisoned = x.copy()
        poisoned[0, :10] = 1e6  # imputed garbage
        mask[0, :10] = False
        clean_stats = StandardScaler().fit(x[:, :, :])
        masked_stats = StandardScaler().fit(poisoned, mask=mask)
        # masked stats must be close to stats over the trusted entries only
        trusted_mean = x.reshape(-1, x.shape[-1])[mask.reshape(-1, x.shape[-1])[:, 0]].mean(axis=0)
        np.testing.assert_allclose(masked_stats.mean_, trusted_mean, rtol=1e-6)
        assert abs(masked_stats.mean_[0] - clean_stats.mean_[0]) < 1.0

    def test_all_masked_feature_falls_back(self):
        x = _values()
        mask = np.zeros(x.shape, dtype=bool)
        scaler = StandardScaler().fit(x, mask=mask)
        np.testing.assert_array_equal(scaler.mean_, 0.0)
        np.testing.assert_array_equal(scaler.std_, 1.0)

    def test_mask_shape_mismatch_raises(self):
        x = _values()
        with pytest.raises(ValueError):
            StandardScaler().fit(x, mask=np.ones((1, 1, 1), dtype=bool))


class TestMaskedWindows:
    def test_windows_carry_masks(self):
        data = _masked_dataset()
        windows = make_windows(data, p=6, q=6)
        assert windows.x_mask is not None and windows.y_mask is not None
        assert windows.x_mask.shape == windows.x.shape
        assert windows.y_mask.shape == windows.y.shape
        train, val, test = split_windows(windows, (6, 2, 2))
        assert train.y_mask is not None
        assert len(train.y_mask) == len(train.y)

    def test_clean_windows_have_no_masks(self):
        data = get_dataset("SZ-TAXI", seed=0)
        windows = make_windows(data, p=6, q=6)
        assert windows.x_mask is None and windows.y_mask is None

    def test_masked_batches_match_plain_batches(self):
        """Same order and RNG consumption as iterate_batches."""
        data = _masked_dataset()
        windows = make_windows(data, p=6, q=6)
        plain = list(iterate_batches(windows, 16, np.random.default_rng(3)))
        masked = list(iterate_masked_batches(windows, 16, np.random.default_rng(3)))
        assert len(plain) == len(masked)
        for (x, y), (mx, my, my_mask) in zip(plain, masked):
            np.testing.assert_array_equal(x, mx)
            np.testing.assert_array_equal(y, my)
            assert my_mask.shape == my.shape

    def test_masked_batches_yield_none_for_clean(self):
        data = get_dataset("SZ-TAXI", seed=0)
        windows = make_windows(data, p=6, q=6)
        for _, _, y_mask in iterate_masked_batches(windows, 32):
            assert y_mask is None


class TestFingerprint:
    def test_mask_changes_fingerprint_only_when_present(self):
        from repro.runtime.fingerprint import task_fingerprint_material
        from repro.tasks import Task

        clean = get_dataset("SZ-TAXI", seed=0)
        material = task_fingerprint_material(Task(data=clean, p=6, q=6))
        assert "mask_sha256" not in material

        dirty = corrupt_dataset(clean, "block_missing", severity=0.25, seed=0)
        dirty_material = task_fingerprint_material(Task(data=dirty, p=6, q=6))
        assert "mask_sha256" in dirty_material

        other = corrupt_dataset(clean, "block_missing", severity=0.5, seed=0)
        other_material = task_fingerprint_material(Task(data=other, p=6, q=6))
        assert other_material["mask_sha256"] != dirty_material["mask_sha256"]
