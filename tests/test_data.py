"""Tests for the CTS data substrate."""

import numpy as np
import pytest

from repro.data import (
    CTSData,
    DATASET_SPECS,
    SOURCE_DATASETS,
    StandardScaler,
    TARGET_DATASETS,
    gaussian_kernel_adjacency,
    get_dataset,
    get_spec,
    iterate_batches,
    list_datasets,
    make_windows,
    random_sensor_positions,
    split_windows,
    subsample_adjacency,
    transition_matrix,
)


class TestGraph:
    def test_adjacency_symmetric_and_self_loops(self):
        rng = np.random.default_rng(0)
        adj = gaussian_kernel_adjacency(random_sensor_positions(10, rng))
        np.testing.assert_allclose(adj, adj.T)
        np.testing.assert_allclose(np.diag(adj), 1.0)

    def test_threshold_sparsifies(self):
        rng = np.random.default_rng(0)
        pos = random_sensor_positions(20, rng)
        dense = gaussian_kernel_adjacency(pos, threshold=0.0)
        sparse = gaussian_kernel_adjacency(pos, threshold=0.5)
        assert (sparse == 0).sum() > (dense == 0).sum()

    def test_transition_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        adj = gaussian_kernel_adjacency(random_sensor_positions(8, rng))
        np.testing.assert_allclose(transition_matrix(adj).sum(axis=1), 1.0, rtol=1e-5)

    def test_subsample_preserves_weights(self):
        adj = np.arange(16, dtype=np.float32).reshape(4, 4)
        sub = subsample_adjacency(adj, np.array([1, 3]))
        np.testing.assert_array_equal(sub, [[5.0, 7.0], [13.0, 15.0]])


class TestRegistry:
    def test_all_datasets_materialize(self):
        for name in list_datasets():
            data = get_dataset(name, seed=0)
            spec = get_spec(name)
            assert data.n_series == spec.n_series
            assert data.n_steps == spec.n_steps
            assert np.isfinite(data.values).all()

    def test_deterministic_under_seed(self):
        a = get_dataset("PEMS-BAY", seed=3)
        b = get_dataset("PEMS-BAY", seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = get_dataset("PEMS-BAY", seed=1)
        b = get_dataset("PEMS-BAY", seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            get_dataset("NOPE")

    def test_source_and_target_disjoint(self):
        assert not set(SOURCE_DATASETS) & set(TARGET_DATASETS)

    def test_relative_scale_ordering_preserved(self):
        """Scaled-down sizes keep the paper's relative ordering (Table 3)."""
        big = DATASET_SPECS["PEMS-BAY"]
        small = DATASET_SPECS["Los-Loop"]
        assert big.paper_n_steps > small.paper_n_steps
        assert big.n_steps > small.n_steps

    def test_traffic_speed_is_positive_and_bounded(self):
        data = get_dataset("PEMS-BAY", seed=0)
        assert data.values.min() >= 3.0
        assert data.values.mean() > 30.0

    def test_demand_counts_are_nonnegative_integers(self):
        data = get_dataset("NYC-TAXI", seed=0)
        assert data.values.min() >= 0
        np.testing.assert_array_equal(data.values, np.round(data.values))

    def test_series_are_spatially_correlated(self):
        """Neighbouring traffic series should correlate more than random pairs."""
        data = get_dataset("PEMS-BAY", seed=0)
        series = data.values[:, :, 0]
        corr = np.corrcoef(series)
        adj = data.adjacency.copy()
        np.fill_diagonal(adj, 0.0)
        connected = corr[adj > 0.5]
        if connected.size:
            assert connected.mean() > 0.1


class TestCTSData:
    def _toy(self):
        values = np.arange(2 * 10 * 1, dtype=np.float32).reshape(2, 10, 1)
        return CTSData("toy", values, np.eye(2, dtype=np.float32), "test")

    def test_slice_time(self):
        sliced = self._toy().slice_time(2, 6)
        assert sliced.n_steps == 4
        assert sliced.values[0, 0, 0] == 2.0

    def test_slice_time_rejects_bad_range(self):
        with pytest.raises(ValueError):
            self._toy().slice_time(5, 100)

    def test_select_nodes(self):
        selected = self._toy().select_nodes(np.array([1]))
        assert selected.n_series == 1
        assert selected.adjacency.shape == (1, 1)

    def test_select_nodes_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            self._toy().select_nodes(np.array([5]))

    def test_rejects_inconsistent_adjacency(self):
        with pytest.raises(ValueError):
            CTSData("bad", np.zeros((3, 5, 1)), np.eye(2), "test")


class TestWindows:
    def _data(self, t=30):
        values = np.tile(np.arange(t, dtype=np.float32), (3, 1))[..., None]
        return CTSData("toy", values, np.eye(3, dtype=np.float32), "test")

    def test_multi_step_shapes(self):
        windows = make_windows(self._data(), p=4, q=2)
        assert windows.x.shape == (25, 4, 3, 1)
        assert windows.y.shape == (25, 2, 3, 1)

    def test_windows_are_contiguous(self):
        windows = make_windows(self._data(), p=4, q=2)
        # x of first sample: steps 0..3; y: steps 4..5
        np.testing.assert_array_equal(windows.x[0, :, 0, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(windows.y[0, :, 0, 0], [4, 5])

    def test_single_step_targets_qth_step(self):
        windows = make_windows(self._data(), p=4, q=3, single_step=True)
        assert windows.y.shape[1] == 1
        # Target of the first sample is step P+Q-1 = 6.
        assert windows.y[0, 0, 0, 0] == 6.0

    def test_rejects_too_short_series(self):
        with pytest.raises(ValueError):
            make_windows(self._data(t=5), p=4, q=2)

    def test_rejects_nonpositive_pq(self):
        with pytest.raises(ValueError):
            make_windows(self._data(), p=0, q=1)

    def test_split_ratio(self):
        windows = make_windows(self._data(t=103), p=2, q=2)  # 100 windows
        train, val, test = split_windows(windows, (7, 1, 2))
        assert (len(train), len(val), len(test)) == (70, 10, 20)

    def test_split_is_chronological(self):
        windows = make_windows(self._data(t=103), p=2, q=2)
        train, val, test = split_windows(windows, (7, 1, 2))
        assert train.x[-1, 0, 0, 0] < val.x[0, 0, 0, 0] < test.x[0, 0, 0, 0]

    def test_split_rejects_empty_partition(self):
        windows = make_windows(self._data(t=10), p=2, q=2)
        with pytest.raises(ValueError):
            split_windows(windows, (100, 1, 1))

    def test_batches_cover_everything_once(self):
        windows = make_windows(self._data(), p=4, q=2)
        seen = 0
        for x, y in iterate_batches(windows, batch_size=7):
            assert len(x) == len(y)
            seen += len(x)
        assert seen == len(windows)

    def test_shuffled_batches_permute(self):
        windows = make_windows(self._data(t=103), p=2, q=2)
        rng = np.random.default_rng(0)
        firsts = [x[0, 0, 0, 0] for x, _ in iterate_batches(windows, 10, rng=rng)]
        assert firsts != sorted(firsts)


class TestScaler:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5, 3, size=(4, 50, 2))
        scaler = StandardScaler()
        recovered = scaler.inverse_transform(scaler.fit_transform(values))
        np.testing.assert_allclose(recovered, values, rtol=1e-4)

    def test_transform_standardizes(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5, 3, size=(4, 200, 1))
        out = StandardScaler().fit_transform(values)
        assert abs(out.mean()) < 1e-4
        assert abs(out.std() - 1.0) < 1e-3

    def test_constant_feature_handled(self):
        values = np.ones((2, 10, 1))
        out = StandardScaler().fit_transform(values)
        assert np.isfinite(out).all()

    def test_use_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2, 1)))
