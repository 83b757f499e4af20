"""Tests for the joint search space: validity, encoding, genetic operators."""

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    ArchHyper,
    Architecture,
    CANDIDATE_OPERATORS,
    Edge,
    HyperParameters,
    HyperSpace,
    JointSearchSpace,
    MAX_ENCODING_NODES,
    encode_arch_hyper,
    encode_batch,
    getattr_hyper,
    sample_architecture,
)
from repro.space.encoding import HYPER_NODE


class TestArchitectureValidity:
    def test_valid_architecture_accepted(self):
        Architecture(3, (Edge(0, 1, "gdcc"), Edge(1, 2, "dgcn")))

    def test_rejects_backward_edge(self):
        with pytest.raises(ValueError):
            Edge(2, 1, "gdcc")

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Edge(0, 1, "wavelet")

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            Architecture(3, (Edge(0, 1, "gdcc"), Edge(0, 1, "dgcn"), Edge(1, 2, "skip")))

    def test_rejects_isolated_node(self):
        with pytest.raises(ValueError):
            Architecture(3, (Edge(0, 2, "gdcc"),))

    def test_rejects_more_than_two_incoming(self):
        edges = (
            Edge(0, 1, "gdcc"),
            Edge(0, 2, "gdcc"),
            Edge(0, 3, "gdcc"),
            Edge(1, 3, "dgcn"),
            Edge(2, 3, "inf_s"),
        )
        with pytest.raises(ValueError):
            Architecture(4, edges)

    def test_rejects_edge_beyond_num_nodes(self):
        with pytest.raises(ValueError):
            Architecture(2, (Edge(0, 1, "gdcc"), Edge(1, 5, "dgcn")))

    def test_spatial_temporal_detection(self):
        t_only = Architecture(3, (Edge(0, 1, "gdcc"), Edge(1, 2, "inf_t")))
        assert t_only.has_temporal_operator() and not t_only.has_spatial_operator()

    def test_serialization_roundtrip(self):
        arch = Architecture(3, (Edge(0, 1, "gdcc"), Edge(1, 2, "dgcn")))
        assert Architecture.from_dict(arch.to_dict()) == arch

    @given(st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_sampled_architectures_always_valid(self, num_nodes, seed):
        rng = np.random.default_rng(seed)
        arch = sample_architecture(num_nodes, rng)
        arch.validate()  # must not raise
        assert arch.num_nodes == num_nodes


class TestHyperSpace:
    def test_cardinality_matches_table2(self):
        assert HyperSpace().cardinality == 3 * 2 * 3 * 3 * 2 * 2

    def test_enumerate_covers_cardinality(self):
        space = HyperSpace()
        assert len(list(space.enumerate())) == space.cardinality

    def test_sample_in_space(self):
        space = HyperSpace()
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert space.contains(space.sample(rng))

    def test_vector_roundtrip(self):
        hp = HyperParameters(2, 5, 32, 64, 0, 1)
        np.testing.assert_array_equal(hp.to_vector(), [2, 5, 32, 64, 0, 1])
        assert HyperParameters.from_dict(hp.to_dict()) == hp

    def test_normalized_vector_in_unit_cube(self):
        space = HyperSpace()
        for hp in space.enumerate():
            vec = hp.normalized_vector(space)
            assert (vec >= 0).all() and (vec <= 1).all()

    def test_normalized_extremes(self):
        space = HyperSpace()
        low = HyperParameters(2, 5, 32, 64, 0, 0)
        high = HyperParameters(6, 7, 64, 256, 1, 1)
        np.testing.assert_allclose(low.normalized_vector(space), 0.0)
        np.testing.assert_allclose(high.normalized_vector(space), 1.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            HyperParameters(0, 5, 32, 64, 0, 0)
        with pytest.raises(ValueError):
            HyperParameters(2, 5, 32, 64, 2, 0)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            HyperSpace(num_blocks=())


class TestArchHyper:
    def test_rejects_node_count_mismatch(self):
        arch = sample_architecture(5, np.random.default_rng(0))
        hyper = HyperParameters(2, 7, 32, 64, 0, 0)
        with pytest.raises(ValueError):
            ArchHyper(arch=arch, hyper=hyper)

    def test_key_stable_and_distinct(self):
        space = JointSearchSpace()
        rng = np.random.default_rng(0)
        a, b = space.sample(rng), space.sample(rng)
        assert a.key() == ArchHyper.from_dict(a.to_dict()).key()
        assert a.key() != b.key()

    def test_memoized_key_is_the_serialized_identity(self):
        ah = JointSearchSpace().sample(np.random.default_rng(3))
        fresh = json.dumps(ah.to_dict(), sort_keys=True)
        assert ah.key() == fresh
        assert ah.key() is ah.key()  # serialized once
        # The memo is not a field: equality, hash and to_dict ignore it.
        twin = ArchHyper.from_dict(ah.to_dict())
        assert "_key" not in {f.name for f in dataclasses.fields(ArchHyper)}
        assert twin == ah and hash(twin) == hash(ah)
        assert twin.to_dict() == ah.to_dict()
        restored = pickle.loads(pickle.dumps(ah))
        assert restored == ah and restored.key() == fresh
        assert pickle.loads(pickle.dumps(twin)).key() == fresh

    def test_searchable_filter(self):
        arch = Architecture(3, (Edge(0, 1, "gdcc"), Edge(1, 2, "inf_t")))
        ah = ArchHyper(arch, HyperParameters(2, 3, 32, 64, 0, 0))
        assert not ah.is_searchable()  # no spatial operator


class TestEncoding:
    def _sample(self, seed=0):
        return JointSearchSpace().sample(np.random.default_rng(seed))

    def test_encoding_shapes(self):
        enc = encode_arch_hyper(self._sample())
        m = MAX_ENCODING_NODES
        assert enc.adjacency.shape == (m, m)
        assert enc.op_indices.shape == (m,)
        assert enc.hyper_vector.shape == (6,)
        assert enc.mask.shape == (m,)

    def test_hyper_node_connects_to_all_operators(self):
        ah = self._sample()
        enc = encode_arch_hyper(ah)
        n_ops = len(ah.arch.edges)
        for i in range(1, n_ops + 1):
            assert enc.adjacency[HYPER_NODE, i] == 1.0
            assert enc.adjacency[i, HYPER_NODE] == 1.0

    def test_self_loops_on_real_nodes_only(self):
        ah = self._sample()
        enc = encode_arch_hyper(ah)
        diag = np.diag(enc.adjacency)
        np.testing.assert_array_equal(diag, enc.mask)

    def test_dual_edges_follow_information_flow(self):
        arch = Architecture(3, (Edge(0, 1, "gdcc"), Edge(1, 2, "dgcn")))
        ah = ArchHyper(arch, HyperParameters(2, 3, 32, 64, 0, 0))
        enc = encode_arch_hyper(ah)
        # edge0 (0->1) feeds edge1 (1->2): dual adjacency[1, 2] == 1
        assert enc.adjacency[1, 2] == 1.0
        assert enc.adjacency[2, 1] == 0.0

    def test_padding_is_zero(self):
        ah = self._sample()
        enc = encode_arch_hyper(ah)
        real = len(ah.arch.edges) + 1
        assert enc.adjacency[real:, :].sum() == 0
        assert enc.adjacency[:, real:].sum() == 0
        assert (enc.op_indices[real:] == -1).all()

    def test_op_indices_valid(self):
        ah = self._sample()
        enc = encode_arch_hyper(ah)
        real_ops = enc.op_indices[enc.op_indices >= 0]
        assert len(real_ops) == len(ah.arch.edges)
        assert (real_ops < len(CANDIDATE_OPERATORS)).all()

    def test_batch_encoding_stacks(self):
        space = JointSearchSpace()
        rng = np.random.default_rng(0)
        batch = space.sample_batch(4, rng)
        adj, ops, hyper, mask = encode_batch(batch)
        assert adj.shape == (4, MAX_ENCODING_NODES, MAX_ENCODING_NODES)
        assert ops.shape == (4, MAX_ENCODING_NODES)
        assert hyper.shape == (4, 6)

    def test_distinct_arch_hypers_have_distinct_encodings(self):
        space = JointSearchSpace()
        rng = np.random.default_rng(1)
        a, b = space.sample_batch(2, rng)
        ea, eb = encode_arch_hyper(a), encode_arch_hyper(b)
        assert (
            not np.array_equal(ea.adjacency, eb.adjacency)
            or not np.array_equal(ea.op_indices, eb.op_indices)
            or not np.array_equal(ea.hyper_vector, eb.hyper_vector)
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_every_sample_encodable(self, seed):
        ah = JointSearchSpace().sample(np.random.default_rng(seed))
        enc = encode_arch_hyper(ah)
        assert int(enc.mask.sum()) == len(ah.arch.edges) + 1
        assert int(enc.mask.sum()) <= MAX_ENCODING_NODES


class TestJointSearchSpace:
    def test_sample_batch_unique(self):
        space = JointSearchSpace()
        batch = space.sample_batch(20, np.random.default_rng(0))
        keys = {ah.key() for ah in batch}
        assert len(keys) == 20

    def test_samples_are_searchable(self):
        space = JointSearchSpace()
        rng = np.random.default_rng(0)
        for _ in range(30):
            assert space.sample(rng).is_searchable()

    def test_rejects_tiny_operator_set(self):
        with pytest.raises(ValueError):
            JointSearchSpace(operators=("gdcc",))

    @given(st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_mutation_preserves_validity(self, seed):
        rng = np.random.default_rng(seed)
        space = JointSearchSpace()
        parent = space.sample(rng)
        child = space.mutate(parent, rng)
        child.arch.validate()
        assert space.hyper_space.contains(child.hyper)
        assert child.is_searchable()
        assert child.key() != parent.key()

    @given(st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_crossover_preserves_validity(self, seed):
        rng = np.random.default_rng(seed)
        space = JointSearchSpace()
        a, b = space.sample(rng), space.sample(rng)
        child = space.crossover(a, b, rng)
        child.arch.validate()
        assert space.hyper_space.contains(child.hyper)
        assert child.is_searchable()

    def test_crossover_mixes_parents(self):
        rng = np.random.default_rng(3)
        space = JointSearchSpace()
        a, b = space.sample(rng), space.sample(rng)
        child = space.crossover(a, b, rng)
        assert child.arch in (a.arch, b.arch) or child.is_searchable()

    def test_getattr_hyper(self):
        hp = HyperParameters(4, 5, 48, 128, 1, 0)
        assert getattr_hyper(hp, "B") == 4
        assert getattr_hyper(hp, "H") == 48
        assert getattr_hyper(hp, "delta") == 0
