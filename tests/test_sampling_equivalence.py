"""Candidate sampling draws the same ``Generator`` stream as ``rng.choice``.

The sampling and mutation operators pick list elements with
``seq[int(rng.integers(len(seq)))]`` instead of ``rng.choice(seq)``: the
same draw at a quarter of the cost.  :class:`ReferenceSpace` keeps the
``rng.choice`` versions of every operator verbatim; the properties below
assert that both return equal arch-hypers and leave the generator in the
identical state, so every search, ranking and pre-training sample set is
unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    ArchHyper,
    Architecture,
    Edge,
    HyperParameters,
    HyperSpace,
    JointSearchSpace,
    getattr_hyper,
)
from repro.space.arch import _pick
from repro.space.sampling import _MAX_SAMPLE_ATTEMPTS


def reference_hyper_sample(space: HyperSpace, rng) -> HyperParameters:
    return HyperParameters(
        num_blocks=int(rng.choice(space.num_blocks)),
        num_nodes=int(rng.choice(space.num_nodes)),
        hidden_dim=int(rng.choice(space.hidden_dims)),
        output_dim=int(rng.choice(space.output_dims)),
        output_mode=int(rng.choice(space.output_modes)),
        dropout=int(rng.choice(space.dropout)),
    )


def reference_sample_architecture(num_nodes, rng, operators) -> Architecture:
    edges = []
    for target in range(1, num_nodes):
        sources = {int(rng.integers(0, target))}
        if target > 1 and rng.random() < 0.5:
            sources.add(int(rng.integers(0, target)))
        for source in sorted(sources):
            op = str(rng.choice(operators))
            edges.append(Edge(source, target, op))
    return Architecture(num_nodes=num_nodes, edges=tuple(edges))


class ReferenceSpace(JointSearchSpace):
    """The ``rng.choice`` sampling and mutation operators, as they were.

    ``sample_batch`` and ``crossover`` are inherited: they reach the
    reference draws through ``sample`` and ``mutate``.
    """

    def sample(self, rng, searchable_only=True):
        for _ in range(_MAX_SAMPLE_ATTEMPTS):
            hyper = reference_hyper_sample(self.hyper_space, rng)
            arch = reference_sample_architecture(hyper.num_nodes, rng, self.operators)
            candidate = ArchHyper(arch=arch, hyper=hyper)
            if not searchable_only or candidate.is_searchable():
                return candidate
        raise RuntimeError("failed to sample a searchable arch-hyper")

    def mutate(self, parent, rng):
        for _ in range(_MAX_SAMPLE_ATTEMPTS):
            kind = rng.choice(("operator", "topology", "hyper"))
            if kind == "operator":
                child = self._mutate_edge_operator(parent, rng)
            elif kind == "topology":
                child = self._mutate_topology(parent, rng)
            else:
                child = self._mutate_hyper(parent, rng)
            if child.is_searchable() and child.key() != parent.key():
                return child
        return self.sample(rng)

    def _mutate_edge_operator(self, parent, rng):
        edges = list(parent.arch.edges)
        index = int(rng.integers(len(edges)))
        old = edges[index]
        choices = [op for op in self.operators if op != old.op]
        edges[index] = Edge(old.source, old.target, str(rng.choice(choices)))
        arch = Architecture(parent.arch.num_nodes, tuple(edges))
        return ArchHyper(arch=arch, hyper=parent.hyper)

    def _mutate_topology(self, parent, rng):
        num_nodes = parent.arch.num_nodes
        target = int(rng.integers(1, num_nodes))
        kept = [e for e in parent.arch.edges if e.target != target]
        sources = {int(rng.integers(0, target))}
        if target > 1 and rng.random() < 0.5:
            sources.add(int(rng.integers(0, target)))
        new_edges = [
            Edge(source, target, str(rng.choice(self.operators)))
            for source in sorted(sources)
        ]
        arch = Architecture(num_nodes, tuple(kept + new_edges))
        return ArchHyper(arch=arch, hyper=parent.hyper)

    def _mutate_hyper(self, parent, rng):
        values = self.hyper_space.as_dict()
        name = str(rng.choice(list(values)))
        choices = [v for v in values[name] if v != getattr_hyper(parent.hyper, name)]
        if not choices:
            return parent
        new_value = int(rng.choice(choices))
        hyper_dict = parent.hyper.to_dict()
        hyper_dict[name] = new_value
        hyper = HyperParameters.from_dict(hyper_dict)
        if name == "C":
            arch = reference_sample_architecture(hyper.num_nodes, rng, self.operators)
        else:
            arch = parent.arch
        return ArchHyper(arch=arch, hyper=hyper)


# The paper's space, a tiny one whose single-valued axes exercise the
# no-alternative mutation path, and a reduced operator set.
SPACES = (
    HyperSpace(),
    HyperSpace(
        num_blocks=(1,), num_nodes=(3, 4), hidden_dims=(8, 12), output_dims=(8,),
        output_modes=(0, 1), dropout=(0, 1),
    ),
)
OPERATOR_SETS = (
    ("gdcc", "inf_t", "dgcn", "inf_s", "skip"),
    ("gdcc", "dgcn", "skip"),
)

spaces = st.builds(
    lambda hyper, ops: (JointSearchSpace(hyper, ops), ReferenceSpace(hyper, ops)),
    st.sampled_from(SPACES),
    st.sampled_from(OPERATOR_SETS),
)
seeds = st.integers(0, 2**32 - 1)


def _rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@given(st.integers(1, 7), seeds)
@settings(max_examples=60, deadline=None)
def test_pick_consumes_the_choice_stream(length, seed):
    seq = tuple(f"item{i}" for i in range(length))
    new, old = _rng_pair(seed)
    for _ in range(5):
        assert _pick(seq, new) == str(old.choice(seq))
    assert _same_state(new, old)


@given(spaces, seeds)
@settings(max_examples=40, deadline=None)
def test_sample_batch_matches_reference(pair, seed):
    space, reference = pair
    new, old = _rng_pair(seed)
    assert space.sample_batch(12, new) == reference.sample_batch(12, old)
    assert _same_state(new, old)


@given(spaces, seeds)
@settings(max_examples=40, deadline=None)
def test_mutate_matches_reference(pair, seed):
    space, reference = pair
    parents = space.sample_batch(6, np.random.default_rng(seed ^ 0x5EED))
    new, old = _rng_pair(seed)
    for parent in parents:
        assert space.mutate(parent, new) == reference.mutate(parent, old)
    assert _same_state(new, old)


@given(spaces, seeds)
@settings(max_examples=40, deadline=None)
def test_crossover_matches_reference(pair, seed):
    space, reference = pair
    parents = space.sample_batch(6, np.random.default_rng(seed ^ 0x5EED))
    new, old = _rng_pair(seed)
    for a, b in zip(parents, parents[1:] + parents[:1]):
        assert space.crossover(a, b, new) == reference.crossover(a, b, old)
    assert _same_state(new, old)
