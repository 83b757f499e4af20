"""Sampling, mutation, and crossover over the joint search space.

:class:`JointSearchSpace` is the single entry point the rest of the framework
uses to draw candidates: random sampling for comparator pre-training, and the
genetic operators (crossover probability p1, mutation probability p2) used by
the evolutionary search of Section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .arch import Architecture, CANDIDATE_OPERATORS, Edge, _pick, sample_architecture
from .archhyper import ArchHyper
from .hyperparams import HyperParameters, HyperSpace

_MAX_SAMPLE_ATTEMPTS = 200


@dataclass(frozen=True)
class JointSearchSpace:
    """The joint architecture-hyperparameter search space.

    ``operators`` defaults to the paper's candidate set; extend it (after
    registering the implementation) to grow the space, exactly as Section
    3.1.1 prescribes.
    """

    hyper_space: HyperSpace = HyperSpace()
    operators: tuple[str, ...] = CANDIDATE_OPERATORS

    def __post_init__(self) -> None:
        if len(self.operators) < 2:
            raise ValueError("the operator set must contain at least two operators")

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(
        self, rng: np.random.Generator, searchable_only: bool = True
    ) -> ArchHyper:
        """Draw one valid arch-hyper uniformly at random.

        With ``searchable_only`` (the search-strategy filter of Section 3.3),
        candidates lacking spatial or temporal operators are rejected.
        """
        for _ in range(_MAX_SAMPLE_ATTEMPTS):
            hyper = self.hyper_space.sample(rng)
            arch = sample_architecture(hyper.num_nodes, rng, self.operators)
            candidate = ArchHyper(arch=arch, hyper=hyper)
            if not searchable_only or candidate.is_searchable():
                return candidate
        raise RuntimeError(
            "failed to sample a searchable arch-hyper; the operator set may "
            "lack spatial or temporal operators"
        )

    def sample_batch(
        self,
        count: int,
        rng: np.random.Generator,
        unique: bool = True,
        searchable_only: bool = True,
    ) -> list[ArchHyper]:
        """Draw ``count`` arch-hypers, deduplicated by identity key."""
        samples: list[ArchHyper] = []
        seen: set[str] = set()
        attempts = 0
        while len(samples) < count:
            attempts += 1
            if attempts > _MAX_SAMPLE_ATTEMPTS * max(count, 1):
                raise RuntimeError(
                    f"could not draw {count} unique arch-hypers; space too small"
                )
            candidate = self.sample(rng, searchable_only=searchable_only)
            if unique:
                key = candidate.key()
                if key in seen:
                    continue
                seen.add(key)
            samples.append(candidate)
        return samples

    # ------------------------------------------------------------------
    # Genetic operators (Section 3.3)
    # ------------------------------------------------------------------
    def mutate(self, parent: ArchHyper, rng: np.random.Generator) -> ArchHyper:
        """Return a mutated copy of ``parent`` (one local change)."""
        for _ in range(_MAX_SAMPLE_ATTEMPTS):
            kind = _pick(("operator", "topology", "hyper"), rng)
            if kind == "operator":
                child = self._mutate_edge_operator(parent, rng)
            elif kind == "topology":
                child = self._mutate_topology(parent, rng)
            else:
                child = self._mutate_hyper(parent, rng)
            if child.is_searchable() and child.key() != parent.key():
                return child
        return self.sample(rng)

    def crossover(
        self, parent_a: ArchHyper, parent_b: ArchHyper, rng: np.random.Generator
    ) -> ArchHyper:
        """Combine the architecture of one parent with the hyperparameters
        of the other, reconciling the shared node count C."""
        if rng.random() < 0.5:
            parent_a, parent_b = parent_b, parent_a
        arch = parent_a.arch
        hyper = dc_replace(parent_b.hyper, num_nodes=arch.num_nodes)
        child = ArchHyper(arch=arch, hyper=hyper)
        if child.is_searchable():
            return child
        return self.mutate(child, rng)

    # ------------------------------------------------------------------
    # Mutation internals
    # ------------------------------------------------------------------
    def _mutate_edge_operator(
        self, parent: ArchHyper, rng: np.random.Generator
    ) -> ArchHyper:
        edges = list(parent.arch.edges)
        index = int(rng.integers(len(edges)))
        old = edges[index]
        choices = [op for op in self.operators if op != old.op]
        edges[index] = Edge(old.source, old.target, str(_pick(choices, rng)))
        arch = Architecture(parent.arch.num_nodes, tuple(edges))
        return ArchHyper(arch=arch, hyper=parent.hyper)

    def _mutate_topology(
        self, parent: ArchHyper, rng: np.random.Generator
    ) -> ArchHyper:
        """Rewire the incoming edges of one randomly chosen non-input node."""
        num_nodes = parent.arch.num_nodes
        target = int(rng.integers(1, num_nodes))
        kept = [e for e in parent.arch.edges if e.target != target]
        sources = {int(rng.integers(0, target))}
        if target > 1 and rng.random() < 0.5:
            sources.add(int(rng.integers(0, target)))
        new_edges = [
            Edge(source, target, str(_pick(self.operators, rng)))
            for source in sorted(sources)
        ]
        arch = Architecture(num_nodes, tuple(kept + new_edges))
        return ArchHyper(arch=arch, hyper=parent.hyper)

    def _mutate_hyper(self, parent: ArchHyper, rng: np.random.Generator) -> ArchHyper:
        values = self.hyper_space.as_dict()
        name = str(_pick(list(values), rng))
        choices = [v for v in values[name] if v != getattr_hyper(parent.hyper, name)]
        if not choices:
            return parent
        new_value = int(_pick(choices, rng))
        hyper_dict = parent.hyper.to_dict()
        hyper_dict[name] = new_value
        hyper = HyperParameters.from_dict(hyper_dict)
        if name == "C":
            # The node count changed: the DAG must be re-drawn at the new C.
            arch = sample_architecture(hyper.num_nodes, rng, self.operators)
        else:
            arch = parent.arch
        return ArchHyper(arch=arch, hyper=hyper)


_HYPER_FIELDS = {
    "B": "num_blocks",
    "C": "num_nodes",
    "H": "hidden_dim",
    "I": "output_dim",
    "U": "output_mode",
    "delta": "dropout",
}


def getattr_hyper(hyper: HyperParameters, short_name: str) -> int:
    """Read a hyperparameter by its paper symbol (B, C, H, I, U, delta)."""
    return getattr(hyper, _HYPER_FIELDS[short_name])
