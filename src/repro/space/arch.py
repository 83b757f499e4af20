"""The architecture search space: ST-block DAGs (Section 3.1.1).

An ST-block is a DAG of ``C`` latent nodes; each directed edge ``(i, j)``
with ``i < j`` carries one operator from the candidate set
``{GDCC, INF-T, DGCN, INF-S, identity}``.  Topological-connection rules:

1. at most one edge between any node pair, always forward (``i < j``),
2. each non-input node has at least one and at most two incoming edges
   (matching the derivation rule of supernet-based predecessors),
3. every non-input node is reachable from the input node ``h_0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The candidate operator set O of the paper (Section 3.1.1).
T_OPERATORS = ("gdcc", "inf_t")
S_OPERATORS = ("dgcn", "inf_s")
IDENTITY_OPERATOR = "skip"
CANDIDATE_OPERATORS = T_OPERATORS + S_OPERATORS + (IDENTITY_OPERATOR,)

# Edge validation accepts the paper's candidates plus any operator name that
# was registered afterwards (Section 3.1.1's "easily accommodate additional
# operators").  repro.operators.register_operator keeps this in sync.
KNOWN_OPERATOR_NAMES: set[str] = set(CANDIDATE_OPERATORS)

MAX_INCOMING_EDGES = 2


def register_operator_name(name: str) -> None:
    """Allow ``name`` to appear on architecture edges."""
    if not name:
        raise ValueError("operator names must be non-empty")
    KNOWN_OPERATOR_NAMES.add(name)


@dataclass(frozen=True, order=True)
class Edge:
    """A directed, operator-labelled edge of an ST-block DAG."""

    source: int
    target: int
    op: str

    def __post_init__(self) -> None:
        if self.source >= self.target:
            raise ValueError(f"edges must be forward (i < j): {self}")
        if self.source < 0:
            raise ValueError(f"negative node index: {self}")
        if self.op not in KNOWN_OPERATOR_NAMES:
            raise ValueError(
                f"unknown operator {self.op!r}; "
                f"known: {sorted(KNOWN_OPERATOR_NAMES)}"
            )


@dataclass(frozen=True)
class Architecture:
    """An ST-block DAG: ``num_nodes`` latent nodes plus labelled edges."""

    num_nodes: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        self.validate()

    # ------------------------------------------------------------------
    # Validity (the topological-connection rules)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("an ST-block needs at least two nodes")
        seen_pairs: set[tuple[int, int]] = set()
        incoming: dict[int, int] = {}
        for edge in self.edges:
            if edge.target >= self.num_nodes:
                raise ValueError(f"edge {edge} exceeds num_nodes={self.num_nodes}")
            pair = (edge.source, edge.target)
            if pair in seen_pairs:
                raise ValueError(f"duplicate edge between nodes {pair}")
            seen_pairs.add(pair)
            incoming[edge.target] = incoming.get(edge.target, 0) + 1
        for node in range(1, self.num_nodes):
            count = incoming.get(node, 0)
            if count == 0:
                raise ValueError(f"node {node} has no incoming edge")
            if count > MAX_INCOMING_EDGES:
                raise ValueError(
                    f"node {node} has {count} incoming edges "
                    f"(max {MAX_INCOMING_EDGES})"
                )
        if not self._all_reachable():
            raise ValueError("not every node is reachable from the input node")

    def _all_reachable(self) -> bool:
        reachable = {0}
        for edge in self.edges:  # edges sorted by (source, target): one pass works
            if edge.source in reachable:
                reachable.add(edge.target)
        return len(reachable) == self.num_nodes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def has_spatial_operator(self) -> bool:
        return any(edge.op in S_OPERATORS for edge in self.edges)

    def has_temporal_operator(self) -> bool:
        return any(edge.op in T_OPERATORS for edge in self.edges)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "edges": [(e.source, e.target, e.op) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Architecture":
        return cls(
            num_nodes=d["num_nodes"],
            edges=tuple(Edge(s, t, op) for s, t, op in d["edges"]),
        )

    def __str__(self) -> str:
        body = ", ".join(f"{e.source}-[{e.op}]->{e.target}" for e in self.edges)
        return f"Arch(C={self.num_nodes}: {body})"


def _pick(seq, rng: np.random.Generator):
    """One uniform draw from ``seq``.

    Consumes exactly the ``Generator`` stream of ``rng.choice(seq)`` (both
    draw ``integers(0, len(seq))``) at a quarter of its cost, and returns
    the element itself rather than a numpy scalar.
    """
    return seq[int(rng.integers(len(seq)))]


def sample_architecture(
    num_nodes: int, rng: np.random.Generator, operators=CANDIDATE_OPERATORS
) -> Architecture:
    """Sample a valid random ST-block DAG with ``num_nodes`` nodes.

    Each non-input node receives one mandatory predecessor (guaranteeing
    reachability) and, with probability 1/2, a second one — mirroring the
    1–2 incoming edges retained by supernet derivation.
    """
    edges: list[Edge] = []
    for target in range(1, num_nodes):
        sources = {int(rng.integers(0, target))}
        if target > 1 and rng.random() < 0.5:
            sources.add(int(rng.integers(0, target)))
        for source in sorted(sources):
            op = str(_pick(operators, rng))
            edges.append(Edge(source, target, op))
    return Architecture(num_nodes=num_nodes, edges=tuple(edges))
