"""Encoding of the joint search space (paper Section 3.1.3).

An arch-hyper is encoded as its *dual* graph: DAG edges become nodes (one per
operator), information flow between consecutive operators becomes edges, and
one extra "Hyper" node — connected to every operator node — carries the
normalized hyperparameter vector.  The result is an adjacency matrix ``A_a``
(zero-padded to a fixed size, 14 in the paper) and per-node features: a
one-hot operator id for operator nodes and the r=6 hyperparameter vector for
the Hyper node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import CANDIDATE_OPERATORS
from .archhyper import ArchHyper
from .hyperparams import HyperSpace

# C=7 with at most two incoming edges per node yields at most 12 operators;
# plus the Hyper node -> the paper pads adjacency matrices to size 14.
MAX_ENCODING_NODES = 14

HYPER_NODE = 0  # index of the "Hyper" node within the encoding

_OPERATOR_INDEX = {name: i for i, name in enumerate(CANDIDATE_OPERATORS)}


@dataclass(frozen=True)
class ArchHyperEncoding:
    """Padded dual-graph encoding of one arch-hyper.

    Attributes:
        adjacency: ``(M, M)`` float32 with self-loops, zero padded.
        op_indices: ``(M,)`` int64; operator-vocabulary id per node,
            ``-1`` for the Hyper node and padding.
        hyper_vector: ``(r,)`` float32, min-max normalized ``[B,C,H,I,U,δ]``.
        mask: ``(M,)`` float32; 1 for real nodes, 0 for padding.
    """

    adjacency: np.ndarray
    op_indices: np.ndarray
    hyper_vector: np.ndarray
    mask: np.ndarray

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

def encode_arch_hyper(
    arch_hyper: ArchHyper,
    space: HyperSpace | None = None,
    max_nodes: int = MAX_ENCODING_NODES,
) -> ArchHyperEncoding:
    """Encode ``arch_hyper`` as its padded dual graph."""
    space = space or HyperSpace()
    edges = arch_hyper.arch.edges
    n_ops = len(edges)
    total = n_ops + 1  # + Hyper node
    if total > max_nodes:
        raise ValueError(
            f"arch-hyper has {n_ops} operators; exceeds encoding size {max_nodes}"
        )

    adjacency = np.zeros((max_nodes, max_nodes), dtype=np.float32)
    # Self-connections on real nodes (Section 3.1.3).
    for i in range(total):
        adjacency[i, i] = 1.0
    # The Hyper node connects to all operator nodes.
    for i in range(1, total):
        adjacency[HYPER_NODE, i] = 1.0
        adjacency[i, HYPER_NODE] = 1.0
    # Dual edges: operator (i->j) feeds operator (j->k).
    for a, edge_a in enumerate(edges):
        for b, edge_b in enumerate(edges):
            if edge_a.target == edge_b.source:
                adjacency[1 + a, 1 + b] = 1.0

    op_indices = np.full(max_nodes, -1, dtype=np.int64)
    for a, edge in enumerate(edges):
        if edge.op not in _OPERATOR_INDEX:
            raise KeyError(
                f"operator {edge.op!r} is not in the encoding vocabulary "
                f"{CANDIDATE_OPERATORS}; comparators must be retrained with "
                "an extended vocabulary before ranking custom operators"
            )
        op_indices[1 + a] = _OPERATOR_INDEX[edge.op]

    mask = np.zeros(max_nodes, dtype=np.float32)
    mask[:total] = 1.0

    return ArchHyperEncoding(
        adjacency=adjacency,
        op_indices=op_indices,
        hyper_vector=arch_hyper.hyper.normalized_vector(space),
        mask=mask,
    )


def encode_batch(
    arch_hypers: list[ArchHyper],
    space: HyperSpace | None = None,
    max_nodes: int = MAX_ENCODING_NODES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode many arch-hypers into stacked arrays for batched GIN encoding.

    Returns ``(adjacency (B,M,M), op_indices (B,M), hyper (B,r), mask (B,M))``.
    """
    encodings = [encode_arch_hyper(ah, space, max_nodes) for ah in arch_hypers]
    return (
        np.stack([e.adjacency for e in encodings]),
        np.stack([e.op_indices for e in encodings]),
        np.stack([e.hyper_vector for e in encodings]),
        np.stack([e.mask for e in encodings]),
    )
