"""The hyperparameter search space (paper Table 2).

Structural hyperparameters (B, C, H, I, U) shape the ST-backbone; the
training hyperparameter δ toggles dropout.  A concrete choice is a
:class:`HyperParameters` value, representable as the r=6-dimensional vector
``[B, C, H, I, U, δ]`` used by the "Hyper" node encoding of Section 3.1.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .arch import _pick


@dataclass(frozen=True)
class HyperSpace:
    """Candidate values for each hyperparameter.

    Defaults are the paper's Table 2.  Benchmarks running on CPU instantiate
    a scaled-down variant (see ``repro.experiments.config``); the space
    semantics are identical.
    """

    num_blocks: tuple[int, ...] = (2, 4, 6)  # B
    num_nodes: tuple[int, ...] = (5, 7)  # C
    hidden_dims: tuple[int, ...] = (32, 48, 64)  # H
    output_dims: tuple[int, ...] = (64, 128, 256)  # I
    output_modes: tuple[int, ...] = (0, 1)  # U
    dropout: tuple[int, ...] = (0, 1)  # δ

    def __post_init__(self) -> None:
        for name, values in self.as_dict().items():
            if not values:
                raise ValueError(f"hyperparameter {name} has no candidate values")

    def as_dict(self) -> dict[str, tuple[int, ...]]:
        return {
            "B": self.num_blocks,
            "C": self.num_nodes,
            "H": self.hidden_dims,
            "I": self.output_dims,
            "U": self.output_modes,
            "delta": self.dropout,
        }

    @property
    def cardinality(self) -> int:
        """Number of distinct hyperparameter vectors in the space."""
        return int(np.prod([len(v) for v in self.as_dict().values()]))

    def sample(self, rng: np.random.Generator) -> "HyperParameters":
        """Draw one hyperparameter setting uniformly at random."""
        return HyperParameters(
            num_blocks=int(_pick(self.num_blocks, rng)),
            num_nodes=int(_pick(self.num_nodes, rng)),
            hidden_dim=int(_pick(self.hidden_dims, rng)),
            output_dim=int(_pick(self.output_dims, rng)),
            output_mode=int(_pick(self.output_modes, rng)),
            dropout=int(_pick(self.dropout, rng)),
        )

    def enumerate(self):
        """Iterate every hyperparameter vector in the space."""
        for b, c, h, i, u, d in product(
            self.num_blocks,
            self.num_nodes,
            self.hidden_dims,
            self.output_dims,
            self.output_modes,
            self.dropout,
        ):
            yield HyperParameters(b, c, h, i, u, d)

    def contains(self, hp: "HyperParameters") -> bool:
        return (
            hp.num_blocks in self.num_blocks
            and hp.num_nodes in self.num_nodes
            and hp.hidden_dim in self.hidden_dims
            and hp.output_dim in self.output_dims
            and hp.output_mode in self.output_modes
            and hp.dropout in self.dropout
        )

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-component min/max, used for min-max normalization (Eq. 7)."""
        values = list(self.as_dict().values())
        lows = np.array([min(v) for v in values], dtype=np.float32)
        highs = np.array([max(v) for v in values], dtype=np.float32)
        return lows, highs


@dataclass(frozen=True)
class HyperParameters:
    """One concrete hyperparameter setting, the r=6 vector of the paper."""

    num_blocks: int  # B: ST-blocks in the backbone
    num_nodes: int  # C: nodes per ST-block
    hidden_dim: int  # H: S/T-operator hidden dimension
    output_dim: int  # I: output-module dimension
    output_mode: int  # U: 0 = last node, 1 = sum of intermediate nodes
    dropout: int  # δ: 1 = use dropout while training

    def __post_init__(self) -> None:
        if self.num_blocks < 1 or self.num_nodes < 2:
            raise ValueError(f"degenerate hyperparameters: {self}")
        if self.output_mode not in (0, 1) or self.dropout not in (0, 1):
            raise ValueError(f"U and δ must be binary: {self}")

    def to_vector(self) -> np.ndarray:
        """The paper's ``[B, C, H, I, U, δ]`` feature vector."""
        return np.array(
            [
                self.num_blocks,
                self.num_nodes,
                self.hidden_dim,
                self.output_dim,
                self.output_mode,
                self.dropout,
            ],
            dtype=np.float32,
        )

    def normalized_vector(self, space: HyperSpace) -> np.ndarray:
        """Min-max normalized vector (Eq. 7)."""
        lows, highs = space.bounds()
        span = np.where(highs > lows, highs - lows, 1.0)
        return (self.to_vector() - lows) / span

    def to_dict(self) -> dict[str, int]:
        return {
            "B": self.num_blocks,
            "C": self.num_nodes,
            "H": self.hidden_dim,
            "I": self.output_dim,
            "U": self.output_mode,
            "delta": self.dropout,
        }

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> "HyperParameters":
        return cls(d["B"], d["C"], d["H"], d["I"], d["U"], d["delta"])

    def __str__(self) -> str:
        return (
            f"B={self.num_blocks}, C={self.num_nodes}, H={self.hidden_dim}, "
            f"I={self.output_dim}, U={self.output_mode}, δ={self.dropout}"
        )
