"""The joint architecture-hyperparameter search space (paper Section 3.1)."""

from .arch import (
    CANDIDATE_OPERATORS,
    IDENTITY_OPERATOR,
    MAX_INCOMING_EDGES,
    S_OPERATORS,
    T_OPERATORS,
    Architecture,
    Edge,
    sample_architecture,
)
from .archhyper import ArchHyper
from .encoding import (
    MAX_ENCODING_NODES,
    ArchHyperEncoding,
    encode_arch_hyper,
    encode_batch,
)
from .hyperparams import HyperParameters, HyperSpace
from .pruning import PruningConfig, prune_space, space_reduction
from .sampling import JointSearchSpace, getattr_hyper

__all__ = [
    "CANDIDATE_OPERATORS",
    "IDENTITY_OPERATOR",
    "MAX_INCOMING_EDGES",
    "S_OPERATORS",
    "T_OPERATORS",
    "Architecture",
    "Edge",
    "sample_architecture",
    "ArchHyper",
    "MAX_ENCODING_NODES",
    "ArchHyperEncoding",
    "encode_arch_hyper",
    "encode_batch",
    "HyperParameters",
    "HyperSpace",
    "PruningConfig",
    "prune_space",
    "space_reduction",
    "JointSearchSpace",
    "getattr_hyper",
]
