"""Arch-hyper pairs: the elements of the joint search space (Section 3.1).

An :class:`ArchHyper` couples an ST-block :class:`Architecture` with a
:class:`HyperParameters` setting.  It is the unit that the comparator ranks,
the evolutionary algorithm evolves, and the forecaster builder consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arch import Architecture
from .hyperparams import HyperParameters


@dataclass(frozen=True)
class ArchHyper:
    """A point in the joint architecture-hyperparameter search space."""

    arch: Architecture
    hyper: HyperParameters

    def __post_init__(self) -> None:
        if self.arch.num_nodes != self.hyper.num_nodes:
            raise ValueError(
                f"architecture has {self.arch.num_nodes} nodes but the "
                f"hyperparameters specify C={self.hyper.num_nodes}"
            )

    def is_searchable(self) -> bool:
        """The search-strategy filter of Section 3.3.

        Arch-hypers lacking either spatial or temporal operators forecast
        poorly and are removed before ranking.
        """
        return self.arch.has_spatial_operator() and self.arch.has_temporal_operator()

    # ------------------------------------------------------------------
    # Identity and serialization
    # ------------------------------------------------------------------
    def key(self) -> str:
        """A stable, hashable identity string (used for dedup and caching).

        Serialized once per instance and kept in ``_key``, outside the
        dataclass fields, so equality, hashing and :meth:`to_dict` never see
        it.  Sound because the instance is frozen.  Evolution and ranking
        ask for the keys of the same candidates thousands of times.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = json.dumps(self.to_dict(), sort_keys=True)
            object.__setattr__(self, "_key", key)
        return key

    def to_dict(self) -> dict:
        return {"arch": self.arch.to_dict(), "hyper": self.hyper.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ArchHyper":
        return cls(
            arch=Architecture.from_dict(d["arch"]),
            hyper=HyperParameters.from_dict(d["hyper"]),
        )

    def __str__(self) -> str:
        return f"ArchHyper({self.hyper} | {self.arch})"
