"""Shared utilities: seeding and validation helpers."""

from .seeding import derive_rng

__all__ = ["derive_rng"]
