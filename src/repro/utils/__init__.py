"""Shared utilities: seeded RNG handling, numeric helpers, table formatting."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.numeric import is_strictly_increasing
from repro.utils.tables import format_table, format_float

__all__ = [
    "as_generator",
    "spawn_generators",
    "is_strictly_increasing",
    "format_table",
    "format_float",
]
