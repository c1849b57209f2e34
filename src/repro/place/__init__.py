"""Placement substrate: force-directed global placement and row legalisation."""

from .legalizer import LegalizationError, legalize
from .placer import place_design

__all__ = [
    "LegalizationError",
    "legalize",
    "place_design",
]
