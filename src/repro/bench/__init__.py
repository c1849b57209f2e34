"""Benchmark substrate: synthetic ISPD-2015-like designs and the 14-design suite."""

from .generator import DesignRecipe, generate_design
from .suite import (
    GROUPS,
    SUITE_ORDER,
    SUITE_RECIPES,
    ZERO_HOTSPOT_DESIGNS,
    group_index_of,
    suite_recipes,
)

__all__ = [
    "DesignRecipe",
    "generate_design",
    "GROUPS",
    "SUITE_ORDER",
    "SUITE_RECIPES",
    "ZERO_HOTSPOT_DESIGNS",
    "group_index_of",
    "suite_recipes",
]
