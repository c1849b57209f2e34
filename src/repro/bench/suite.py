"""The 14-design benchmark suite mirroring Table I of the paper.

The paper uses 14 ISPD-2015 designs in five groups.  We reproduce the same
names, the same grouping, the same macro counts, and the same *relative*
sizes and congestion levels, scaled down roughly 10× in g-cell count so that
the complete flow (place → global route → DRC simulation → features) over all
14 designs runs in minutes.

Per-design knobs (utilization, locality, dense-cluster boost, NDR fraction)
are chosen so the *simulated* flow produces a hotspot-count spread resembling
Table I: e.g. ``des_perf_1`` and ``fft_b`` are congestion-heavy with many
hotspots, ``mult_a`` and ``fft_a`` are sparse with a handful, and
``des_perf_b`` / ``bridge32_b`` come out clean.  The exact hotspot counts are
an *output* of the mechanistic flow, not inputs — see
``benchmarks/test_table1_suite.py`` for the values the suite actually yields.
"""

from __future__ import annotations

from dataclasses import replace

from .generator import DesignRecipe

#: Group structure of Table I.
GROUPS: dict[str, tuple[str, ...]] = {
    "Group 1": ("des_perf_b", "fft_2", "mult_1", "mult_2"),
    "Group 2": ("fft_b", "mult_a"),
    "Group 3": ("mult_b", "bridge32_a"),
    "Group 4": ("des_perf_1", "mult_c"),
    "Group 5": ("des_perf_a", "fft_1", "fft_a", "bridge32_b"),
}

#: Designs Table II excludes because they have zero hotspots (metrics
#: undefined).  In the paper these are des_perf_b and bridge32_b.
ZERO_HOTSPOT_DESIGNS: tuple[str, ...] = ("des_perf_b", "bridge32_b")


#: Every design recipe, keyed by name, in Table I order.
SUITE_RECIPES: dict[str, DesignRecipe] = {
    # ---- Group 1 -------------------------------------------------------------
    "des_perf_b": DesignRecipe(
        name="des_perf_b", grid_nx=33, grid_ny=33, utilization=0.42,
        num_macros=0, mean_net_degree=2.6, cluster_locality=0.9,
        dense_cluster_frac=0.08, dense_net_boost=1.2, ndr_frac=0.01, seed=101,
    ),
    "fft_2": DesignRecipe(
        name="fft_2", grid_nx=18, grid_ny=18, utilization=0.64,
        num_macros=0, mean_net_degree=2.7, cluster_locality=0.85,
        dense_cluster_frac=0.3, dense_net_boost=2.0, ndr_frac=0.02, seed=102,
    ),
    "mult_1": DesignRecipe(
        name="mult_1", grid_nx=29, grid_ny=29, utilization=0.66,
        num_macros=0, mean_net_degree=2.9, cluster_locality=0.82,
        dense_cluster_frac=0.2, dense_net_boost=1.8, ndr_frac=0.03, seed=103,
    ),
    "mult_2": DesignRecipe(
        name="mult_2", grid_nx=30, grid_ny=30, utilization=0.7,
        num_macros=0, mean_net_degree=2.9, cluster_locality=0.82,
        dense_cluster_frac=0.22, dense_net_boost=1.9, ndr_frac=0.03, seed=104,
    ),
    # ---- Group 2 -------------------------------------------------------------
    "fft_b": DesignRecipe(
        name="fft_b", grid_nx=26, grid_ny=26, utilization=0.58,
        num_macros=6, macro_area_frac=0.12, mean_net_degree=3.1,
        cluster_locality=0.78, dense_cluster_frac=0.3, dense_net_boost=2.0,
        ndr_frac=0.05, seed=105,
    ),
    "mult_a": DesignRecipe(
        name="mult_a", grid_nx=47, grid_ny=47, utilization=0.45,
        num_macros=5, macro_area_frac=0.08, mean_net_degree=2.6,
        cluster_locality=0.9, dense_cluster_frac=0.06, dense_net_boost=1.4,
        ndr_frac=0.01, seed=106,
    ),
    # ---- Group 3 -------------------------------------------------------------
    "mult_b": DesignRecipe(
        name="mult_b", grid_nx=49, grid_ny=49, utilization=0.52,
        num_macros=7, macro_area_frac=0.1, mean_net_degree=2.9,
        cluster_locality=0.8, dense_cluster_frac=0.14, dense_net_boost=1.9,
        ndr_frac=0.03, seed=107,
    ),
    "bridge32_a": DesignRecipe(
        name="bridge32_a", grid_nx=19, grid_ny=19, utilization=0.68,
        num_macros=4, macro_area_frac=0.1, mean_net_degree=2.9,
        cluster_locality=0.8, dense_cluster_frac=0.25, dense_net_boost=1.8,
        ndr_frac=0.04, seed=108,
    ),
    # ---- Group 4 -------------------------------------------------------------
    "des_perf_1": DesignRecipe(
        name="des_perf_1", grid_nx=23, grid_ny=23, utilization=0.71,
        num_macros=0, mean_net_degree=3.2, cluster_locality=0.75,
        dense_cluster_frac=0.35, dense_net_boost=2.1, ndr_frac=0.06, seed=119,
    ),
    "mult_c": DesignRecipe(
        name="mult_c", grid_nx=50, grid_ny=50, utilization=0.43,
        num_macros=7, macro_area_frac=0.1, mean_net_degree=2.7,
        cluster_locality=0.86, dense_cluster_frac=0.1, dense_net_boost=1.7,
        ndr_frac=0.02, seed=120,
    ),
    # ---- Group 5 -------------------------------------------------------------
    "des_perf_a": DesignRecipe(
        name="des_perf_a", grid_nx=34, grid_ny=34, utilization=0.52,
        num_macros=4, macro_area_frac=0.08, mean_net_degree=3.0,
        cluster_locality=0.8, dense_cluster_frac=0.2, dense_net_boost=1.9,
        ndr_frac=0.04, seed=111,
    ),
    "fft_1": DesignRecipe(
        name="fft_1", grid_nx=14, grid_ny=14, utilization=0.65,
        num_macros=0, mean_net_degree=3.0, cluster_locality=0.78,
        dense_cluster_frac=0.3, dense_net_boost=2.0, ndr_frac=0.05, seed=112,
    ),
    "fft_a": DesignRecipe(
        name="fft_a", grid_nx=25, grid_ny=25, utilization=0.42,
        num_macros=6, macro_area_frac=0.12, mean_net_degree=2.6,
        cluster_locality=0.9, dense_cluster_frac=0.06, dense_net_boost=1.3,
        ndr_frac=0.01, seed=113,
    ),
    "bridge32_b": DesignRecipe(
        name="bridge32_b", grid_nx=32, grid_ny=32, utilization=0.38,
        num_macros=6, macro_area_frac=0.1, mean_net_degree=2.5,
        cluster_locality=0.92, dense_cluster_frac=0.05, dense_net_boost=1.1,
        ndr_frac=0.005, seed=114,
    ),
}

#: Table I design order (groups in order, designs in listed order).
SUITE_ORDER: tuple[str, ...] = tuple(
    name for members in GROUPS.values() for name in members
)


def suite_recipes(scale: float = 1.0) -> list[DesignRecipe]:
    """All 14 recipes in Table I order, optionally scaled down.

    Quick runs and tests use a reduced suite: every g-cell grid is scaled
    (to at least 6×6), and a grid under 10 g-cells a side keeps at most 2
    macros.
    """
    recipes = [SUITE_RECIPES[name] for name in SUITE_ORDER]
    if scale == 1.0:
        return recipes
    scaled = []
    for recipe in recipes:
        nx = max(6, round(recipe.grid_nx * scale))
        ny = max(6, round(recipe.grid_ny * scale))
        macros = recipe.num_macros if min(nx, ny) >= 10 else min(recipe.num_macros, 2)
        scaled.append(replace(recipe, grid_nx=nx, grid_ny=ny, num_macros=macros))
    return scaled


def group_index_of(design_name: str) -> int:
    """0-based group index (0..4) of a design — the CV grouping key."""
    for i, members in enumerate(GROUPS.values()):
        if design_name in members:
            return i
    raise KeyError(f"unknown design: {design_name!r}")
