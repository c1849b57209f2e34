"""Tests for the synthetic design generator and the 14-design suite."""

import pytest

from repro.bench.generator import NUM_CLOCK_NETS, DesignRecipe, generate_design
from repro.place.legalizer import LegalizationError
from repro.bench.suite import (
    GROUPS,
    SUITE_ORDER,
    SUITE_RECIPES,
    group_index_of,
    suite_recipes,
)


class TestGenerator:
    def test_deterministic(self):
        r = DesignRecipe(name="det", grid_nx=10, grid_ny=10, seed=5)
        d1 = generate_design(r)
        d2 = generate_design(r)
        assert d1.num_cells == d2.num_cells
        assert len(d1.nets) == len(d2.nets)
        assert [n.degree for n in d1.nets] == [n.degree for n in d2.nets]

    def test_seed_changes_netlist(self):
        r1 = DesignRecipe(name="s1", grid_nx=10, grid_ny=10, seed=1)
        r2 = DesignRecipe(name="s2", grid_nx=10, grid_ny=10, seed=2)
        d1, d2 = generate_design(r1), generate_design(r2)
        degrees1 = [n.degree for n in d1.nets][:50]
        degrees2 = [n.degree for n in d2.nets][:50]
        assert degrees1 != degrees2

    def test_utilization_controls_cell_count(self):
        lo = generate_design(DesignRecipe(name="lo", grid_nx=12, grid_ny=12, utilization=0.4))
        hi = generate_design(DesignRecipe(name="hi", grid_nx=12, grid_ny=12, utilization=0.7))
        assert hi.num_cells > lo.num_cells * 1.4

    def test_cell_area_matches_utilization(self):
        r = DesignRecipe(name="u", grid_nx=12, grid_ny=12, utilization=0.6)
        d = generate_design(r)
        assert d.total_cell_area() / d.die.area == pytest.approx(0.6, rel=0.1)

    def test_macros_disjoint_and_inside(self):
        r = DesignRecipe(
            name="m", grid_nx=16, grid_ny=16, num_macros=4, macro_area_frac=0.15
        )
        d = generate_design(r)
        assert len(d.macros) == 4
        for i, a in enumerate(d.macros):
            assert d.die.contains_rect(a.bbox)
            for b in d.macros[i + 1 :]:
                assert not a.bbox.overlaps(b.bbox)

    def test_macros_that_do_not_fit_raise(self):
        # the 20x20 design of `drcshap flow` fits 30 macros of this size
        recipe = DesignRecipe(name="crowded", grid_nx=20, grid_ny=20,
                              num_macros=50, macro_area_frac=0.08)
        with pytest.raises(LegalizationError, match="placed 30 of 50 requested macros"):
            generate_design(recipe)

    def test_ndr_fraction_applied(self):
        r = DesignRecipe(name="ndr", grid_nx=14, grid_ny=14, ndr_frac=0.2, seed=3)
        d = generate_design(r)
        frac = sum(1 for n in d.signal_nets() if n.ndr) / len(d.signal_nets())
        assert 0.1 < frac < 0.3

    def test_clock_nets_present(self):
        r = DesignRecipe(name="clk", grid_nx=12, grid_ny=12)
        d = generate_design(r)
        clocks = [n for n in d.nets if n.is_clock]
        assert len(clocks) == NUM_CLOCK_NETS
        assert all(p.is_clock for n in clocks for p in n.pins)

    def test_net_degrees_at_least_two(self):
        d = generate_design(DesignRecipe(name="deg", grid_nx=12, grid_ny=12))
        assert all(n.degree >= 2 for n in d.nets)

    def test_validates(self):
        d = generate_design(DesignRecipe(name="v", grid_nx=10, grid_ny=10))
        d.validate()  # should not raise


class TestSuite:
    def test_fourteen_designs_five_groups(self):
        assert len(SUITE_ORDER) == 14
        assert len(GROUPS) == 5
        assert set(SUITE_ORDER) == set(SUITE_RECIPES)

    def test_group_lookup(self):
        assert group_index_of("des_perf_1") == 3
        assert group_index_of("fft_b") == 1
        with pytest.raises(KeyError):
            group_index_of("nonexistent")

    def test_recipe_names_match_keys(self):
        for name, recipe in SUITE_RECIPES.items():
            assert recipe.name == name

    def test_macro_counts_match_table1(self):
        # Table I macro column of the paper
        expected = {
            "des_perf_b": 0, "fft_2": 0, "mult_1": 0, "mult_2": 0,
            "fft_b": 6, "mult_a": 5, "mult_b": 7, "bridge32_a": 4,
            "des_perf_1": 0, "mult_c": 7, "des_perf_a": 4, "fft_1": 0,
            "fft_a": 6, "bridge32_b": 6,
        }
        for name, macros in expected.items():
            assert SUITE_RECIPES[name].num_macros == macros

    def test_scaled_recipes_shrink(self):
        full = suite_recipes(1.0)
        small = suite_recipes(0.5)
        for f, s in zip(full, small):
            assert s.grid_nx <= f.grid_nx
            assert s.grid_nx >= 6

    def test_relative_sizes_match_paper_order(self):
        # mult_a/b/c are the big dies; fft_1 the smallest
        sizes = {n: SUITE_RECIPES[n].grid_nx * SUITE_RECIPES[n].grid_ny for n in SUITE_ORDER}
        assert sizes["fft_1"] == min(sizes.values())
        assert sizes["mult_c"] == max(sizes.values())
