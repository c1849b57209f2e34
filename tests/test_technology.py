"""Tests for the technology description."""

import pytest

from repro.layout.technology import (
    HORIZONTAL,
    VERTICAL,
    NonDefaultRule,
    make_ispd2015_like_technology,
)


@pytest.fixture()
def tech():
    return make_ispd2015_like_technology()


class TestStack:
    def test_five_metals_four_vias(self, tech):
        assert tech.num_metal_layers == 5
        assert tech.num_via_layers == 4

    def test_alternating_directions(self, tech):
        dirs = [tech.metal(m).direction for m in range(1, 6)]
        assert dirs == [HORIZONTAL, VERTICAL, HORIZONTAL, VERTICAL, HORIZONTAL]

    def test_layer_names(self, tech):
        assert tech.metal(3).name == "M3"
        assert tech.via(2).name == "V2"

    def test_via_connects_consecutive_metals(self, tech):
        # V<i> sits between M<i> and M<i+1>: one via layer per metal pair
        indices = [v.index for v in tech.via_layers]
        assert indices == list(range(1, tech.num_metal_layers))

    def test_gr_layers_exclude_m1(self, tech):
        assert tech.gr_metal_indices == (2, 3, 4, 5)


class TestCapacity:
    def test_edge_capacity_positive_and_derated(self, tech):
        for m in tech.gr_metal_indices:
            cap = tech.edge_capacity(m)
            tracks = int(tech.gcell_size / tech.metal(m).pitch)
            assert 0 < cap <= tracks

    def test_upper_layers_have_fewer_tracks(self, tech):
        # wider pitch on M4/M5 means less capacity than M2/M3
        assert tech.edge_capacity(4) < tech.edge_capacity(2)

    def test_via_capacity_positive(self, tech):
        for v in range(1, 5):
            assert tech.via_capacity(v) > 0

    def test_via_capacity_decreases_with_spacing(self, tech):
        assert tech.via_capacity(4) <= tech.via_capacity(1)


class TestDerivedNumbersPinned:
    """The numbers the flow derives from the technology's constants: a
    moved constant fails here by name, not only through a feature digest."""

    def test_edge_capacities(self, tech):
        assert [tech.edge_capacity(m) for m in range(1, 6)] == [10, 10, 10, 7, 7]

    def test_via_capacities(self, tech):
        assert [tech.via_capacity(v) for v in range(1, 5)] == [30, 30, 30, 21]

    def test_placement_geometry(self, tech):
        assert (tech.gcell_size, tech.row_height, tech.site_width) == (240.0, 120.0, 10.0)
        assert tech.dbu_per_micron == 100

    def test_ndr_track_cost(self, tech):
        assert [r.name for r in tech.ndr_rules] == ["ndr_2w2s"]
        assert tech.ndr("ndr_2w2s").track_cost == 2


class TestNDR:
    def test_lookup(self, tech):
        rule = tech.ndr("ndr_2w2s")
        assert rule.width_multiplier == 2.0

    def test_unknown_raises(self, tech):
        with pytest.raises(KeyError):
            tech.ndr("nope")

    def test_track_cost_scales(self):
        assert NonDefaultRule("2x", 2.0, 2.0).track_cost == 2
        assert NonDefaultRule("3x", 3.0, 3.0).track_cost == 3

    def test_default_rule_costs_one_track(self):
        assert NonDefaultRule("unit", 1.0, 1.0).track_cost == 1
