"""Tests for net decomposition (MST over pin g-cells)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.route.steiner import mst_segments


class TestMSTSegments:
    def test_trivial_cases(self):
        assert mst_segments([]) == []
        assert mst_segments([(1, 1)]) == []

    def test_two_cells(self):
        segs = mst_segments([(0, 0), (3, 4)])
        assert segs == [((0, 0), (3, 4))]

    def test_count_is_k_minus_one(self):
        cells = [(0, 0), (5, 0), (0, 5), (5, 5), (2, 2)]
        assert len(mst_segments(cells)) == 4

    def test_spanning(self):
        cells = [(0, 0), (5, 0), (0, 5), (5, 5), (2, 2)]
        g = nx.Graph(mst_segments(cells))
        assert set(g.nodes) == set(cells)
        assert nx.is_connected(g)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=2, max_size=9, unique=True))
    @settings(max_examples=60)
    def test_matches_networkx_mst_weight(self, cells):
        """Total MST weight equals networkx's MST on the complete graph."""
        segs = mst_segments(cells)
        ours = sum(abs(a[0] - b[0]) + abs(a[1] - b[1]) for a, b in segs)

        g = nx.Graph()
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                g.add_edge(a, b, weight=abs(a[0] - b[0]) + abs(a[1] - b[1]))
        theirs = sum(d["weight"] for _, _, d in nx.minimum_spanning_edges(g, data=True))
        assert ours == theirs

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=2, max_size=9, unique=True))
    @settings(max_examples=30)
    def test_always_spanning_tree(self, cells):
        segs = mst_segments(cells)
        assert len(segs) == len(cells) - 1
        g = nx.Graph(segs)
        assert nx.is_connected(g)
        assert set(g.nodes) == set(cells)


class TestNetQueries:
    def test_net_gcells_and_local(self, small_flow):
        from repro.route.steiner import net_gcells

        grid = small_flow.grid
        design = small_flow.design
        locals_found = 0
        for net in design.signal_nets():
            cells = net_gcells(net, grid)
            assert len(cells) >= 1
            assert len(set(cells)) == len(cells)
            if len(cells) == 1:  # the paper's local net: all pins in one g-cell
                locals_found += 1
        assert locals_found > 0  # the generator creates local nets
