"""Tests for pattern routing and A* maze routing."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.route.graph import BLOCKED_EDGE_COST
from repro.route.maze import route_maze
from repro.route.patterns import route_pattern
from repro.runtime.telemetry import Tracer, activate


def _path_is_4connected(path):
    for a, b in zip(path, path[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def _path_cost(path, cost_h, cost_v):
    total = 0.0
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        if ay == by:
            total += cost_h[min(ax, bx), ay]
        else:
            total += cost_v[ax, min(ay, by)]
    return total


def _uniform(nx_, ny_):
    return np.ones((nx_ - 1, ny_)), np.ones((nx_, ny_ - 1))


class TestPatternRouting:
    def test_straight_horizontal(self):
        ch, cv = _uniform(6, 6)
        path, cost = route_pattern((0, 2), (4, 2), ch, cv)
        assert path == [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2)]
        assert cost == 4

    def test_straight_vertical(self):
        ch, cv = _uniform(6, 6)
        path, cost = route_pattern((2, 0), (2, 3), ch, cv)
        assert len(path) == 4
        _path_is_4connected(path)

    def test_same_cell(self):
        ch, cv = _uniform(4, 4)
        assert route_pattern((1, 1), (1, 1), ch, cv) == ([(1, 1)], 0.0)

    def test_l_route_connects(self):
        ch, cv = _uniform(8, 8)
        path, cost = route_pattern((1, 1), (5, 6), ch, cv)
        assert path[0] == (1, 1) and path[-1] == (5, 6)
        _path_is_4connected(path)
        # shortest possible length on uniform costs
        assert cost == (5 - 1) + (6 - 1)

    def test_z_avoids_expensive_column(self):
        nx_, ny_ = 7, 7
        ch = np.ones((nx_ - 1, ny_))
        cv = np.ones((nx_, ny_ - 1))
        # make both L corners expensive; a Z through the middle is cheaper
        ch[:, 0] = 100.0  # bottom row horizontal edges
        ch[:, 5] = 100.0  # top row horizontal edges
        path, cost = route_pattern((0, 0), (6, 5), ch, cv)
        assert path[0] == (0, 0) and path[-1] == (6, 5)
        rows_used = {y for _, y in path}
        assert rows_used - {0, 5}, "expected a jog through an interior row"
        assert cost < 100

    def test_reported_cost_matches_path(self):
        rng = np.random.default_rng(0)
        ch = rng.uniform(1, 5, size=(9, 10))
        cv = rng.uniform(1, 5, size=(10, 9))
        path, cost = route_pattern((1, 2), (8, 7), ch, cv)
        assert cost == pytest.approx(_path_cost(path, ch, cv))


class TestMazeRouting:
    def test_simple_optimal(self):
        ch, cv = _uniform(5, 5)
        path, cost = route_maze((0, 0), (4, 4), ch, cv)
        assert cost == 8
        _path_is_4connected(path)

    def test_avoids_wall(self):
        nx_, ny_ = 5, 5
        ch = np.ones((nx_ - 1, ny_))
        cv = np.ones((nx_, ny_ - 1))
        cv[2, :] = 1000.0  # vertical moves in column 2 are terrible
        path, cost = route_maze((2, 0), (2, 4), ch, cv)
        assert path[0] == (2, 0) and path[-1] == (2, 4)
        assert cost < 1000

    def test_endpoint_validation(self):
        ch, cv = _uniform(4, 4)
        with pytest.raises(ValueError):
            route_maze((0, 0), (9, 9), ch, cv)

    def test_same_cell(self):
        ch, cv = _uniform(4, 4)
        assert route_maze((2, 2), (2, 2), ch, cv) == ([(2, 2)], 0.0)

    @given(
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_maze_never_worse_than_pattern(self, ax, ay, bx, by, seed):
        """A* explores all paths, so it can only match or beat L/Z routing."""
        rng = np.random.default_rng(seed)
        ch = rng.uniform(0.5, 4.0, size=(5, 6))
        cv = rng.uniform(0.5, 4.0, size=(6, 5))
        p_path, p_cost = route_pattern((ax, ay), (bx, by), ch, cv)
        m_path, m_cost = route_maze((ax, ay), (bx, by), ch, cv)
        assert m_cost <= p_cost + 1e-9
        assert m_path[0] == (ax, ay) and m_path[-1] == (bx, by)
        assert p_path[0] == (ax, ay) and p_path[-1] == (bx, by)
        _path_is_4connected(m_path)
        _path_is_4connected(p_path)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_maze_matches_dijkstra(self, seed):
        """A* cost equals networkx shortest path on the same grid graph."""
        import networkx as nx

        rng = np.random.default_rng(seed)
        n = 5
        ch = rng.uniform(0.5, 4.0, size=(n - 1, n))
        cv = rng.uniform(0.5, 4.0, size=(n, n - 1))
        g = nx.Graph()
        for x in range(n - 1):
            for y in range(n):
                g.add_edge((x, y), (x + 1, y), weight=ch[x, y])
        for x in range(n):
            for y in range(n - 1):
                g.add_edge((x, y), (x, y + 1), weight=cv[x, y])
        expected = nx.shortest_path_length(g, (0, 0), (n - 1, n - 1), weight="weight")
        _, cost = route_maze((0, 0), (n - 1, n - 1), ch, cv)
        assert cost == pytest.approx(expected)


# -- the tuple-keyed A* the flat-index kernel must reproduce exactly ----------------


def _reference_route_maze(a, b, cost_h, cost_v):
    """The original numpy-indexed A*: returns ``(path, cost, expansions)``.

    Heap entries are ``(f, g, (x, y))`` and neighbours are relaxed +x, -x,
    +y, -y; ``route_maze`` must pop, relax and tie-break identically.
    """
    nx = cost_v.shape[0]
    ny = cost_h.shape[1]
    if a == b:
        return [a], 0.0, 0
    INF = float("inf")
    g_cost = np.full((nx, ny), INF)
    g_cost[a] = 0.0
    parent = {}
    min_edge = float(min(cost_h.min() if cost_h.size else 0.0,
                         cost_v.min() if cost_v.size else 0.0))
    min_edge = max(min_edge, 0.0)
    heap = [(min_edge * (abs(a[0] - b[0]) + abs(a[1] - b[1])), 0.0, a)]

    def relax(cur, nxt, new_g):
        if new_g < g_cost[nxt]:
            g_cost[nxt] = new_g
            parent[nxt] = cur
            h = min_edge * (abs(nxt[0] - b[0]) + abs(nxt[1] - b[1]))
            heapq.heappush(heap, (new_g + h, new_g, nxt))

    expansions = 0
    while heap:
        f, g, cell = heapq.heappop(heap)
        if g > g_cost[cell]:
            continue
        expansions += 1
        if cell == b:
            break
        x, y = cell
        if x + 1 < nx:
            relax(cell, (x + 1, y), g + cost_h[x, y])
        if x - 1 >= 0:
            relax(cell, (x - 1, y), g + cost_h[x - 1, y])
        if y + 1 < ny:
            relax(cell, (x, y + 1), g + cost_v[x, y])
        if y - 1 >= 0:
            relax(cell, (x, y - 1), g + cost_v[x, y - 1])
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path, float(g_cost[b]), expansions


#: Edge costs that force exact ties (small integers), the production floor
#: (1.0, so all-ones stretches) and soft-blocked edges.
_TIE_COSTS = st.sampled_from([1.0, 1.0, 1.0, 2.0, 3.0, BLOCKED_EDGE_COST])


@st.composite
def _maze_case(draw):
    """A cost grid (1xN and Nx1 included) and two endpoints (possibly equal)."""
    nx_ = draw(st.integers(1, 7))
    ny_ = draw(st.integers(1 if nx_ > 1 else 2, 7))
    edge = st.one_of(_TIE_COSTS, st.floats(0.5, 20.0))
    ch = np.array(draw(st.lists(edge, min_size=(nx_ - 1) * ny_,
                                max_size=(nx_ - 1) * ny_)),
                  dtype=np.float64).reshape(nx_ - 1, ny_)
    cv = np.array(draw(st.lists(edge, min_size=nx_ * (ny_ - 1),
                                max_size=nx_ * (ny_ - 1))),
                  dtype=np.float64).reshape(nx_, ny_ - 1)
    if draw(st.booleans()):  # an all-ones window: many equal-cost paths
        x0, x1 = sorted(draw(st.integers(0, nx_)) for _ in range(2))
        y0, y1 = sorted(draw(st.integers(0, ny_)) for _ in range(2))
        ch[x0:x1, y0:y1] = 1.0
        cv[x0:x1, y0:y1] = 1.0
    cell = st.tuples(st.integers(0, nx_ - 1), st.integers(0, ny_ - 1))
    a = draw(cell)
    b = a if draw(st.integers(0, 5)) == 0 else draw(cell)
    return a, b, ch, cv


class TestMazeMatchesReference:
    @given(_maze_case())
    @settings(max_examples=300, deadline=None)
    def test_same_path_cost_and_expansions(self, case):
        a, b, ch, cv = case
        ref_path, ref_cost, ref_expansions = _reference_route_maze(a, b, ch, cv)
        with activate(Tracer()) as tracer:
            path, cost = route_maze(a, b, ch, cv)
        assert path == ref_path
        assert type(cost) is float and cost == ref_cost
        assert tracer.counters.get("router.maze.expansions", 0) == ref_expansions

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1)])
    def test_single_row_and_column(self, shape):
        nx_, ny_ = shape
        ch, cv = _uniform(nx_, ny_)
        far = (nx_ - 1, ny_ - 1)
        path, cost = route_maze((0, 0), far, ch, cv)
        assert path == _reference_route_maze((0, 0), far, ch, cv)[0]
        assert len(path) == 6 and cost == 5.0
