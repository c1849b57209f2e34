"""Net decomposition: pins → g-cells → two-pin routing segments.

Global routers rarely route multi-pin nets monolithically; the standard
approach (which we follow) decomposes each net into a tree of two-pin
segments.  We use the rectilinear minimum spanning tree over the net's
distinct pin g-cells under Manhattan distance — for the small net degrees of
our designs (≤ 9 distinct cells) Prim's algorithm is exact and instant, and
an RMST is a ≤1.5× approximation of the rectilinear Steiner minimal tree,
which is plenty for congestion modelling.
"""

from __future__ import annotations

from ..layout.grid import GCellGrid
from ..layout.netlist import Net


def net_gcells(net: Net, grid: GCellGrid) -> list[tuple[int, int]]:
    """Distinct g-cells touched by a net's pins, in deterministic order."""
    seen: dict[tuple[int, int], None] = {}
    for pin in net.pins:
        seen.setdefault(grid.cell_of_point(pin.position), None)
    return list(seen.keys())


def mst_segments(
    cells: list[tuple[int, int]],
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Two-pin segments forming the Manhattan MST over ``cells``.

    Returns ``len(cells) - 1`` segments; empty for 0 or 1 cells.  Prim's
    algorithm, O(k²) with k = number of distinct cells.
    """
    k = len(cells)
    if k < 2:
        return []
    in_tree = [False] * k
    dist = [float("inf")] * k
    parent = [-1] * k
    dist[0] = 0.0
    segments: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for _ in range(k):
        # pick the nearest out-of-tree cell
        best, best_d = -1, float("inf")
        for i in range(k):
            if not in_tree[i] and dist[i] < best_d:
                best, best_d = i, dist[i]
        in_tree[best] = True
        if parent[best] >= 0:
            segments.append((cells[parent[best]], cells[best]))
        bx, by = cells[best]
        for i in range(k):
            if in_tree[i]:
                continue
            d = abs(cells[i][0] - bx) + abs(cells[i][1] - by)
            if d < dist[i]:
                dist[i] = d
                parent[i] = best
    return segments


def decompose_net(
    net: Net, grid: GCellGrid
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Two-pin g-cell segments the global router must realise for ``net``."""
    return mst_segments(net_gcells(net, grid))
