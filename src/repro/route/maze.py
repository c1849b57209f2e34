"""A* maze routing on the 2-D g-cell grid.

Used by the negotiated-congestion loop for segments that stay overflowed
after pattern routing.  The search runs over g-cells with 4-connected moves;
the move cost is the current per-edge cost (wirelength + congestion penalty
+ history), and the admissible heuristic is the remaining Manhattan distance
scaled by the cheapest edge cost in the grid.

The search runs on flat Python lists, not numpy: cell ``(x, y)`` is index
``x * ny + y``, which is also the flat index of horizontal edge ``(x, y)``
(``cost_h`` has ``ny`` columns); vertical edge ``(x, y)`` is
``x * (ny - 1) + y``.  Flat indices order exactly like ``(x, y)`` tuples,
so heap entries ``(f, g, cell)`` tie-break as a tuple-keyed search would,
and neighbours are relaxed in the fixed order +x, -x, +y, -y.  Every ``g``
is the same left-to-right float sum of edge costs, so the path, its cost
and the expansion count are a deterministic function of the cost arrays.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..runtime.telemetry import get_tracer


def route_maze(
    a: tuple[int, int],
    b: tuple[int, int],
    cost_h: np.ndarray,
    cost_v: np.ndarray,
) -> tuple[list[tuple[int, int]], float]:
    """Cheapest 4-connected path from ``a`` to ``b``.

    Returns ``(path, cost)``.  All edges have finite (possibly huge) cost,
    so a path always exists on a connected grid.
    """
    nx = cost_v.shape[0]
    ny = cost_h.shape[1]
    if not (0 <= a[0] < nx and 0 <= a[1] < ny and 0 <= b[0] < nx and 0 <= b[1] < ny):
        raise ValueError(f"maze endpoints {a}->{b} outside {nx}x{ny} grid")
    if a == b:
        return [a], 0.0

    # admissible heuristic: remaining Manhattan distance times the cheapest
    # edge anywhere (production costs are >= 1, but stay correct for any)
    min_edge = float(min(cost_h.min() if cost_h.size else 0.0,
                         cost_v.min() if cost_v.size else 0.0))
    min_edge = max(min_edge, 0.0)

    ch = cost_h.ravel().tolist()
    cv = cost_v.ravel().tolist()
    ny1 = ny - 1
    last_x = nx - 1
    bx, by = b
    start = a[0] * ny + a[1]
    target = bx * ny + by
    inf = float("inf")
    g_cost = [inf] * (nx * ny)
    g_cost[start] = 0.0
    parent: dict[int, int] = {}
    # heap entries: (f, g, cell); stale entries skipped via g comparison
    heap: list[tuple[float, float, int]] = [
        (min_edge * (abs(a[0] - bx) + abs(a[1] - by)), 0.0, start)
    ]
    pop = heapq.heappop
    push = heapq.heappush

    expansions = 0
    while heap:
        _, g, cell = pop(heap)
        if g > g_cost[cell]:
            continue
        expansions += 1
        if cell == target:
            break
        x, y = divmod(cell, ny)
        dy = abs(y - by)
        if x < last_x:
            nxt = cell + ny
            new_g = g + ch[cell]
            if new_g < g_cost[nxt]:
                g_cost[nxt] = new_g
                parent[nxt] = cell
                push(heap, (new_g + min_edge * (abs(x + 1 - bx) + dy), new_g, nxt))
        if x > 0:
            nxt = cell - ny
            new_g = g + ch[nxt]
            if new_g < g_cost[nxt]:
                g_cost[nxt] = new_g
                parent[nxt] = cell
                push(heap, (new_g + min_edge * (abs(x - 1 - bx) + dy), new_g, nxt))
        dx = abs(x - bx)
        if y < ny1:
            nxt = cell + 1
            new_g = g + cv[x * ny1 + y]
            if new_g < g_cost[nxt]:
                g_cost[nxt] = new_g
                parent[nxt] = cell
                push(heap, (new_g + min_edge * (dx + abs(y + 1 - by)), new_g, nxt))
        if y > 0:
            nxt = cell - 1
            new_g = g + cv[x * ny1 + y - 1]
            if new_g < g_cost[nxt]:
                g_cost[nxt] = new_g
                parent[nxt] = cell
                push(heap, (new_g + min_edge * (dx + abs(y - 1 - by)), new_g, nxt))

    tracer = get_tracer()
    tracer.counter("router.maze.routes")
    tracer.counter("router.maze.expansions", expansions)
    if g_cost[target] == inf:
        raise RuntimeError(f"maze route failed {a} -> {b}")
    path = [target]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return [divmod(cell, ny) for cell in path], float(g_cost[target])
