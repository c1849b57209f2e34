"""Negotiated-congestion global router with layer assignment.

This is the flow's stand-in for the Olympus-SoC signal global router.  It
follows the standard two-phase structure of academic global routers
(FastRoute/NCTU-GR style):

1. **2-D routing.**  Every signal net is decomposed into two-pin segments
   (:mod:`repro.route.steiner`); each segment is pattern-routed (L/Z) against
   congestion-aware edge costs; then a PathFinder-style negotiation loop
   rips up segments that cross overflowed edges, bumps history costs and
   re-routes them with A* maze search until overflow stops improving.
2. **Layer assignment.**  Each 2-D path is split into maximal straight runs;
   every run is assigned to the metal layer (of the matching direction) with
   the lowest resulting utilisation along the run.  Vias are accounted where
   runs change layers and where segments terminate on pins (pin-access
   stacks down to M1).  NDR nets consume ``track_cost`` tracks instead of 1.

Clock nets are routed first without negotiation (the paper's flow pre-routes
clock before signal GR), and purely local nets consume pin-access vias only.

The output is the fully loaded :class:`~repro.route.graph.RoutingGrid` —
capacity/load per edge per metal layer and per g-cell per via layer — which
is exactly the congestion map the paper extracts features from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..layout.grid import GCellGrid
from ..layout.netlist import Design, Net
from ..runtime.telemetry import get_tracer
from .graph import RoutingGrid
from .maze import route_maze
from .patterns import route_pattern
from .steiner import decompose_net


#: negotiation rounds after the initial pattern pass
NEGOTIATION_ROUNDS = 5
#: history cost added to overflowed edges each round
HISTORY_INCREMENT = 1.5
#: stop negotiating when overflow improves less than this fraction
MIN_IMPROVEMENT = 0.02


@dataclass
class RoutedSegment:
    """One two-pin segment of a routed net."""

    net: Net
    a: tuple[int, int]
    b: tuple[int, int]
    demand: float
    path: list[tuple[int, int]] = field(default_factory=list)

    def crosses_overflow(self, rgrid: RoutingGrid) -> bool:
        for (ax, ay), (bx, by) in zip(self.path, self.path[1:]):
            if ay == by:
                if rgrid.load2d_h[min(ax, bx), ay] > rgrid.cap2d_h[min(ax, bx), ay]:
                    return True
            else:
                if rgrid.load2d_v[ax, min(ay, by)] > rgrid.cap2d_v[ax, min(ay, by)]:
                    return True
        return False


@dataclass
class RoutingResult:
    """Everything downstream stages need from global routing."""

    rgrid: RoutingGrid
    segments: list[RoutedSegment]
    overflow_history: list[float]

    @property
    def final_overflow(self) -> float:
        return self.overflow_history[-1] if self.overflow_history else 0.0

    @property
    def total_wirelength(self) -> int:
        return sum(max(len(s.path) - 1, 0) for s in self.segments)


def route_design(design: Design, grid: GCellGrid) -> RoutingResult:
    """Globally route a placed design and return the loaded routing grid."""
    if not design.is_placed:
        raise ValueError(f"design {design.name} must be placed before routing")
    tracer = get_tracer()
    rgrid = RoutingGrid(design, grid)
    segments = _build_segments(design, grid)
    overflow_history: list[float] = []

    # Initial pattern pass, shortest segments first so long nets see the
    # congestion that short, inflexible nets create.
    with tracer.span("pattern_pass"):
        segments.sort(key=lambda s: abs(s.a[0] - s.b[0]) + abs(s.a[1] - s.b[1]))
        cost_h, cost_v = rgrid.edge_cost_arrays()
        for i, seg in enumerate(segments):
            seg.path, _ = route_pattern(seg.a, seg.b, cost_h, cost_v)
            rgrid.add_path_load(seg.path, seg.demand)
            if (i + 1) % 128 == 0:  # refresh congestion view periodically
                cost_h, cost_v = rgrid.edge_cost_arrays()
        overflow_history.append(rgrid.overflow2d())

    # PathFinder negotiation.
    iterations = ripped_up = 0
    with tracer.span("negotiation") as neg_span:
        for _ in range(NEGOTIATION_ROUNDS):
            before = overflow_history[-1]
            if before == 0.0:
                break
            iterations += 1
            rgrid.bump_history(HISTORY_INCREMENT)
            victims = [s for s in segments if s.crosses_overflow(rgrid)]
            ripped_up += len(victims)
            # full cost arrays once per iteration; each rip-up and
            # re-route then changes loads only along its two paths
            cost_h, cost_v = rgrid.edge_cost_arrays()
            for seg in victims:
                rgrid.remove_path_load(seg.path, seg.demand)
                rgrid.refresh_path_costs(seg.path, cost_h, cost_v)
                seg.path, _ = route_maze(seg.a, seg.b, cost_h, cost_v)
                rgrid.add_path_load(seg.path, seg.demand)
                rgrid.refresh_path_costs(seg.path, cost_h, cost_v)
            after = rgrid.overflow2d()
            overflow_history.append(after)
            if before > 0 and (before - after) / before < MIN_IMPROVEMENT:
                break
        neg_span.set(iterations=iterations, ripped_up=ripped_up,
                     overflow_final=overflow_history[-1])

    with tracer.span("layer_assignment"):
        _assign_layers(rgrid, segments)
        _account_pin_access_vias(design, rgrid)
    tracer.counter("router.negotiation.iterations", iterations)
    tracer.counter("router.ripup.segments", ripped_up)
    tracer.gauge("router.overflow.final", overflow_history[-1])
    return RoutingResult(rgrid=rgrid, segments=segments, overflow_history=overflow_history)


# -- segment construction --------------------------------------------------------------


def _net_demand(design: Design, net: Net) -> float:
    if net.ndr is None:
        return 1.0
    return float(design.technology.ndr(net.ndr).track_cost)


def _build_segments(design: Design, grid: GCellGrid) -> list[RoutedSegment]:
    segments: list[RoutedSegment] = []
    # clock nets first: pre-routed, same machinery, negotiated like the rest
    ordered = [n for n in design.nets if n.is_clock and n.degree >= 2]
    ordered += design.signal_nets()
    for net in ordered:
        demand = _net_demand(design, net)
        for a, b in decompose_net(net, grid):
            segments.append(RoutedSegment(net=net, a=a, b=b, demand=demand))
    return segments


# -- layer assignment ------------------------------------------------------------------


def _straight_runs(
    path: list[tuple[int, int]],
) -> list[tuple[str, list[tuple[int, int]]]]:
    """Split a 4-connected path into maximal straight runs.

    Returns (direction, cells) with direction 'H' or 'V'; a run's cells
    include both endpoints.
    """
    if len(path) < 2:
        return []
    runs: list[tuple[str, list[tuple[int, int]]]] = []
    cur_dir = "H" if path[1][1] == path[0][1] else "V"
    cur = [path[0], path[1]]
    for nxt in path[2:]:
        d = "H" if nxt[1] == cur[-1][1] else "V"
        if d == cur_dir:
            cur.append(nxt)
        else:
            runs.append((cur_dir, cur))
            cur = [cur[-1], nxt]
            cur_dir = d
    runs.append((cur_dir, cur))
    return runs


def _run_edges(direction: str, cells: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edge array indices touched by a straight run."""
    edges = []
    for (ax, ay), (bx, by) in zip(cells, cells[1:]):
        if direction == "H":
            edges.append((min(ax, bx), ay))
        else:
            edges.append((ax, min(ay, by)))
    return edges


def _choose_layer(
    rgrid: RoutingGrid, direction: str, edges: list[tuple[int, int]], demand: float
) -> int:
    """Pick the least-utilised metal layer of the given direction."""
    layers = rgrid.h_layers if direction == "H" else rgrid.v_layers
    best_layer, best_util = layers[-1], float("inf")
    for m in layers:
        cap = rgrid.metal_cap[m]
        load = rgrid.metal_load[m]
        util = 0.0
        for e in edges:
            c = cap[e]
            if c <= 0:
                util = float("inf")
                break
            util = max(util, (load[e] + demand) / c)
        if util < best_util:
            best_layer, best_util = m, util
    if best_util == float("inf"):
        # every candidate blocked somewhere along the run: use the top
        # layer of this direction (top layers are blocked least often)
        best_layer = layers[-1]
    return best_layer


def _add_via_stack(
    rgrid: RoutingGrid, cell: tuple[int, int], m_lo: int, m_hi: int, demand: float
) -> None:
    """Load the via layers connecting metals ``m_lo``..``m_hi`` at a cell."""
    if m_lo > m_hi:
        m_lo, m_hi = m_hi, m_lo
    for v in range(m_lo, m_hi):
        rgrid.via_load[v][cell] += demand


def _assign_layers(rgrid: RoutingGrid, segments: list[RoutedSegment]) -> None:
    for seg in segments:
        runs = _straight_runs(seg.path)
        if not runs:
            continue
        run_layers: list[int] = []
        for direction, cells in runs:
            edges = _run_edges(direction, cells)
            layer = _choose_layer(rgrid, direction, edges, seg.demand)
            load = rgrid.metal_load[layer]
            for e in edges:
                load[e] += seg.demand
            run_layers.append(layer)
        # pin-access stacks at both segment endpoints (M1 up to wire layer)
        _add_via_stack(rgrid, seg.path[0], 1, run_layers[0], seg.demand)
        _add_via_stack(rgrid, seg.path[-1], 1, run_layers[-1], seg.demand)
        # bend vias where consecutive runs meet on different layers
        for (d1, cells1), l1, (_, _), l2 in zip(
            runs, run_layers, runs[1:], run_layers[1:]
        ):
            bend_cell = cells1[-1]
            _add_via_stack(rgrid, bend_cell, l1, l2, seg.demand)


# -- pin access for unrouted pins --------------------------------------------------------


def _account_pin_access_vias(design: Design, rgrid: RoutingGrid) -> None:
    """Every placed pin consumes one V1 pin-access via in its g-cell.

    This covers local nets (never seen by GR) and the M1-M2 escape of
    every routed pin, making V1/V2 congestion track pin density — the
    mechanism behind the paper's via-congestion features.
    """
    grid = rgrid.grid
    v1 = rgrid.via_load[1]
    for net in design.nets:
        for pin in net.pins:
            v1[grid.cell_of_point(pin.position)] += 1.0
