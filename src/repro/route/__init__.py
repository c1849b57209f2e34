"""Global-routing substrate: routing grid, pattern/maze routing, negotiation."""

from .congestion import (
    render_layer_congestion,
    utilization_map,
    window_cell_via_cap_load,
    window_edge_cap_load,
)
from .graph import BLOCKED_EDGE_COST, RoutingGrid
from .maze import route_maze
from .patterns import route_pattern
from .report import LayerUtilization, layer_utilizations, routing_report
from .router import (
    RoutedSegment,
    RoutingResult,
    route_design,
)
from .steiner import decompose_net, mst_segments, net_gcells

__all__ = [
    "LayerUtilization",
    "layer_utilizations",
    "routing_report",
    "render_layer_congestion",
    "utilization_map",
    "window_cell_via_cap_load",
    "window_edge_cap_load",
    "BLOCKED_EDGE_COST",
    "RoutingGrid",
    "route_maze",
    "route_pattern",
    "RoutedSegment",
    "RoutingResult",
    "route_design",
    "decompose_net",
    "mst_segments",
    "net_gcells",
]
