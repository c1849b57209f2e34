"""Layout substrate: geometry, technology, netlist model and the g-cell grid."""

from .geometry import Point, Rect, mean_pairwise_manhattan
from .grid import (
    GCellGrid,
    WINDOW_EDGES,
    WINDOW_OFFSETS,
    WINDOW_POSITIONS,
    WindowEdge,
)
from .netlist import Blockage, Cell, Design, Macro, Net, Pin
from .technology import (
    HORIZONTAL,
    VERTICAL,
    MetalLayer,
    NonDefaultRule,
    Technology,
    ViaLayer,
    make_ispd2015_like_technology,
)
from .placemap import PlacementMaps
from .design_stats import (
    DesignStats,
    GroupStats,
    design_statistics,
    format_table1,
    group_statistics,
)

__all__ = [
    "PlacementMaps",
    "Point",
    "Rect",
    "mean_pairwise_manhattan",
    "GCellGrid",
    "WINDOW_EDGES",
    "WINDOW_OFFSETS",
    "WINDOW_POSITIONS",
    "WindowEdge",
    "Blockage",
    "Cell",
    "Design",
    "Macro",
    "Net",
    "Pin",
    "HORIZONTAL",
    "VERTICAL",
    "MetalLayer",
    "NonDefaultRule",
    "Technology",
    "ViaLayer",
    "make_ispd2015_like_technology",
    "DesignStats",
    "GroupStats",
    "design_statistics",
    "format_table1",
    "group_statistics",
]
