"""DRC substrate: track-stress model, detailed-routing simulator, checker, labels."""

from .checker import DRCReport, Violation, ViolationType
from .detailed import simulate_drc
from .labels import hotspot_cells, hotspot_labels
from .tracks import layer_stress, via_utilization

__all__ = [
    "DRCReport",
    "Violation",
    "ViolationType",
    "simulate_drc",
    "hotspot_cells",
    "hotspot_labels",
    "layer_stress",
    "via_utilization",
]
