"""Global-routing quality report.

Summarises a :class:`~repro.route.router.RoutingResult` the way router
logs do: total/overflowed wirelength, negotiation convergence, per-layer
edge utilisation and via utilisation — the quantities a routability
engineer checks before trusting downstream predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .router import RoutingResult


@dataclass(frozen=True)
class LayerUtilization:
    layer: str
    capacity: float
    load: float
    overflowed_edges: int

    @property
    def utilization(self) -> float:
        return self.load / self.capacity if self.capacity > 0 else 0.0


def layer_utilizations(result: RoutingResult) -> list[LayerUtilization]:
    """Per-metal-layer and per-via-layer utilisation summary."""
    rg = result.rgrid
    out: list[LayerUtilization] = []
    for m in sorted(rg.metal_cap):
        cap = rg.metal_cap[m]
        load = rg.metal_load[m]
        out.append(
            LayerUtilization(
                layer=f"M{m}",
                capacity=float(cap.sum()),
                load=float(load.sum()),
                overflowed_edges=int(np.sum(load > cap)),
            )
        )
    for v in sorted(rg.via_cap):
        cap = rg.via_cap[v]
        load = rg.via_load[v]
        out.append(
            LayerUtilization(
                layer=f"V{v}",
                capacity=float(cap.sum()),
                load=float(load.sum()),
                overflowed_edges=int(np.sum(load > cap)),
            )
        )
    return out


def routing_report(result: RoutingResult, design_name: str = "") -> str:
    """Router-log style text summary of one GR run."""
    rg = result.rgrid
    lines = [
        f"global routing report{' — ' + design_name if design_name else ''}",
        "=" * 56,
        f"segments routed     : {len(result.segments)}",
        f"total wirelength    : {result.total_wirelength} g-cell edges",
        f"overflow history    : "
        + " -> ".join(f"{v:.0f}" for v in result.overflow_history),
        f"final 2-D overflow  : {result.final_overflow:.0f}",
        "",
        f"{'layer':>6s} {'capacity':>10s} {'load':>10s} {'util':>7s} {'ovfl edges':>11s}",
    ]
    for row in layer_utilizations(result):
        lines.append(
            f"{row.layer:>6s} {row.capacity:>10.0f} {row.load:>10.0f} "
            f"{row.utilization:>6.1%} {row.overflowed_edges:>11d}"
        )
    return "\n".join(lines)
