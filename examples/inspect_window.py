"""Fig. 2 analogue: anatomy of a 3×3 g-cell window and its 387 features.

Runs the flow on one design, picks its busiest g-cell, and prints

* the window cell layout with per-cell placement statistics,
* the 12 window-edge labels with M-layer capacity/load,
* the named non-zero features of the sample, grouped by block.

Run:  python examples/inspect_window.py
"""

import numpy as np

from repro.bench import DesignRecipe
from repro.core import run_flow
from repro.features import feature_names
from repro.layout.grid import WINDOW_EDGES, WINDOW_OFFSETS
from repro.route.congestion import window_edge_cap_load


def main() -> None:
    flow = run_flow(
        DesignRecipe(
            name="window_demo", grid_nx=12, grid_ny=12, utilization=0.68,
            dense_net_boost=2.0, dense_cluster_frac=0.3, seed=5,
        )
    )
    pm = flow.placemaps
    busiest = np.unravel_index(np.argmax(pm.num_pins), pm.num_pins.shape)
    cx, cy = int(busiest[0]), int(busiest[1])
    print(f"design {flow.design.name}: busiest g-cell is ({cx},{cy})")

    print("\nwindow cells (pins / cells / local nets per position):")
    for row in (1, 0, -1):  # print north row first
        cells = []
        for col in (-1, 0, 1):
            pos = next(
                p for p, off in WINDOW_OFFSETS.items() if off == (col, row)
            )
            ix, iy = cx + col, cy + row
            if flow.grid.in_bounds(ix, iy):
                cells.append(
                    f"{pos:>2s}: {pm.num_pins[ix, iy]:>3d}p "
                    f"{pm.num_cells[ix, iy]:>2d}c {pm.num_local_nets[ix, iy]:>2d}l"
                )
            else:
                cells.append(f"{pos:>2s}: (off-die)")
        print("   " + " | ".join(cells))

    print("\nwindow edges on M3 and M4 (capacity/load):")
    for edge in WINDOW_EDGES:
        for m in (3, 4):
            cap, load = window_edge_cap_load(flow.routing.rgrid, (cx, cy), edge, m)
            if cap or load:
                print(f"   edge {edge.label:<3s} M{m}: C={cap:.0f} L={load:.0f} margin={cap - load:+.0f}")

    row_idx = flow.dataset.sample_index(cx, cy)
    x = flow.X[row_idx]
    names = feature_names()
    nonzero = [(names[j], x[j]) for j in range(len(names)) if x[j] != 0.0]
    print(f"\nsample row {row_idx}: {len(nonzero)} of 387 features are non-zero")
    print("first 20 non-zero features:")
    for name, value in nonzero[:20]:
        print(f"   {name:<16s} = {value:.3f}")
    print(f"\nlabel: {'DRC hotspot' if flow.y[row_idx] else 'clean'}")


if __name__ == "__main__":
    main()
