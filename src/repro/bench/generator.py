"""Synthetic design generator — the stand-in for the ISPD 2015 benchmarks.

The paper's dataset is 14 physical designs (65 nm, five routing layers)
pushed through placement, global routing, detailed routing and DRC.  We have
no access to the benchmark .def files or to a commercial router, so this
module *synthesises* designs whose netlist statistics mirror the published
Table I rows at a reduced scale, and the rest of the flow (place, route,
DRC simulation) produces the labels mechanistically.

What makes the synthesis realistic enough for the learning task:

* **Locality.**  Cells are assigned to a spatial cluster hierarchy and nets
  preferentially connect cells of the same cluster (a Rent's-rule-style
  construction).  After placement this yields the non-uniform pin/cell
  density and congestion structure the paper's features measure.
* **Hot modules.**  A few clusters are marked *dense*: they get higher pin
  counts and more multi-pin nets, seeding realistic congestion hotspots.
* **Special nets.**  A per-recipe fraction of nets carry the non-default
  rule (wider wires → more track consumption), and :data:`NUM_CLOCK_NETS`
  high-fanout clock nets mark their sinks as clock pins — both paper
  features.
* **Macros.**  Fixed macro blocks blocking placement and routing on M1..M3,
  as in the ISPD-2015 designs with fence regions.

Everything is driven by a :class:`DesignRecipe` and a seed, so the whole
14-design suite is reproducible bit-for-bit.

The draws are made in their cheapest form that consumes the generator
exactly as the plain form does, so the netlist of every seed stays the
same: a uniform pick from a list is ``seq[int(rng.integers(0, len(seq)))]``,
which draws the same index from the same stream as ``rng.choice(seq)``
without converting the list to an array, and a cell's pin offsets come
from one ``rng.uniform(0.1, 0.9, size=(n_pins, 2))``, which yields the
same doubles in the same order as two scalar draws per pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..layout.geometry import Point, Rect
from ..layout.netlist import Design
from ..layout.technology import Technology, make_ispd2015_like_technology
from ..place.legalizer import LegalizationError
from ..runtime.telemetry import get_tracer

#: ratio of signal nets to cells (pins-per-cell follows from this and degree)
NETS_PER_CELL = 0.48
#: edge length of a leaf cluster in g-cells (sets typical net span)
CLUSTER_SIZE_GCELLS = 3
#: number of high-fanout clock nets
NUM_CLOCK_NETS = 2
#: sinks per clock net
CLOCK_FANOUT = 40


@dataclass(frozen=True)
class DesignRecipe:
    """Parameters controlling one synthetic design.

    The defaults produce a mid-size, moderately congested design; the suite
    module overrides them per named design to mirror Table I.  What no
    design varies is a module constant (:data:`NETS_PER_CELL`,
    :data:`CLUSTER_SIZE_GCELLS`, :data:`NUM_CLOCK_NETS`,
    :data:`CLOCK_FANOUT`).
    """

    name: str
    grid_nx: int = 24
    grid_ny: int = 24
    #: target fraction of placeable area covered by standard cells
    utilization: float = 0.65
    #: number of fixed macro blocks
    num_macros: int = 0
    #: total macro area as a fraction of the die
    macro_area_frac: float = 0.0
    #: mean signal-net degree (2-pin nets dominate; tail is geometric)
    mean_net_degree: float = 2.8
    #: probability that a net stays inside its cluster (locality knob)
    cluster_locality: float = 0.82
    #: fraction of clusters marked dense / congestion-prone
    dense_cluster_frac: float = 0.2
    #: multiplier on net count inside dense clusters
    dense_net_boost: float = 1.9
    #: fraction of signal nets carrying a non-default rule
    ndr_frac: float = 0.03
    #: RNG seed; the suite gives every design a distinct fixed seed
    seed: int = 0

    def die(self, technology: Technology) -> Rect:
        g = technology.gcell_size
        return Rect(0.0, 0.0, self.grid_nx * g, self.grid_ny * g)


@dataclass
class _Cluster:
    """A leaf of the spatial hierarchy: a region plus its member cells."""

    index: int
    region: Rect
    dense: bool
    cell_ids: list[int] = field(default_factory=list)


def generate_design(recipe: DesignRecipe) -> Design:
    """Build the full unplaced design (macros, cells, nets).

    One generator, seeded with ``recipe.seed``, feeds every random draw, in
    the order of the stages below.
    """
    tracer = get_tracer()
    rng = np.random.default_rng(recipe.seed)
    technology = make_ispd2015_like_technology()
    design = Design(name=recipe.name, technology=technology, die=recipe.die(technology))
    _add_macros(design, recipe, rng)
    clusters, cluster_dims = _build_clusters(design, recipe, rng)
    with tracer.span("cells"):
        _add_cells(design, recipe, clusters, rng)
    with tracer.span("signal_nets"):
        _add_signal_nets(design, recipe, clusters, cluster_dims, rng)
    with tracer.span("clock_nets"):
        _add_clock_nets(design, rng)
    design.validate()
    return design


def _pick(seq: list[int], rng: np.random.Generator) -> int:
    """A uniform element of ``seq``: the draw ``rng.choice(seq)`` makes."""
    return seq[int(rng.integers(0, len(seq)))]


# -- macros -------------------------------------------------------------------------


def _add_macros(design: Design, recipe: DesignRecipe, rng: np.random.Generator) -> None:
    """Place ``recipe.num_macros`` disjoint macros at random g-cell-aligned
    spots; raises :class:`LegalizationError` if 200 draws cannot fit them."""
    if recipe.num_macros == 0 or recipe.macro_area_frac <= 0.0:
        return
    die = design.die
    g = design.technology.gcell_size
    per_macro_area = recipe.macro_area_frac * die.area / recipe.num_macros
    side = math.sqrt(per_macro_area)
    # Snap macro dimensions to whole g-cells so blockage features are crisp.
    w = max(g, round(side / g) * g)
    h = max(g, round(per_macro_area / w / g) * g)
    placed: list[Rect] = []
    attempts = 0
    while len(placed) < recipe.num_macros and attempts < 200:
        attempts += 1
        max_ix = int((die.width - w) / g)
        max_iy = int((die.height - h) / g)
        if max_ix < 0 or max_iy < 0:
            break
        x = die.xlo + int(rng.integers(0, max_ix + 1)) * g
        y = die.ylo + int(rng.integers(0, max_iy + 1)) * g
        bbox = Rect(x, y, x + w, y + h)
        # keep macros disjoint with one g-cell of clearance between them
        if any(bbox.expanded(g).overlaps(p) for p in placed):
            continue
        placed.append(bbox)
        design.add_macro(f"macro_{len(placed)}", bbox)
    if len(placed) < recipe.num_macros:
        raise LegalizationError(
            f"placed {len(placed)} of {recipe.num_macros} requested macros "
            f"after {attempts} attempts"
        )


# -- clusters -----------------------------------------------------------------------


def _build_clusters(
    design: Design, recipe: DesignRecipe, rng: np.random.Generator
) -> tuple[list[_Cluster], tuple[int, int]]:
    """The leaf clusters in raster order, and the cluster grid's (nx, ny)."""
    nx = max(2, recipe.grid_nx // CLUSTER_SIZE_GCELLS)
    ny = max(2, recipe.grid_ny // CLUSTER_SIZE_GCELLS)
    die = design.die
    cw, ch = die.width / nx, die.height / ny
    clusters: list[_Cluster] = []
    num_dense = max(1, round(nx * ny * recipe.dense_cluster_frac))
    dense_ids = set(
        rng.choice(nx * ny, size=min(num_dense, nx * ny), replace=False).tolist()
    )
    for iy in range(ny):
        for ix in range(nx):
            idx = iy * nx + ix
            region = Rect(
                die.xlo + ix * cw,
                die.ylo + iy * ch,
                die.xlo + (ix + 1) * cw,
                die.ylo + (iy + 1) * ch,
            )
            clusters.append(_Cluster(idx, region, dense=idx in dense_ids))
    return clusters, (nx, ny)


def _cluster_weight(cluster: _Cluster, macro_rects: list[Rect]) -> float:
    """Capacity weight of a cluster for cell assignment.

    Regions covered by macros cannot hold cells, so their clusters get
    proportionally fewer of them.
    """
    free = cluster.region.area
    for m in macro_rects:
        free -= cluster.region.overlap_area(m)
    return max(free, 0.0)


# -- cells --------------------------------------------------------------------------


def _add_cells(
    design: Design,
    recipe: DesignRecipe,
    clusters: list[_Cluster],
    rng: np.random.Generator,
) -> None:
    tech = design.technology
    die = design.die
    macro_rects = [m.bbox for m in design.macros]
    macro_area = sum(r.overlap_area(die) for r in macro_rects)
    placeable = die.area - macro_area
    # Cell widths in sites: a small library of 1x/2x/3x/4x footprints
    # with a realistic frequency skew toward small cells.
    site = tech.site_width
    widths = np.array([4, 6, 8, 12, 16]) * site
    width_probs = np.array([0.3, 0.3, 0.2, 0.12, 0.08])
    mean_cell_area = float(np.dot(widths, width_probs)) * tech.row_height
    num_cells = max(8, int(recipe.utilization * placeable / mean_cell_area))

    weights = np.array([_cluster_weight(c, macro_rects) for c in clusters])
    if weights.sum() <= 0:
        raise ValueError(f"design {recipe.name}: no placeable area")
    # Dense clusters attract disproportionally many cells.
    for i, c in enumerate(clusters):
        if c.dense:
            weights[i] *= 1.5
    weights = weights / weights.sum()
    assignment = rng.choice(len(clusters), size=num_cells, p=weights)
    chosen_widths = rng.choice(widths, size=num_cells, p=width_probs)

    for cid in range(num_cells):
        cluster = clusters[int(assignment[cid])]
        width = float(chosen_widths[cid])
        cell = design.add_cell(f"c{cid}", width, tech.row_height)
        cluster.cell_ids.append(cid)
        n_pins = 2 + int(rng.geometric(0.55))
        n_pins = min(n_pins, 6)
        # row p is pin p's (x, y) fraction, in the scalar draws' order
        fracs = rng.uniform(0.1, 0.9, size=(n_pins, 2)).tolist()
        for p, (fx, fy) in enumerate(fracs):
            cell.add_pin(f"p{p}", Point(fx * width, fy * tech.row_height))


# -- nets ---------------------------------------------------------------------------


def _free_pins_by_cell(design: Design) -> list[list[int]]:
    """Indices of not-yet-connected pins, per cell."""
    return [
        [i for i, pin in enumerate(cell.pins) if pin.net is None]
        for cell in design.cells
    ]


def _add_signal_nets(
    design: Design,
    recipe: DesignRecipe,
    clusters: list[_Cluster],
    cluster_dims: tuple[int, int],
    rng: np.random.Generator,
) -> None:
    free = _free_pins_by_cell(design)
    cells_with_free = [i for i, f in enumerate(free) if f]

    cluster_of_cell = np.empty(design.num_cells, dtype=np.int64)
    for cluster in clusters:
        for cid in cluster.cell_ids:
            cluster_of_cell[cid] = cluster.index

    def pick_cell(pool: list[int], members: list[int]) -> int | None:
        candidates = [c for c in pool if free[c] and c not in members]
        if not candidates:
            return None
        return _pick(candidates, rng)

    target_nets = int(design.num_cells * NETS_PER_CELL)
    net_id = 0
    budget = target_nets * 4  # generation attempts, to guarantee termination
    # only a pop that empties a cell's free list can shrink cells_with_free
    emptied = False
    while net_id < target_nets and budget > 0:
        budget -= 1
        if emptied:
            cells_with_free = [i for i in cells_with_free if free[i]]
            emptied = False
        if len(cells_with_free) < 2:
            break
        root = _pick(cells_with_free, rng)
        cluster = clusters[int(cluster_of_cell[root])]
        boost = recipe.dense_net_boost if cluster.dense else 1.0
        # Net degree: 2 + geometric tail, boosted in dense clusters.
        degree = 2 + int(rng.geometric(min(0.95, 1.0 / (recipe.mean_net_degree - 1.0) / boost)) - 1)
        degree = min(degree, 9)

        members = [root]
        for _ in range(degree - 1):
            local = rng.random() < recipe.cluster_locality
            if local:
                pool = cluster.cell_ids
            else:
                # Non-local connections follow a distance-decaying
                # preference over clusters (multi-scale Rent locality):
                # mostly adjacent clusters, occasionally truly global.
                # Without this, big dies drown in cross-die nets.
                pool = clusters[_pick_nearby_cluster(cluster, cluster_dims, rng)].cell_ids
            pick = pick_cell(pool, members)
            if pick is None:
                pick = pick_cell(cells_with_free, members)
            if pick is None:
                break
            members.append(pick)
        if len(members) < 2:
            continue

        ndr = None
        if rng.random() < recipe.ndr_frac:
            ndr = design.technology.ndr_rules[0].name
        net = design.add_net(f"n{net_id}", ndr=ndr)
        for cid in members:
            pin_idx = free[cid].pop(int(rng.integers(0, len(free[cid]))))
            net.connect(design.cells[cid].pins[pin_idx])
            emptied = emptied or not free[cid]
        net_id += 1


def _pick_nearby_cluster(
    cluster: _Cluster, cluster_dims: tuple[int, int], rng: np.random.Generator
) -> int:
    """A cluster index at geometric-decaying Chebyshev distance.

    Distance 1 (the 8 neighbours) with probability ~0.72, distance 2
    with ~0.2, and so on; clipped to the cluster grid.
    """
    nx, ny = cluster_dims
    cx, cy = cluster.index % nx, cluster.index // nx
    radius = int(rng.geometric(0.72))
    dx = int(rng.integers(-radius, radius + 1))
    dy = int(rng.integers(-radius, radius + 1))
    tx = min(max(cx + dx, 0), nx - 1)
    ty = min(max(cy + dy, 0), ny - 1)
    return ty * nx + tx


def _add_clock_nets(design: Design, rng: np.random.Generator) -> None:
    free = _free_pins_by_cell(design)
    for k in range(NUM_CLOCK_NETS):
        candidates = [i for i, f in enumerate(free) if f]
        if len(candidates) < 2:
            break
        fanout = min(CLOCK_FANOUT, len(candidates))
        members = rng.choice(candidates, size=fanout, replace=False)
        net = design.add_net(f"clk{k}", is_clock=True)
        for cid in members.tolist():
            pin_idx = free[cid].pop(int(rng.integers(0, len(free[cid]))))
            net.connect(design.cells[cid].pins[pin_idx])
