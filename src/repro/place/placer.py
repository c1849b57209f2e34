"""Force-directed global placement.

Stand-in for Eh?Placer in the paper's flow.  The goal is not to compete with
a production placer but to produce *realistic placed designs*: connected
cells end up near each other (recovering the generator's cluster structure
from the netlist alone), density is non-uniform but bounded, and macros are
kept clear.  Downstream, this yields the pin/cell-density and congestion
distributions the paper's features are built on.

Algorithm (classic Eisenmann/Johannes-style simplified loop):

1. spectral initialisation: cells are embedded with the two Fiedler
   eigenvectors of the netlist's graph Laplacian (star net model) and
   rank-spread over the die — this recovers the global cluster structure
   that local force iterations alone cannot untangle;
2. repeat :data:`ITERATIONS` times:
   a. *wirelength force* — every cell is pulled toward the centroid of every
      net it belongs to (star net model, vectorised with scatter-adds);
   b. *density force* — cell area is binned on the g-cell grid; cells in
      over-full bins are pushed down the local density gradient;
   c. *macro force* — cells inside a macro (plus a small halo) are pushed
      out toward the nearest macro edge;
3. row legalisation (:mod:`repro.place.legalizer`).
"""

from __future__ import annotations

import numpy as np

from ..layout.geometry import Point
from ..layout.grid import GCellGrid
from ..layout.netlist import Design
from .legalizer import legalize


#: iterations of the global placement loop
ITERATIONS = 100
#: pull strength toward net centroids per iteration (0..1)
WIRELENGTH_STEP = 0.45
#: push strength away from over-dense bins per iteration
DENSITY_STEP = 0.35
#: density (cell area / bin area) above which spreading kicks in
TARGET_DENSITY = 0.8
#: halo width around macros that cells are pushed out of, in g-cells
MACRO_HALO_GCELLS = 0.25
#: seed of the one generator behind every random draw of a placement
SEED = 7

#: (cell_id, net_id) incidence arrays over the cells, and the net count
Nets = tuple[np.ndarray, np.ndarray, int]


def place_design(design: Design) -> None:
    """Place ``design`` in place (global placement + legalisation)."""
    cells = design.cells
    if not cells:
        return
    rng = np.random.default_rng(SEED)
    grid = GCellGrid.for_design_die(design.die, design.technology)
    nets = _net_membership(design)
    pos = _spectral_positions(design, len(cells), nets, rng)
    areas = np.array([c.area for c in cells])

    for _ in range(ITERATIONS):
        pos += WIRELENGTH_STEP * _wirelength_force(pos, nets)
        pos += DENSITY_STEP * _density_force(pos, areas, grid, rng)
        pos = _push_out_of_macros(design, pos)
        _clamp(design, pos)

    for cell, (x, y) in zip(cells, pos):
        # store as lower-left corner; forces worked on centres
        cell.position = Point(x - cell.width / 2.0, y - cell.height / 2.0)
    legalize(design)


# -- pieces of the loop --------------------------------------------------------------


def _initial_positions(design: Design, n: int, rng: np.random.Generator) -> np.ndarray:
    die = design.die
    margin = design.technology.row_height
    xs = rng.uniform(die.xlo + margin, die.xhi - margin, size=n)
    ys = rng.uniform(die.ylo + margin, die.yhi - margin, size=n)
    return np.column_stack([xs, ys])


def _spectral_positions(
    design: Design, n: int, nets: Nets, rng: np.random.Generator
) -> np.ndarray:
    """Embed cells with the netlist Laplacian's Fiedler vectors.

    Each net contributes star edges (every member to the net's virtual
    centre folds into member-member weights 1/deg).  The 2nd and 3rd
    smallest eigenvectors give a planar embedding that separates the
    netlist's natural clusters; rank-spreading each axis to a uniform
    distribution fills the die evenly.  Falls back to random positions
    for tiny or degenerate netlists.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import laplacian
    from scipy.sparse.linalg import eigsh

    cell_ids, net_ids, net_count = nets
    if n < 16 or net_count == 0:
        return _initial_positions(design, n, rng)

    # star-model weights: members of a k-pin net get pairwise weight 1/k
    # via the net-expanded bipartite trick (cheap: one edge per pin pair
    # with a common net, approximated by consecutive-member chaining)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    order = np.argsort(net_ids, kind="stable")
    sorted_nets = net_ids[order]
    sorted_cells = cell_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_nets)) + 1
    for members in np.split(sorted_cells, boundaries):
        if len(members) < 2:
            continue
        # chain + wrap: connects the net with O(k) edges
        rows.append(members)
        cols.append(np.roll(members, 1))
    if not rows:
        return _initial_positions(design, n, rng)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    w = np.ones(len(r))
    # weak ring over all cells: keeps the graph connected (sparse
    # netlists often have isolated components, which makes the Fiedler
    # eigenproblem degenerate and shift-invert Lanczos painfully slow)
    ring = np.arange(n)
    r = np.concatenate([r, ring])
    c = np.concatenate([c, np.roll(ring, 1)])
    w = np.concatenate([w, np.full(n, 0.01)])
    adj = coo_matrix((w, (r, c)), shape=(n, n))
    adj = (adj + adj.T).tocsr()
    lap = laplacian(adj, normed=True)
    try:
        # deterministic Lanczos start: ARPACK otherwise pulls its v0
        # from numpy's *global* RNG, making placement depend on process
        # history
        v0 = rng.normal(size=n)
        _, vecs = eigsh(lap, k=3, sigma=-0.05, which="LM", tol=1e-3, v0=v0)
    except Exception:
        return _initial_positions(design, n, rng)
    emb = vecs[:, 1:3]

    die = design.die
    margin = design.technology.row_height
    pos = np.empty((n, 2))
    for axis, (lo, hi) in enumerate(
        [(die.xlo + margin, die.xhi - margin), (die.ylo + margin, die.yhi - margin)]
    ):
        ranks = np.argsort(np.argsort(emb[:, axis], kind="stable"))
        pos[:, axis] = lo + (ranks + 0.5) / n * (hi - lo)
    # tiny jitter so exactly-equal embeddings don't stack
    pos += rng.normal(scale=0.1 * margin, size=pos.shape)
    return pos


def _net_membership(design: Design) -> Nets:
    """Flattened (cell_id, net_id) incidence arrays for scatter ops."""
    cell_index = {id(c): i for i, c in enumerate(design.cells)}
    cell_ids: list[int] = []
    net_ids: list[int] = []
    net_count = 0
    for net in design.nets:
        members = {cell_index[id(pin.cell)] for pin in net.pins}
        if len(members) < 2:
            continue
        for m in members:
            cell_ids.append(m)
            net_ids.append(net_count)
        net_count += 1
    return (
        np.asarray(cell_ids, dtype=np.int64),
        np.asarray(net_ids, dtype=np.int64),
        net_count,
    )


def _wirelength_force(pos: np.ndarray, nets: Nets) -> np.ndarray:
    cell_ids, net_ids, net_count = nets
    if net_count == 0:
        return np.zeros_like(pos)
    sums = np.zeros((net_count, 2))
    counts = np.zeros(net_count)
    np.add.at(sums, net_ids, pos[cell_ids])
    np.add.at(counts, net_ids, 1.0)
    centroids = sums / counts[:, None]

    pull = np.zeros_like(pos)
    degree = np.zeros(len(pos))
    np.add.at(pull, cell_ids, centroids[net_ids] - pos[cell_ids])
    np.add.at(degree, cell_ids, 1.0)
    degree[degree == 0] = 1.0
    return pull / degree[:, None]


def _density_force(
    pos: np.ndarray, areas: np.ndarray, grid: GCellGrid, rng: np.random.Generator
) -> np.ndarray:
    """Push cells down the over-density gradient of the g-cell bins."""
    die, g, nx, ny = grid.die, grid.size, grid.nx, grid.ny
    ix = np.clip(((pos[:, 0] - die.xlo) / g).astype(int), 0, nx - 1)
    iy = np.clip(((pos[:, 1] - die.ylo) / g).astype(int), 0, ny - 1)

    density = np.zeros((nx, ny))
    np.add.at(density, (ix, iy), areas)
    density /= g * g

    overflow = np.maximum(density - TARGET_DENSITY, 0.0)
    # Push down the overflow gradient: central differences with edge padding.
    padded = np.pad(overflow, 1, mode="edge")
    gx = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    gy = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0

    force = np.zeros_like(pos)
    force[:, 0] = -gx[ix, iy] * g
    force[:, 1] = -gy[ix, iy] * g
    # Tiny jitter breaks ties in completely flat over-dense plateaus.
    force += rng.normal(scale=0.02 * g, size=pos.shape) * (
        overflow[ix, iy] > 0
    )[:, None]
    return force


def _push_out_of_macros(design: Design, pos: np.ndarray) -> np.ndarray:
    halo = MACRO_HALO_GCELLS * design.technology.gcell_size
    for rect in design.placement_blockage_rects():
        r = rect.expanded(halo)
        inside = (
            (pos[:, 0] > r.xlo)
            & (pos[:, 0] < r.xhi)
            & (pos[:, 1] > r.ylo)
            & (pos[:, 1] < r.yhi)
        )
        if not inside.any():
            continue
        sub = pos[inside]
        # distance to each edge; move each point out through the nearest
        d_left = sub[:, 0] - r.xlo
        d_right = r.xhi - sub[:, 0]
        d_bot = sub[:, 1] - r.ylo
        d_top = r.yhi - sub[:, 1]
        dists = np.column_stack([d_left, d_right, d_bot, d_top])
        nearest = np.argmin(dists, axis=1)
        sub[nearest == 0, 0] = r.xlo - 1.0
        sub[nearest == 1, 0] = r.xhi + 1.0
        sub[nearest == 2, 1] = r.ylo - 1.0
        sub[nearest == 3, 1] = r.yhi + 1.0
        pos[inside] = sub
    return pos


def _clamp(design: Design, pos: np.ndarray) -> None:
    die = design.die
    margin = design.technology.row_height / 2.0
    np.clip(pos[:, 0], die.xlo + margin, die.xhi - margin, out=pos[:, 0])
    np.clip(pos[:, 1], die.ylo + margin, die.yhi - margin, out=pos[:, 1])
