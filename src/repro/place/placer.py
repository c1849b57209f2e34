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
   that local force iterations alone cannot untangle.  The shift-invert
   solves factor ``lap + 0.05·I`` with the minimum-degree ordering on
   ``Aᵀ + A`` (``MMD_AT_PLUS_A``): the matrix is symmetric, and SuperLU's
   default COLAMD ordering, made for unsymmetric matrices, fills it far
   more.  Only the ranks of the eigenvectors reach the positions, so the
   ordering's rounding differences do not move them;
2. repeat :data:`ITERATIONS` times:
   a. *wirelength force* — every cell is pulled toward the centroid of every
      net it belongs to (star net model, vectorised with ``np.bincount``
      scatter-adds, which sum in index order as ``np.add.at`` does; the net
      sizes and cell degrees are computed once, before the loop);
   b. *density force* — cell area is binned on the g-cell grid; cells in
      over-full bins are pushed down the local density gradient;
   c. *macro force* — cells inside a macro (plus a small halo) are pushed
      out toward the nearest macro edge;
3. row legalisation (:mod:`repro.place.legalizer`).
"""

from __future__ import annotations

import numpy as np

from ..layout.geometry import Point, Rect
from ..layout.grid import GCellGrid
from ..layout.netlist import Design
from ..runtime.telemetry import get_tracer
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
    tracer = get_tracer()
    rng = np.random.default_rng(SEED)
    with tracer.span("spectral"):
        nets = _net_membership(design)
        pos = _spectral_positions(design, len(cells), nets, rng)

    with tracer.span("forces"):
        grid = GCellGrid.for_design_die(design.die, design.technology)
        areas = np.array([c.area for c in cells])
        sizes = _incidence_sizes(nets, len(cells))
        halos = _macro_halos(design)
        for _ in range(ITERATIONS):
            pos += WIRELENGTH_STEP * _wirelength_force(pos, nets, sizes)
            pos += DENSITY_STEP * _density_force(pos, areas, grid, rng)
            pos = _push_out_of_macros(halos, pos)
            _clamp(design, pos)

    with tracer.span("legalize"):
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
    for tiny or net-less netlists, and when the factorisation is singular
    or ARPACK fails; each such failure counts one
    ``place.spectral_fallbacks``.
    """
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.csgraph import laplacian
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    cell_ids, net_ids, net_count = nets
    if n < 16 or net_count == 0:
        return _initial_positions(design, n, rng)

    # star-model weights: members of a k-pin net get pairwise weight 1/k
    # via the net-expanded bipartite trick (cheap: one edge per pin pair
    # with a common net, approximated by consecutive-member chaining)
    order = np.argsort(net_ids, kind="stable")
    r = cell_ids[order]
    # chain + wrap: connects each net with O(k) edges, every member to the
    # one before it and the first to the last (np.roll(members, 1) per net;
    # _net_membership keeps only nets of two or more members)
    starts = np.flatnonzero(np.diff(net_ids[order], prepend=-1))
    prev = np.arange(len(r)) - 1
    prev[starts] = np.append(starts[1:], len(r)) - 1
    c = r[prev]
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
    # deterministic Lanczos start: ARPACK otherwise pulls its v0
    # from numpy's *global* RNG, making placement depend on process
    # history
    v0 = rng.normal(size=n)
    # (lap - sigma·I)⁻¹ for sigma = -0.05, factored once with the
    # symmetric fill-reducing ordering (see the module docstring)
    try:
        lu = splu((lap + 0.05 * identity(n)).tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:  # "Factor is exactly singular"
        return _spectral_fallback(design, n, rng)
    opinv = LinearOperator((n, n), matvec=lu.solve, dtype=lap.dtype)
    try:
        _, vecs = eigsh(lap, k=3, sigma=-0.05, which="LM", tol=1e-3, v0=v0, OPinv=opinv)
    except ArpackError:  # ArpackNoConvergence included
        return _spectral_fallback(design, n, rng)
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


def _spectral_fallback(design: Design, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random positions in place of a failed spectral embedding, counted."""
    get_tracer().counter("place.spectral_fallbacks")
    return _initial_positions(design, n, rng)


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


def _incidence_sizes(nets: Nets, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pins per net, and nets per cell with 0 raised to 1, as floats.

    The divisors of :func:`_wirelength_force`; they do not change while
    the cells move.
    """
    cell_ids, net_ids, net_count = nets
    counts = np.bincount(net_ids, minlength=net_count).astype(np.float64)
    degree = np.bincount(cell_ids, minlength=n).astype(np.float64)
    degree[degree == 0] = 1.0
    return counts, degree


def _scatter_sum(ids: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """``np.add.at`` of ``(k, 2)`` rows into ``length`` zero rows, per column.

    ``np.bincount`` adds its weights in index order, so each sum is the
    one ``np.add.at`` makes.
    """
    return np.column_stack([
        np.bincount(ids, weights=values[:, 0], minlength=length),
        np.bincount(ids, weights=values[:, 1], minlength=length),
    ])


def _wirelength_force(
    pos: np.ndarray, nets: Nets, sizes: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Pull toward the centroids of a cell's nets; ``sizes`` from :func:`_incidence_sizes`."""
    cell_ids, net_ids, net_count = nets
    if net_count == 0:
        return np.zeros_like(pos)
    counts, degree = sizes
    member_pos = pos[cell_ids]
    centroids = _scatter_sum(net_ids, member_pos, net_count) / counts[:, None]
    pull = _scatter_sum(cell_ids, centroids[net_ids] - member_pos, len(pos))
    return pull / degree[:, None]


def _density_force(
    pos: np.ndarray, areas: np.ndarray, grid: GCellGrid, rng: np.random.Generator
) -> np.ndarray:
    """Push cells down the over-density gradient of the g-cell bins."""
    g, nx, ny = grid.size, grid.nx, grid.ny
    ix, iy = grid.cells_of_points(pos[:, 0], pos[:, 1])

    # bincount adds in index order, as np.add.at does
    density = np.bincount(ix * ny + iy, weights=areas, minlength=nx * ny).reshape(nx, ny)
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


def _macro_halos(design: Design) -> list[Rect]:
    """The placement blockages grown by the macro halo."""
    halo = MACRO_HALO_GCELLS * design.technology.gcell_size
    return [rect.expanded(halo) for rect in design.placement_blockage_rects()]


def _push_out_of_macros(halos: list[Rect], pos: np.ndarray) -> np.ndarray:
    """Move points inside any of ``halos`` out through its nearest edge."""
    for r in halos:
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
