"""The end-to-end flow of the paper's Fig. 1, per design and per suite.

``run_flow`` pushes one design recipe through every stage:

    generate → place (global + legalise) → global route → detailed-routing
    simulation + DRC → labels → 387-feature extraction

and returns a :class:`FlowResult` carrying everything downstream consumers
need: the feature matrix and labels (model training), the loaded routing
grid and placement maps (explanations, Fig. 3 congestion pictures), the DRC
report (validation of explanations), and the Table I statistics row.

``build_suite_dataset`` runs the whole 14-design suite and assembles the
grouped :class:`~repro.features.dataset.SuiteDataset`.  The suite builder is
fault-tolerant, resumable, and parallelisable (see :mod:`repro.runtime`):

* every completed design flow is checkpointed (atomic write + SHA-256
  checksum) under ``<cache>.ckpt/``, and these checkpoints are the suite's
  only on-disk form: a store where every design verifies is a cache hit, and
  an interrupted run re-runs only the designs that never finished;
* features are stored as the flow computed them (float64), so a suite
  loaded from the store equals a freshly flowed one bit for bit;
* a failing design can degrade the suite (recorded in the runner's failure
  log and skipped, like the paper's footnote-3 designs) instead of killing
  the run, when the caller passes a non-``fail_fast`` runner;
* with a ``jobs > 1`` :class:`~repro.runtime.runner.FaultTolerantRunner`,
  design flows fan out across worker processes.  Each unit returns a
  picklable :class:`FlowPayload`; results are re-ordered to recipe order
  and all checkpoint writes stay in the parent, so a parallel build
  produces a byte-identical store and ``suite_fingerprint`` to a serial
  one.  The flows' spans reach the run's trace through the runner,
  which collects and adopts each unit's telemetry.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..bench.generator import DesignRecipe, generate_design
from ..bench.suite import group_index_of, suite_recipes
from ..drc.checker import DRCReport
from ..drc.detailed import simulate_drc
from ..drc.labels import hotspot_labels
from ..features.dataset import DesignDataset, SuiteDataset
from ..features.extractor import extract_features
from ..features.names import NUM_FEATURES
from ..layout.design_stats import DesignStats, design_statistics
from ..layout.grid import GCellGrid
from ..layout.netlist import Design
from ..layout.placemap import PlacementMaps
from ..place.placer import place_design
from ..route.router import RoutingResult, route_design
from ..runtime.checkpoint import CheckpointStore
from ..runtime.errors import CacheCorruptionError, StageFailure
from ..runtime.runner import FaultTolerantRunner
from ..runtime.telemetry import get_tracer
from ..runtime.validation import validate_features

#: Group index assigned to ad-hoc designs outside the named 14-design suite.
#: Negative on purpose: leave-one-group-out never forms a test fold for it
#: (see :func:`repro.core.experiment.run_experiment`).
ADHOC_GROUP = -1


@dataclass
class FlowResult:
    """Everything the flow produces for one design."""

    design: Design
    grid: GCellGrid
    routing: RoutingResult
    placemaps: PlacementMaps
    drc_report: DRCReport
    stats: DesignStats
    X: np.ndarray
    y: np.ndarray

    @property
    def dataset(self) -> DesignDataset:
        return DesignDataset(
            name=self.design.name,
            group=_safe_group(self.design.name),
            X=self.X,
            y=self.y,
            grid_nx=self.grid.nx,
            grid_ny=self.grid.ny,
        )


def _safe_group(name: str) -> int:
    try:
        return group_index_of(name)
    except KeyError:
        return ADHOC_GROUP  # sentinel: never a leave-one-group-out test fold


#: The flow's stage names, in execution order (also the span names).
FLOW_STAGES = ("generate", "place", "global_route", "drc_sim", "features")


def run_flow(recipe: DesignRecipe) -> FlowResult:
    """Run the full Fig. 1 flow for one design recipe.

    Every stage is a span of the ambient tracer, nested under whatever span
    is open: ``flow`` with one child per :data:`FLOW_STAGES` entry.  With
    the tracer disabled (the default) nothing is timed.
    """
    tracer = get_tracer()
    with tracer.span("flow", design=recipe.name):
        with tracer.span("generate"):
            design = generate_design(recipe)

        with tracer.span("place"):
            place_design(design)

        grid = GCellGrid.for_design_die(design.die, design.technology)
        with tracer.span("global_route"):
            routing = route_design(design, grid)

        with tracer.span("drc_sim"):
            placemaps = PlacementMaps(design, grid)
            report = simulate_drc(design, routing.rgrid, placemaps)

        with tracer.span("features"):
            X = extract_features(grid, routing.rgrid, placemaps)
            y = hotspot_labels(report, grid)

        stats = design_statistics(design, grid, report.num_hotspots(grid))

    return FlowResult(
        design=design,
        grid=grid,
        routing=routing,
        placemaps=placemaps,
        drc_report=report,
        stats=stats,
        X=X,
        y=y,
    )


def _run_flow_validated(recipe: DesignRecipe) -> FlowResult:
    """``run_flow`` plus the NaN/Inf/shape guard, as one fault-tolerant unit.

    Validating *inside* the unit means a design whose flow produces a
    non-finite feature matrix is recorded/skipped by the runner like
    any other unit failure, instead of aborting a non-fail-fast suite build.
    """
    result = run_flow(recipe)
    validate_features(result.X, result.y, name=recipe.name,
                      expect_features=NUM_FEATURES)
    return result


@dataclass
class FlowPayload:
    """The picklable slice of a :class:`FlowResult` the suite builder needs.

    Worker processes return this instead of the full ``FlowResult`` so only
    the dataset and the Table I row cross the process boundary — not the
    design netlist, routing grid, and placement maps.
    """

    dataset: DesignDataset
    stats: DesignStats


def _flow_unit_payload(recipe: DesignRecipe) -> FlowPayload:
    """One suite-builder unit: full validated flow, reduced to its payload."""
    result = _run_flow_validated(recipe)
    return FlowPayload(dataset=result.dataset, stats=result.stats)


#: Table I fields persisted in each design checkpoint.
_STATS_FIELDS = (
    "name",
    "num_gcells",
    "num_hotspots",
    "num_macros",
    "num_cells",
    "layout_width_um",
    "layout_height_um",
)


def _stats_to_dict(s: DesignStats) -> dict:
    return {f: getattr(s, f) for f in _STATS_FIELDS}


# -- the suite store: one checkpoint per design -------------------------------------


def checkpoint_dir_for(cache_path: str | Path) -> Path:
    """The checkpoint store that holds the suite named by ``cache_path``."""
    return Path(cache_path).with_suffix(".ckpt")


def _save_design_checkpoint(
    store: CheckpointStore, result: FlowResult | FlowPayload
) -> None:
    """Checkpoint one design: a one-design suite archive plus its Table I row."""
    archive = io.BytesIO()
    SuiteDataset([result.dataset]).save(
        archive, stats=np.array(json.dumps(_stats_to_dict(result.stats)))
    )
    store.save_bytes(f"{result.dataset.name}.npz", archive.getvalue())


def _load_design_checkpoint(
    store: CheckpointStore, name: str
) -> tuple[DesignDataset, DesignStats]:
    """Load one design's checkpoint; raises CacheCorruptionError when unsound."""
    arrays = store.load_arrays(f"{name}.npz")
    try:
        (dataset,) = SuiteDataset.from_arrays(arrays).designs
        if dataset.name != name:
            raise ValueError(f"holds design {dataset.name!r}")
        stats = DesignStats(**json.loads(str(arrays["stats"][()])))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CacheCorruptionError(f"{name}: malformed checkpoint payload") from exc
    validate_features(dataset.X, dataset.y, name=name, expect_features=NUM_FEATURES)
    return dataset, stats


# -- the resumable suite builder ----------------------------------------------------


def build_suite_dataset(
    scale: float = 1.0,
    cache_path: str | Path | None = None,
    verbose: bool = False,
    *,
    runner: FaultTolerantRunner | None = None,
    resume: bool = True,
) -> tuple[SuiteDataset, list[DesignStats]]:
    """Run (or load, or resume) the complete 14-design suite.

    With ``cache_path`` given, the suite lives on disk as the checkpoint
    store at ``checkpoint_dir_for(cache_path)``: one checksummed checkpoint
    per design holding its features, labels and Table I row, exactly as the
    flow computed them.  When every design's checkpoint verifies, the suite
    is loaded from the store and no flow runs, whatever ``resume`` says.
    Otherwise designs run as independent units under ``runner`` (default:
    fail-fast, serial; a ``jobs > 1`` runner fans them out
    across worker processes): with ``resume`` only the designs without a
    sound checkpoint, without it every design.  Each finished design is
    checkpointed — always from the parent process — so a re-invocation
    after an interrupt re-runs only the unfinished flows.  With a
    non-fail-fast runner, a failing design is recorded in
    ``runner.failures`` and skipped, and the degraded suite is returned.
    Results are assembled in recipe order regardless of worker completion
    order, so serial and parallel builds are byte-identical.
    """
    tracer = get_tracer()
    # zero-register the builder's counters so every manifest reports them
    for key in ("cache.suite.hits", "cache.suite.misses",
                "checkpoint.resume_skips", "runtime.cache.orphans_swept"):
        tracer.counter(key, 0)
    recipes = suite_recipes(scale)
    store = None if cache_path is None else CheckpointStore(checkpoint_dir_for(cache_path))
    done: dict[str, tuple[DesignDataset, DesignStats]] = {}
    if store is not None:
        # without resume only a complete store is worth reading: it is a hit
        if resume or all(store.has(f"{r.name}.npz") for r in recipes):
            loaded = store.restore(
                [f"{r.name}.npz" for r in recipes],
                lambda key: _load_design_checkpoint(store, key.removesuffix(".npz")),
                verbose,
            )
            done = {key.removesuffix(".npz"): value for key, value in loaded.items()}
        if len(done) == len(recipes):
            tracer.counter("cache.suite.hits")
            return _assemble(recipes, done)
        tracer.counter("cache.suite.misses")
    if not resume:
        done.clear()
    tracer.counter("checkpoint.resume_skips", len(done))
    if verbose:
        for name in done:
            print(f"  {name:<12s} resumed from checkpoint", flush=True)

    def _flow_done(unit: str, outcome) -> None:
        # runs in the parent as each unit completes (any completion order):
        # the single-writer invariant of the checkpoint store holds even
        # when the unit bodies ran in worker processes
        if not outcome.ok:
            return  # recorded in runner.failures; degrade the suite
        payload: FlowPayload = outcome.value
        done[unit] = (payload.dataset, payload.stats)
        if store is not None:
            _save_design_checkpoint(store, payload)
        if verbose:
            print(
                f"  {unit:<12s} {payload.stats.num_gcells:>6d} g-cells "
                f"{payload.stats.num_hotspots:>5d} hotspots",
                flush=True,
            )

    if runner is None:
        runner = FaultTolerantRunner(fail_fast=True, verbose=verbose)
    runner.run_units(
        "flow",
        [(r.name, _flow_unit_payload, (r,), {}) for r in recipes if r.name not in done],
        on_result=_flow_done,
    )
    return _assemble(recipes, done)


def _assemble(
    recipes: list[DesignRecipe], done: dict[str, tuple[DesignDataset, DesignStats]]
) -> tuple[SuiteDataset, list[DesignStats]]:
    """The suite in recipe order, so a parallel build is byte-identical."""
    names = [r.name for r in recipes if r.name in done]
    if not names:
        raise StageFailure("flow", "suite", "every design in the suite failed")
    return SuiteDataset([done[n][0] for n in names]), [done[n][1] for n in names]


#: Where this package's source tree lives; ``<root>/src/repro/core/pipeline.py``
#: in a checkout, ``site-packages/repro/core/pipeline.py`` when installed.
_SOURCE_ROOT = Path(__file__).resolve().parents[3]


def default_cache_root() -> Path:
    """Root directory for suite caches and their checkpoint stores.

    Resolution order:

    1. ``$DRCSHAP_CACHE_DIR`` when set — the explicit override;
    2. ``<checkout>/.cache`` when running from a source/editable checkout
       (detected by the repo's ``pyproject.toml`` next to ``src/``);
    3. a per-user cache dir (``$XDG_CACHE_HOME/drcshap`` or
       ``~/.cache/drcshap``) otherwise — an installed package must never
       write into its own install tree (site-packages is often read-only
       and always shared).
    """
    env = os.environ.get("DRCSHAP_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    if (_SOURCE_ROOT / "pyproject.toml").is_file():
        return _SOURCE_ROOT / ".cache"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "drcshap"


def default_cache_path(scale: float = 1.0) -> Path:
    """Canonical cache name for a suite at the given scale.

    The suite itself lives in the checkpoint store next to it,
    ``checkpoint_dir_for(default_cache_path(scale))``.
    """
    tag = f"suite_scale{scale:g}".replace(".", "p")
    return default_cache_root() / f"{tag}.npz"
