"""The benchmark's two workloads on the paper's real pipeline.

Each workload has a set-up (everything before the timed phase) and a
measure step.  The measure step runs the timed phase with tracing off, as
often as the time budget allows, and checks every output.  With ``trace``
it instead runs one untraced pass, then the same pass again under the span
recorder (:mod:`spans`), and derives the per-layer metrics from the spans.

* ``suite-j2`` — cold 14-design suite builds under ``ParallelRunner(2)``,
  writing checkpoints and the cache pair, as ``drcshap suite -j 2`` does.
  Its inputs are the fixed Table I recipes (``build_suite_dataset`` takes
  only a scale), so the seed changes nothing in it.
* ``table2`` — the full leave-one-group-out Table II with the fast model
  zoo and tuning, on a suite the benchmark builds in set-up.  Its traced
  run then also times the explain stage: ``explain_hotspots`` on the top-k
  hotspots of each explained design, bulk Tree SHAP over all of its
  g-cells and the SHAP summary, with the forests trained beforehand.  The
  explain stage is not a timed workload of its own: other tenants of a
  shared host moved its wall time by a third from run to run.

The seed reaches only the generated inputs: it offsets the models'
``random_state``.  Every workload runs the fixed Table I recipes, because
offsetting the recipe seeds changes the hotspot counts, and with them the
number of scored designs and the training cost, by a third between seeds.
The program never sees the seed.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.shap_summary import summarize_shap
from repro.bench.suite import SUITE_ORDER, suite_recipes
from repro.core import experiment, explain, pipeline
from repro.core.experiment import run_experiment
from repro.core.explain import explain_hotspots, train_explanation_forest
from repro.core.models import model_zoo
from repro.core.pipeline import build_suite_dataset, run_flow
from repro.features.dataset import DesignDataset, SuiteDataset
from repro.features.names import NUM_FEATURES
from repro.ml.binning import BinnedDataset
from repro.ml.boosting import RUSBoostClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.nn import MLPClassifier
from repro.ml.scaling import StandardScaler
from repro.ml.shap.tree_explainer import TreeShapExplainer
from repro.ml.svm import SVMClassifier
from repro.runtime import FaultTolerantRunner, ParallelRunner
from repro.runtime.errors import ValidationError
from repro.runtime.validation import validate_features

from spans import Hook, SpanRecorder, patched

#: End-to-end metrics every untraced run reports, with their units.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every traced run reports, with their units.  A layer
#: the workload does not exercise reads 0.
PER_LAYER: dict[str, str] = {
    # suite-j2: the flow layers
    "bench.generate_s": "s",
    "place.place_s": "s",
    "route.route_s": "s",
    "route.negotiation_rounds": "count",
    "route.segments": "count",
    "drc.sim_s": "s",
    "drc.violations": "count",
    "features.extract_s": "s",
    "features.gcells": "count",
    "features.dataset.save_s": "s",
    "core.pipeline.slowest_flow_s": "s",
    "runtime.parallel.efficiency": "fraction",
    # table2: the training layers
    "features.dataset.stack_s": "s",
    "ml.scaling.fit_transform_s": "s",
    "ml.binning.bin_s": "s",
    "ml.model_selection.grid_search_s": "s",
    "ml.forest.fit_s": "s",
    "ml.boosting.fit_s": "s",
    "ml.svm.fit_s": "s",
    "ml.nn.fit_s": "s",
    "ml.forest.predict_s": "s",
    "ml.boosting.predict_s": "s",
    "ml.svm.predict_s": "s",
    "ml.nn.predict_s": "s",
    "ml.nn.cpu_per_wall": "ratio",
    "ml.svm.cpu_per_wall": "ratio",
    "ml.forest.nodes": "count",
    "ml.boosting.nodes": "count",
    "ml.svm.support_vectors": "count",
    "ml.metrics.evaluate_s": "s",
    "ml.complexity.report_s": "s",
    # table2's traced explain stage: the SHAP layers
    "explain_s_per_hotspot": "s",
    "shap_rows_per_s": "rows/s",
    "ml.forest.leaves": "count",
    "ml.forest.max_depth": "count",
    "ml.forest.proba_s": "s",
    "ml.shap.build_s": "s",
    "ml.shap.single_ms_per_row": "ms/row",
    "ml.shap.batch_ms_per_row": "ms/row",
    "ml.shap.bulk_ms_per_row": "ms/row",
    "ml.shap.local_accuracy_max_err": "abs",
    "route.congestion.render_s": "s",
    "analysis.shap_summary.summarize_s": "s",
    # every workload
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}

#: Spans that give context (per-design flow time, per-call explain time)
#: but whose self time is glue, not a layer: excluded from ``trace.coverage``.
CONTEXT_LAYERS = ("core.pipeline.flow", "core.explain.explain_hotspots")

#: Workers of the parallel suite builds and forest fits: the machine's 2 CPUs.
JOBS = 2

#: suite-j2's set-up is start-up alone, timed in this many fresh interpreters.
STARTUP_SAMPLES = 5

#: Batched and single-row SHAP, and SHAP against the reference, agree this closely.
SHAP_TOL = 1e-12
#: |Σφ − (f(x) − E[f])| may not exceed this (Tree SHAP local accuracy).
LOCAL_ACCURACY_TOL = 1e-9


@dataclass(frozen=True)
class Config:
    """Sizes of the workloads; the defaults are the benchmark's."""

    seconds: float = 45.0
    seed: int = 0
    suite_scale: float = 0.5  # suite-j2's timed build, ~5 s: several builds per run
    scale: float = 0.5  # the suite table2 and its explain stage train on
    models: tuple[str, ...] = ()  # empty: the whole fast zoo
    designs: tuple[str, ...] = ("des_perf_1", "mult_b")  # explained designs
    hotspots: int = 5

    def signature(self, workload: str) -> dict[str, Any]:
        """The settings that fix a workload's outputs (reference key)."""
        if workload == "suite-j2":
            return {"suite_scale": self.suite_scale}
        return {"scale": self.scale, "models": list(self.models),
                "designs": list(self.designs), "hotspots": self.hotspots}


@dataclass
class Outcome:
    """What one measure step saw: timings, checked operations, metrics."""

    wall_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: reference-comparable outputs of the first pass (recorded at seed 0)
    outputs: dict[str, Any] = field(default_factory=dict)
    #: workload-only end-to-end figures, e.g. explain's s/hotspot
    extra: dict[str, Any] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Count operations; ``what`` describes the failed ones."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        """Count ``n`` operations; all of them failed unless ``ok``."""
        self.tally(n, 0 if ok else n, what)


# -- clocks ---------------------------------------------------------------------------


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def startup_s() -> float:
    """Wall time of a fresh interpreter that imports everything this module imports."""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here)]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path[:0] = {paths!r}; "
                    "import workloads"], check=True, capture_output=True)
    return time.perf_counter() - t0


def _timed(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    cpu0, t0 = _cpu_s(), time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0, _cpu_s() - cpu0


def _repeat(seconds: float, body: Callable[[], None]) -> None:
    """Run ``body`` once, and again while the next run fits the budget."""
    start, n = time.perf_counter(), 0
    while True:
        body()
        n += 1
        if (time.perf_counter() - start) * (n + 1) / n > seconds:
            return


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _overhead(traced_s: float, untraced_s: float) -> float:
    return traced_s / untraced_s - 1.0


def _coverage(rec: SpanRecorder, wall_s: float) -> float:
    covered = sum(s.self_s for s in rec.spans if s.layer not in CONTEXT_LAYERS)
    return covered / wall_s


# -- the training suite (table2 and explain set-up) --------------------------------------


def build_training_suite(cfg: Config) -> SuiteDataset:
    """The Table I suite at ``cfg.scale``, built under the set-up's workers."""
    suite, _ = build_suite_dataset(cfg.scale, runner=ParallelRunner(JOBS, fail_fast=True))
    return suite


# -- suite-j2 -------------------------------------------------------------------------


def _route_counts(rec: SpanRecorder, routing: Any, args: tuple) -> None:
    rec.count("route.negotiation_rounds", len(routing.overflow_history))
    rec.count("route.segments", len(routing.segments))


def _flow_hooks() -> list[Hook]:
    return [
        Hook(pipeline, "run_flow", "core.pipeline.flow"),
        Hook(pipeline, "generate_design", "bench.generate"),
        Hook(pipeline, "place_design", "place.place"),
        Hook(pipeline, "route_design", "route.route", _route_counts),
        Hook(pipeline, "PlacementMaps", "drc.sim"),
        Hook(pipeline, "simulate_drc", "drc.sim",
             lambda rec, report, a: rec.count("drc.violations", report.num_violations)),
        Hook(pipeline, "extract_features", "features.extract",
             lambda rec, X, a: rec.count("features.gcells", len(X))),
        Hook(pipeline, "hotspot_labels", "features.extract"),
        Hook(SuiteDataset, "save", "features.dataset.save"),
    ]


def _suite_build(cfg: Config, workdir: Path, runner: FaultTolerantRunner,
                 out: Outcome, reference: dict | None, label: str) -> float:
    """One cold build into a fresh cache dir; returns its wall time."""
    cache_dir = Path(tempfile.mkdtemp(prefix="suite-", dir=workdir))
    try:
        (suite, _), wall, cpu = _timed(lambda: build_suite_dataset(
            cfg.suite_scale, cache_path=cache_dir / "suite.npz", runner=runner))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    out.wall_s.append(wall)
    out.cpu_s.append(cpu)
    digests = {}
    for d in suite.designs:
        try:
            validate_features(d.X, d.y, name=d.name, expect_features=NUM_FEATURES)
            digests[d.name] = _digest(d.X, d.y)
        except ValidationError as exc:
            out.problems.append(f"{label}: {exc}")
    for name in SUITE_ORDER:
        got = digests.get(name)
        ok = got is not None and (reference is None or reference.get(name) == got)
        out.check(ok, f"{label}: design {name} flow data "
                      f"{'missing or invalid' if got is None else 'differs from the reference'}")
    out.outputs = out.outputs or digests
    return wall


def setup_suite_j2(cfg: Config) -> None:
    return None


def measure_suite_j2(cfg: Config, state: None, workdir: Path, trace: bool,
                     reference: dict | None) -> Outcome:
    out = Outcome()

    def parallel_build() -> None:
        _suite_build(cfg, workdir, ParallelRunner(JOBS), out, reference, "suite-j2")

    if not trace:
        _repeat(cfg.seconds, parallel_build)
        return out

    # traced: the parallel wall time, then an untraced and a traced serial
    # build (spans are recorded in this process, so the traced run is serial)
    parallel_build()
    parallel_wall = out.wall_s[-1]
    serial_wall = _suite_build(cfg, workdir, FaultTolerantRunner(), out, reference,
                               "suite-j2 serial")
    rec = SpanRecorder()
    with patched(rec, _flow_hooks()):
        traced_wall = _suite_build(cfg, workdir, FaultTolerantRunner(), out, reference,
                                   "suite-j2 traced")
    flows = [s.wall_s for s in rec.of("core.pipeline.flow")]
    out.layers = {
        "bench.generate_s": rec.self_s("bench.generate"),
        "place.place_s": rec.self_s("place.place"),
        "route.route_s": rec.self_s("route.route"),
        "route.negotiation_rounds": rec.counts["route.negotiation_rounds"],
        "route.segments": rec.counts["route.segments"],
        "drc.sim_s": rec.self_s("drc.sim"),
        "drc.violations": rec.counts["drc.violations"],
        "features.extract_s": rec.self_s("features.extract"),
        "features.gcells": rec.counts["features.gcells"],
        "features.dataset.save_s": rec.self_s("features.dataset.save"),
        "core.pipeline.slowest_flow_s": max(flows),
        "runtime.parallel.efficiency": sum(flows) / (JOBS * parallel_wall),
        "trace.coverage": _coverage(rec, traced_wall),
        "trace.overhead_frac": _overhead(traced_wall, serial_wall),
    }
    out.spans = rec.to_json()
    return out


# -- table2 ---------------------------------------------------------------------------

#: Model class -> layer family name.
FAMILY = {
    RandomForestClassifier: "forest",
    RUSBoostClassifier: "boosting",
    SVMClassifier: "svm",
    MLPClassifier: "nn",
}


@dataclass
class Table2State:
    suite: SuiteDataset
    specs: list


def setup_table2(cfg: Config) -> Table2State:
    specs = model_zoo("fast", random_state=cfg.seed)
    if cfg.models:
        specs = [s for s in specs if s.name in cfg.models]
    return Table2State(build_training_suite(cfg), specs)


def _table2_hooks(rec: SpanRecorder) -> list[Hook]:
    def final_fit(family: str) -> Callable[[tuple], str | None]:
        # fits inside the grid search stay part of its time
        return lambda args: (None if rec.inside("ml.model_selection.grid_search")
                             else f"ml.{family}.fit")

    def tree_nodes(family: str):
        return lambda r, model, a: r.count(f"ml.{family}.nodes",
                                           sum(t.node_count for t in model.trees))

    return [
        Hook(SuiteDataset, "stacked", "features.dataset.stack"),
        Hook(StandardScaler, "fit", "ml.scaling.fit_transform"),
        Hook(StandardScaler, "transform", "ml.scaling.fit_transform"),
        Hook(BinnedDataset, "from_matrix", "ml.binning.bin"),
        Hook(experiment, "grid_search", "ml.model_selection.grid_search"),
        Hook(RandomForestClassifier, "fit", final_fit("forest"), tree_nodes("forest")),
        Hook(RUSBoostClassifier, "fit", final_fit("boosting"), tree_nodes("boosting")),
        Hook(SVMClassifier, "fit", final_fit("svm"),
             lambda r, model, a: r.count("ml.svm.support_vectors", model.n_support_)),
        Hook(MLPClassifier, "fit", final_fit("nn")),
        Hook(experiment, "positive_scores",
             lambda args: f"ml.{FAMILY[type(args[0])]}.predict"),
        Hook(experiment, "evaluate_scores", "ml.metrics.evaluate"),
        Hook(experiment, "complexity_of", "ml.complexity.report"),
    ]


def _table2_pass(cfg: Config, state: Table2State, workdir: Path, out: Outcome,
                 reference: dict | None, label: str) -> float:
    """One Table II run with fresh checkpoints; returns its wall time."""
    ckpt = Path(tempfile.mkdtemp(prefix="table2-", dir=workdir))
    suite, specs = state.suite, state.specs
    groups = sorted({d.group for d in suite.designs if d.group >= 0})
    expected = [d.name for d in suite.designs
                if d.group >= 0 and 0 < d.num_hotspots < d.num_samples]
    try:
        result, wall, cpu = _timed(lambda: run_experiment(
            suite, specs, tune=True, runner=FaultTolerantRunner(fail_fast=True),
            checkpoint_dir=ckpt))
    except Exception:  # a fail-fast grid aborts on its first failed unit
        traceback.print_exc(file=sys.stderr)
        out.check(False, f"{label}: run_experiment raised",
                  len(specs) * (len(groups) + len(expected)))
        return math.nan
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    out.wall_s.append(wall)
    out.cpu_s.append(cpu)
    out.check(True, "", len(specs) * len(groups))  # every (model, group) unit ran

    cells = {f"{s.model}/{s.design}": [s.metrics.tpr_star, s.metrics.prec_star,
                                       s.metrics.a_prc, s.metrics.a_roc]
             for s in result.scores}
    for spec in specs:
        for name in expected:
            key = f"{spec.name}/{name}"
            got = cells.get(key)
            ok = got is not None and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in got)
            if ok and reference is not None:
                ok = reference.get(key) == got
            out.check(ok, f"{label}: Table II cell {key} = {got}, "
                          f"reference {None if reference is None else reference.get(key)}")
    extra = sorted(set(cells) - {f"{m.name}/{n}" for m in specs for n in expected})
    out.check(not extra, f"{label}: scored designs without hotspots: {extra}", len(extra))
    out.outputs = out.outputs or cells
    return wall


def measure_table2(cfg: Config, state: Table2State, workdir: Path, trace: bool,
                   reference: dict | None) -> Outcome:
    out = Outcome()
    if not trace:
        _repeat(cfg.seconds, lambda: _table2_pass(cfg, state, workdir, out, reference,
                                                  "table2"))
        return out
    untraced_wall = _table2_pass(cfg, state, workdir, out, reference, "table2")
    rec = SpanRecorder()
    with patched(rec, _table2_hooks(rec)):
        traced_wall = _table2_pass(cfg, state, workdir, out, reference, "table2 traced")

    def cpu_per_wall(layer: str) -> float:
        fits = rec.of(layer)
        wall = sum(s.wall_s for s in fits)
        return sum(s.cpu_s for s in fits) / wall if wall else 0.0

    out.layers = {
        "features.dataset.stack_s": rec.self_s("features.dataset.stack"),
        "ml.scaling.fit_transform_s": rec.self_s("ml.scaling.fit_transform"),
        "ml.binning.bin_s": rec.self_s("ml.binning.bin"),
        "ml.model_selection.grid_search_s": rec.self_s("ml.model_selection.grid_search"),
        **{f"ml.{f}.{step}_s": rec.self_s(f"ml.{f}.{step}")
           for f in FAMILY.values() for step in ("fit", "predict")},
        "ml.nn.cpu_per_wall": cpu_per_wall("ml.nn.fit"),
        "ml.svm.cpu_per_wall": cpu_per_wall("ml.svm.fit"),
        "ml.forest.nodes": rec.counts["ml.forest.nodes"],
        "ml.boosting.nodes": rec.counts["ml.boosting.nodes"],
        "ml.svm.support_vectors": rec.counts["ml.svm.support_vectors"],
        "ml.metrics.evaluate_s": rec.self_s("ml.metrics.evaluate"),
        "ml.complexity.report_s": rec.self_s("ml.complexity.report"),
        "trace.coverage": _coverage(rec, traced_wall),
        "trace.overhead_frac": _overhead(traced_wall, untraced_wall),
    }

    # the explain stage, after the Table II passes so it cannot disturb them;
    # its reference rows are stored with the Table II cells as explain/<design>
    ref = {k.removeprefix("explain/"): v for k, v in (reference or {}).items()
           if k.startswith("explain/")}
    shap = trace_explain(cfg, setup_explain(cfg, state.suite), ref or None, rec)
    out.attempted += shap.attempted
    out.failed += shap.failed
    out.problems += shap.problems
    out.outputs.update({f"explain/{k}": v for k, v in shap.outputs.items()})
    out.layers.update(shap.layers)
    out.spans = rec.to_json()
    return out


# -- the explain stage (table2's traced run) ------------------------------------------


@dataclass
class ExplainTarget:
    name: str
    flow: Any  # the design's FlowResult: congestion maps and DRC ground truth
    forest: RandomForestClassifier
    dataset: DesignDataset
    fx: np.ndarray  # the forest's P(hotspot) per g-cell, for local accuracy


@dataclass
class ExplainState:
    suite: SuiteDataset
    targets: list[ExplainTarget]


def setup_explain(cfg: Config, suite: SuiteDataset) -> ExplainState:
    recipes = {r.name: r for r in suite_recipes(cfg.scale)}
    targets = []
    for name in cfg.designs:
        forest = train_explanation_forest(suite, name, "fast", random_state=cfg.seed,
                                          n_jobs=JOBS)
        dataset = suite.by_name(name)
        targets.append(ExplainTarget(name, run_flow(recipes[name]), forest, dataset,
                                     forest.predict_proba(dataset.X)[:, 1]))
    return ExplainState(suite, targets)


def _explain_hooks() -> list[Hook]:
    return [
        Hook(RandomForestClassifier, "predict_proba", "ml.forest.proba"),
        Hook(TreeShapExplainer, "__init__", "ml.shap.build"),
        Hook(TreeShapExplainer, "shap_values_single", "ml.shap.single",
             lambda rec, phi, a: rec.count("ml.shap.single_rows")),
        Hook(explain, "render_layer_congestion", "route.congestion.render"),
    ]


def _explain_pass(cfg: Config, state: ExplainState, out: Outcome, rec: SpanRecorder,
                  reference: dict | None, label: str) -> float:
    """Explain, batch, bulk and summarise every target once; returns the wall time.

    Appends each explain_hotspots call's wall time per hotspot to
    ``out.extra["per_hotspot"]`` and the bulk rows and seconds to
    ``out.extra["bulk_rows"]`` / ``["bulk_s"]``; checks come after the clock stops.
    """
    results = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for t in state.targets:
        tc = time.perf_counter()
        reports = rec.call("core.explain.explain_hotspots", explain_hotspots,
                           state.suite, t.flow, model=t.forest,
                           num_hotspots=cfg.hotspots)
        per_hotspot = (time.perf_counter() - tc) / len(reports)
        rows = [t.dataset.sample_index(*r.cell) for r in reports]
        explainer = TreeShapExplainer(t.forest.trees, NUM_FEATURES)
        batch = rec.call("ml.shap.batch", explainer.shap_values, t.dataset.X[rows])
        tb = time.perf_counter()
        bulk = rec.call("ml.shap.bulk", explainer.shap_values, t.dataset.X)
        bulk_s = time.perf_counter() - tb
        rec.call("analysis.shap_summary.summarize", summarize_shap, bulk)
        results.append((t, reports, rows, explainer.expected_value, batch, bulk,
                        per_hotspot, bulk_s))
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    out.wall_s.append(wall)
    out.cpu_s.append(cpu)

    outputs = {}
    for t, reports, rows, base, batch, bulk, per_hotspot, bulk_s in results:
        out.extra.setdefault("per_hotspot", []).append(per_hotspot)
        out.extra["bulk_rows"] = out.extra.get("bulk_rows", 0) + len(bulk)
        out.extra["bulk_s"] = out.extra.get("bulk_s", 0.0) + bulk_s
        single = np.array([[c.shap for c in r.explanation.contributions] for r in reports])
        ref = None if reference is None else reference.get(t.name)
        for i, (r, row) in enumerate(zip(reports, rows)):
            err = abs(single[i].sum() + base - t.fx[row])
            ok = (np.max(np.abs(single[i] - batch[i])) <= SHAP_TOL
                  and np.max(np.abs(single[i] - bulk[row])) <= SHAP_TOL
                  and err <= LOCAL_ACCURACY_TOL
                  and r.prediction == t.fx[row])
            if ok and ref is not None:
                ok = (i < len(ref["cells"]) and list(r.cell) == ref["cells"][i]
                      and np.max(np.abs(single[i] - ref["phi"][i])) <= SHAP_TOL)
            out.check(ok, f"{label}: {t.name} hotspot {r.cell} SHAP disagrees "
                          "(single/batch/bulk/reference or local accuracy)")
        errors = np.abs(bulk.sum(axis=1) + base - t.fx)
        out.extra["local_accuracy_max_err"] = max(
            out.extra.get("local_accuracy_max_err", 0.0), float(errors.max()))
        bad = int((errors > LOCAL_ACCURACY_TOL).sum())
        out.tally(len(bulk), bad, f"{label}: {t.name} {bad} bulk rows break local accuracy")
        outputs[t.name] = {"cells": [list(r.cell) for r in reports],
                           "phi": single.tolist()}
    out.outputs = out.outputs or outputs
    return wall


def explain_figures(out: Outcome) -> tuple[float, float]:
    """(median s per explained hotspot, bulk SHAP rows per second)."""
    return (statistics.median(out.extra["per_hotspot"]),
            out.extra["bulk_rows"] / out.extra["bulk_s"])


def trace_explain(cfg: Config, state: ExplainState, reference: dict | None,
                  rec: SpanRecorder) -> Outcome:
    """One explain pass traced into ``rec``; the SHAP layers' metrics.

    The span wrappers cost microseconds against calls of tens of
    milliseconds and up, so the pass's own timings stand for untraced ones.
    """
    out = Outcome()
    with patched(rec, _explain_hooks()):
        _explain_pass(cfg, state, out, rec, reference, "explain")
    per_hotspot, rows_per_s = explain_figures(out)
    singles = rec.counts["ml.shap.single_rows"]
    batch_rows = len(state.targets) * cfg.hotspots
    bulk_rows = sum(t.dataset.num_samples for t in state.targets)
    trees = [tree for t in state.targets for tree in t.forest.trees]
    out.layers = {
        "explain_s_per_hotspot": per_hotspot,
        "shap_rows_per_s": rows_per_s,
        "ml.forest.leaves": float(sum(tree.n_leaves for tree in trees)),
        "ml.forest.max_depth": float(max(tree.max_depth() for tree in trees)),
        "ml.forest.proba_s": rec.self_s("ml.forest.proba"),
        "ml.shap.build_s": rec.self_s("ml.shap.build"),
        "ml.shap.single_ms_per_row": 1e3 * rec.self_s("ml.shap.single") / singles,
        "ml.shap.batch_ms_per_row": 1e3 * rec.self_s("ml.shap.batch") / batch_rows,
        "ml.shap.bulk_ms_per_row": 1e3 * rec.self_s("ml.shap.bulk") / bulk_rows,
        "ml.shap.local_accuracy_max_err": out.extra["local_accuracy_max_err"],
        "route.congestion.render_s": rec.self_s("route.congestion.render"),
        "analysis.shap_summary.summarize_s": rec.self_s("analysis.shap_summary.summarize"),
    }
    return out


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Config], Any]
    measure: Callable[[Config, Any, Path, bool, dict | None], Outcome]
    #: whether the seed changes the workload's outputs (reference only at seed 0)
    seeded: bool = True
    #: whether set-up is start-up alone, so ``setup_s`` is the median of
    #: ``STARTUP_SAMPLES`` fresh interpreters rather than this process's one
    startup_only: bool = False


WORKLOADS: dict[str, Workload] = {
    "suite-j2": Workload(setup_suite_j2, measure_suite_j2, seeded=False, startup_only=True),
    "table2": Workload(setup_table2, measure_table2),
}
