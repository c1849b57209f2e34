"""The paper's experiment protocol: leave-one-group-out over the suite.

For every one of the 5 groups (Table I):

1. the group's designs form the **test set** — none of their samples are
   visible during training or tuning;
2. hyper-parameters (if a model has a grid) are chosen by 4-fold grouped CV
   over the remaining 4 groups, scored by A_prc;
3. the model is refitted on all 4 training groups;
4. each test design is scored individually (TPR*, Prec*, A_prc at
   FPR* = 0.5 %); designs with zero hotspots are skipped, like the paper's
   footnote 3.

Designs carrying the ad-hoc sentinel group (< 0, see
:data:`repro.core.pipeline.ADHOC_GROUP`) never form a test fold and are kept
out of training stacks, so stray designs cannot leak into the protocol.

Each (model, group) pair is one *unit* of the fault-tolerant runtime, and
every pending unit of a run is submitted to the runner as one batch (model
by model, groups in sorted order).  A unit is validated (NaN/Inf/shape
guards) before fit and predict, a failed unit is recorded and skipped (or
raises under fail-fast), and — when a ``checkpoint_dir`` is given — each
unit's scores are checkpointed so an interrupted grid resumes where it
stopped.  Its ``experiment_unit`` span
reaches the run's trace through the runner, which collects and adopts each
unit's telemetry.  The whole unit runs under its spec's BLAS thread budget
(:attr:`ModelSpec.blas_threads`: one thread for the NNs and tree models).
Every unit checkpoint embeds a SHA-256 fingerprint of the suite contents and
the protocol knobs (:func:`suite_fingerprint`), so checkpoints produced
against a different suite — e.g. one degraded by a failed design flow — are
rejected and recomputed on resume instead of silently reused.

The result object carries everything Table II reports: per-design metric
rows, per-model averages and winning-design counts, #parameters,
#prediction operations, and training/prediction CPU time.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..features.dataset import SuiteDataset
from ..ml.binning import BinnedDataset
from ..ml.complexity import complexity_of
from ..ml.metrics import EvaluationResult, evaluate_scores
from ..ml.model_selection import grid_search, positive_scores
from ..ml.scaling import StandardScaler
from ..runtime import blas
from ..runtime.checkpoint import CheckpointStore
from ..runtime.errors import CacheCorruptionError
from ..runtime.runner import FaultTolerantRunner
from ..runtime.telemetry import get_tracer
from ..runtime.validation import validate_features
from .models import ModelSpec


#: Table II's metric columns, in table order.
TABLE2_METRICS = ("tpr_star", "prec_star", "a_prc")


#: A Table II score at most this far below the best still counts as a win.
WIN_TOLERANCE = 1e-12


def winners(values: dict[str, float]) -> set[str]:
    """Table II's win rule: every key within :data:`WIN_TOLERANCE` of the
    best value wins, so a tie counts as a win for every tied model."""
    if not values:
        return set()
    best = max(values.values())
    return {k for k, v in values.items() if v >= best - WIN_TOLERANCE}


@dataclass
class DesignScore:
    """One (model, design) cell block of Table II."""

    design: str
    model: str
    metrics: EvaluationResult


@dataclass
class ModelRunStats:
    """Per-model cost numbers of Table II's bottom rows."""

    model: str
    num_parameters: float = 0.0  # averaged over the 5 group models
    prediction_ops: float = 0.0
    train_minutes: float = 0.0  # per model (average over groups)
    predict_minutes_per_design: float = 0.0
    best_params_per_group: dict[int, dict[str, Any]] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Everything needed to print Table II."""

    scores: list[DesignScore]
    run_stats: list[ModelRunStats]
    design_order: list[str]
    model_order: list[str]
    target_fpr: float

    def score_of(self, design: str, model: str) -> EvaluationResult | None:
        """The first score of ``model`` on ``design``, or ``None``."""
        for s in self.scores:
            if s.design == design and s.model == model:
                return s.metrics
        return None

    # -- aggregates -----------------------------------------------------------------

    def averages(self, model: str) -> tuple[float, float, float]:
        """(mean TPR*, mean Prec*, mean A_prc) over scored designs."""
        rows = [s.metrics for s in self.scores if s.model == model]
        if not rows:
            return (0.0, 0.0, 0.0)
        return (
            float(np.mean([r.tpr_star for r in rows])),
            float(np.mean([r.prec_star for r in rows])),
            float(np.mean([r.a_prc for r in rows])),
        )

    def winning_designs(self, model: str) -> tuple[int, int, int]:
        """How many designs this model wins per metric (ties count for all)."""
        wins = [0, 0, 0]
        for design in self.design_order:
            per_model = {m: self.score_of(design, m) for m in self.model_order}
            if per_model.get(model) is None:
                continue
            for k, attr in enumerate(TABLE2_METRICS):
                if model in winners(
                    {m: getattr(r, attr) for m, r in per_model.items() if r is not None}
                ):
                    wins[k] += 1
        return tuple(wins)  # type: ignore[return-value]


@dataclass
class GroupUnitResult:
    """Output of one (model, group) unit — everything the aggregation needs."""

    group: int
    params: dict[str, Any]
    train_minutes: float
    predict_minutes: float
    num_parameters: float
    prediction_ops: float
    n_pred_designs: int
    scores: list[DesignScore]

    def to_json(self) -> dict[str, Any]:
        return {
            "group": self.group,
            "params": self.params,
            "train_minutes": self.train_minutes,
            "predict_minutes": self.predict_minutes,
            "num_parameters": self.num_parameters,
            "prediction_ops": self.prediction_ops,
            "n_pred_designs": self.n_pred_designs,
            "scores": [
                {"design": s.design, "model": s.model, **_metrics_to_json(s.metrics)}
                for s in self.scores
            ],
        }

    @staticmethod
    def from_json(doc: dict[str, Any]) -> "GroupUnitResult":
        try:
            return GroupUnitResult(
                group=int(doc["group"]),
                params=dict(doc["params"]),
                train_minutes=float(doc["train_minutes"]),
                predict_minutes=float(doc["predict_minutes"]),
                num_parameters=float(doc["num_parameters"]),
                prediction_ops=float(doc["prediction_ops"]),
                n_pred_designs=int(doc["n_pred_designs"]),
                scores=[
                    DesignScore(
                        design=row["design"],
                        model=row["model"],
                        metrics=_metrics_from_json(row),
                    )
                    for row in doc["scores"]
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheCorruptionError("malformed experiment checkpoint") from exc


_METRIC_FIELDS = (
    "tpr_star", "prec_star", "a_prc", "a_roc", "num_samples", "num_positives",
)


def _metrics_to_json(m: EvaluationResult) -> dict[str, Any]:
    return {f: getattr(m, f) for f in _METRIC_FIELDS}


def _metrics_from_json(row: dict[str, Any]) -> EvaluationResult:
    return EvaluationResult(
        tpr_star=float(row["tpr_star"]),
        prec_star=float(row["prec_star"]),
        a_prc=float(row["a_prc"]),
        a_roc=float(row["a_roc"]),
        num_samples=int(row["num_samples"]),
        num_positives=int(row["num_positives"]),
    )


def suite_fingerprint(
    suite: SuiteDataset, target_fpr: float, tune: bool
) -> str:
    """SHA-256 over the suite's exact contents plus the protocol knobs.

    Embedded in every (model, group) checkpoint and checked on resume: a
    checkpoint trained on a *different* suite — fewer designs because a flow
    failed that run, different features, different ``target_fpr``/``tune`` —
    fingerprints differently and is recomputed instead of silently reused.
    """
    h = hashlib.sha256()
    h.update(f"target_fpr={target_fpr!r};tune={bool(tune)}".encode())
    for d in suite.designs:
        h.update(f"|{d.name};g{d.group};{d.grid_nx}x{d.grid_ny};".encode())
        h.update(np.ascontiguousarray(d.X).tobytes())
        h.update(np.ascontiguousarray(d.y, dtype=np.int8).tobytes())
    return h.hexdigest()


def _fit_and_score_group(
    suite: SuiteDataset,
    spec: ModelSpec,
    g: int,
    target_fpr: float,
    tune: bool,
    verbose: bool,
) -> GroupUnitResult | None:
    """Train/tune on everything but group ``g`` and score its designs.

    Returns ``None`` when the training stack holds no positives (the unit is
    skipped, not failed).  The whole unit is one ``experiment_unit`` span,
    and all of it (scaling, grid search, final fit, complexity report,
    scoring) runs under the spec's BLAS thread budget; the span's
    ``blas_threads`` attribute is the count the unit ran with.
    """
    tracer = get_tracer()
    with (
        tracer.span("experiment_unit", model=spec.name, group=g) as span,
        blas.thread_budget(spec.blas_threads) as threads,
    ):
        span.set(blas_threads=threads)
        adhoc = tuple({d.group for d in suite.designs if d.group < 0})
        X_train, y_train, train_groups = suite.stacked(exclude_groups=(g, *adhoc))
        test_designs = [d for d in suite.designs if d.group == g]
        if y_train.sum() == 0:
            return None
        validate_features(X_train, y_train, name=f"{spec.name}/train-g{g}")

        scaler: StandardScaler | None = None
        if spec.needs_scaling:
            scaler = StandardScaler().fit(X_train)
            X_fit = scaler.transform(X_train)
        else:
            X_fit = X_train

        params: dict[str, Any] = {}
        t0 = time.process_time()
        with tracer.span("train"):
            # one quantisation pass per experiment split: every grid-search
            # fold row-slices this dataset and the final refit reuses it, so
            # ml.binning.fits stays at one per (binned model, group)
            binned = BinnedDataset.from_matrix(X_fit) if spec.supports_binned else None
            if tune and spec.param_grid:
                search = grid_search(spec.factory, spec.param_grid, X_fit, y_train,
                                     train_groups, binned=binned)
                params = search.best_params
            model = spec.factory(**params)
            if binned is not None:
                model.fit(X_fit, y_train, binned=binned)
            else:
                model.fit(X_fit, y_train)
        train_minutes = (time.process_time() - t0) / 60.0

        # complexity on this group's model (averaged at the end);
        # custom estimators without a complexity model count as zero
        num_parameters = prediction_ops = 0.0
        X_ref = X_fit[: min(len(X_fit), 2048)]
        try:
            report = complexity_of(model, X_ref, spec.name)
        except TypeError:
            report = None
        if report is not None:
            num_parameters = report.num_parameters
            prediction_ops = report.prediction_ops_per_sample

        scores: list[DesignScore] = []
        predict_minutes = 0.0
        n_pred_designs = 0
        for d in test_designs:
            if d.num_hotspots == 0 or d.num_hotspots == d.num_samples:
                continue  # metrics undefined (paper footnote 3)
            validate_features(d.X, d.y, name=f"{spec.name}/test-{d.name}")
            X_test = scaler.transform(d.X) if scaler is not None else d.X
            t0 = time.process_time()
            with tracer.span("score", design=d.name):
                s = positive_scores(model, X_test)
            predict_minutes += (time.process_time() - t0) / 60.0
            tracer.counter("experiment.designs_scored")
            n_pred_designs += 1
            scores.append(
                DesignScore(
                    design=d.name,
                    model=spec.name,
                    metrics=evaluate_scores(d.y, s, target_fpr),
                )
            )
            if verbose:
                m = scores[-1].metrics
                print(
                    f"  {spec.name:<9s} {d.name:<12s} TPR*={m.tpr_star:.4f} "
                    f"Prec*={m.prec_star:.4f} A_prc={m.a_prc:.4f}",
                    flush=True,
                )

        return GroupUnitResult(
            group=g,
            params=params,
            train_minutes=train_minutes,
            predict_minutes=predict_minutes,
            num_parameters=num_parameters,
            prediction_ops=prediction_ops,
            n_pred_designs=n_pred_designs,
            scores=scores,
        )


def run_experiment(
    suite: SuiteDataset,
    models: list[ModelSpec],
    target_fpr: float = 0.005,
    tune: bool = True,
    verbose: bool = False,
    *,
    runner: FaultTolerantRunner | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = True,
) -> ExperimentResult:
    """Run the full leave-one-group-out protocol for every model.

    Every (model, group) pair runs as one fault-tolerant unit under
    ``runner`` (default: fail-fast, serial; a ``jobs > 1`` runner fans the
    units out across worker processes).  All pending units go to the runner
    in one batch, model by model with groups in sorted order, so a pool
    stays busy across model boundaries.  With a non-fail-fast runner a
    failing unit is recorded in ``runner.failures`` and its group is skipped
    for that model, degrading Table II instead of aborting it.  With a
    ``checkpoint_dir``, finished units are checkpointed — always from the
    parent process — and a re-invocation resumes from them, but only when
    the stored suite fingerprint matches the suite being run, so units
    trained on a degraded or otherwise different suite are recomputed rather
    than reused.

    Per-unit CPU times (``train_minutes``, ``predict_minutes``) are measured
    with ``time.process_time()`` *inside* the unit body and shipped back in
    the :class:`GroupUnitResult`: a worker's CPU time is invisible to the
    parent's process clock, so measuring in the parent would report ~0 for
    parallel runs.  Each unit runs under its spec's ``blas_threads``
    budget, so those CPU times hold no idle BLAS helper threads.
    Aggregation iterates groups in sorted order, so a parallel run's
    Table II is identical to a serial one.

    A graceful-shutdown signal propagates out of ``runner.run_units`` as
    :class:`~repro.runtime.errors.ShutdownRequested` *between* units: every
    unit that completed before the signal has already been checkpointed by
    the parent-side ``on_result`` callback, so re-running with ``resume=True``
    recomputes only the units the signal cut off.
    """
    tracer = get_tracer()
    # zero-register so every manifest reports the grid's counters, even for
    # a fully resumed (all-checkpoint) run
    for key in ("experiment.designs_scored", "checkpoint.resume_skips"):
        tracer.counter(key, 0)
    if runner is None:
        runner = FaultTolerantRunner(fail_fast=True, verbose=verbose)
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
    fingerprint = (
        suite_fingerprint(suite, target_fpr, tune) if store is not None else None
    )

    # ad-hoc sentinel groups (< 0) never form a test fold
    groups_present = sorted({d.group for d in suite.designs if d.group >= 0})
    units = [(spec, g, f"{spec.name}__g{g}") for spec in models for g in groups_present]

    def _load_unit(key: str) -> GroupUnitResult:
        doc = store.load_json(key)
        if not isinstance(doc, dict) or doc.get("suite_fingerprint") != fingerprint:
            raise CacheCorruptionError(
                f"{key}: checkpoint was produced against a "
                "different suite or protocol (stale fingerprint)"
            )
        return GroupUnitResult.from_json(doc.get("unit", {}))

    results: dict[str, GroupUnitResult] = {}  # by unit name, "<model>__g<group>"
    if store is not None and resume:
        restored = store.restore([f"{name}.json" for *_, name in units], _load_unit, verbose)
        results = {key.removesuffix(".json"): unit for key, unit in restored.items()}
    tracer.counter("checkpoint.resume_skips", len(results))
    pending = [
        (name, _fit_and_score_group, (suite, spec, g, target_fpr, tune, verbose), {})
        for spec, g, name in units
        if name not in results
    ]

    def _unit_done(name: str, outcome) -> None:
        # parent-side: checkpoint writes never happen in a worker
        if not outcome.ok:
            return  # recorded in runner.failures; degrade Table II
        unit: GroupUnitResult | None = outcome.value
        if unit is None:
            return  # no positives in the training stack
        results[name] = unit
        if store is not None:
            store.save_json(
                f"{name}.json",
                {"suite_fingerprint": fingerprint, "unit": unit.to_json()},
            )

    runner.run_units("experiment", pending, on_result=_unit_done)

    scores: list[DesignScore] = []
    run_stats: list[ModelRunStats] = []
    for spec in models:
        stats = ModelRunStats(model=spec.name)
        n_models = 0
        n_pred_designs = 0
        for g in groups_present:  # sorted: aggregation order is deterministic
            unit = results.get(f"{spec.name}__g{g}")
            if unit is None:
                continue
            stats.train_minutes += unit.train_minutes
            stats.predict_minutes_per_design += unit.predict_minutes
            stats.best_params_per_group[g] = unit.params
            stats.num_parameters += unit.num_parameters
            stats.prediction_ops += unit.prediction_ops
            n_models += 1
            n_pred_designs += unit.n_pred_designs
            scores.extend(unit.scores)

        if n_models:
            stats.num_parameters /= n_models
            stats.prediction_ops /= n_models
            stats.train_minutes /= n_models
        if n_pred_designs:
            stats.predict_minutes_per_design /= n_pred_designs
        run_stats.append(stats)

    return ExperimentResult(
        scores=scores,
        run_stats=run_stats,
        design_order=[
            d.name
            for d in suite.designs
            if d.group >= 0 and 0 < d.num_hotspots < d.num_samples
        ],
        model_order=[m.name for m in models],
        target_fpr=target_fpr,
    )
