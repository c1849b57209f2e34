"""The model zoo of Table II and its hyper-parameter grids.

Five models, exactly the paper's comparison set:

* ``SVM-RBF`` — kernel SVM, the model of [2], [3], [5];
* ``RUSBoost`` — undersampling boosting of [4];
* ``NN-1`` — one hidden layer of 40 (architecture of [6], width per the
  paper's cross-validation);
* ``NN-2`` — hidden layers (40, 10);
* ``RF`` — the paper's proposal (500 unpruned trees in the paper).

Two presets control cost: ``full`` mirrors the paper's settings; ``fast``
shrinks ensembles/epochs/SVM-subsample so the whole Table II regenerates in
minutes.  The grids are deliberately small — the paper reports "extensive"
search, but on the scaled-down dataset broad grids only add runtime, not
ordering changes (the ablation bench sweeps wider ranges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from ..ml.boosting import RUSBoostClassifier
from ..ml.forest import RandomForestClassifier
from ..ml.nn import MLPClassifier
from ..ml.svm import SVMClassifier


@dataclass(frozen=True)
class ModelSpec:
    """One Table II column: how to build and tune a model.

    ``factory`` must be picklable (a module-level callable or a
    ``functools.partial`` over one): specs cross the process boundary when
    (model, group) units run on the runner's worker processes (``jobs > 1``).

    ``blas_threads`` is the unit's BLAS thread budget, so Table II's CPU
    rows count the threads that buy wall time and no idle helpers.  The
    zoo gives the NNs and the tree models 1: the NNs' products are too
    small for a second thread to pay, and the trees do almost no BLAS
    work.  The SVM keeps ``None``, the count the unit starts with (the
    process default when serial, 1 in a pool worker), because its kernel
    rows do gain from a second thread.
    """

    name: str
    factory: Callable[..., Any]
    param_grid: dict[str, list[Any]] = field(default_factory=dict)
    #: whether inputs must be standardised (SVM, NNs)
    needs_scaling: bool = False
    #: whether the estimator trains on binned codes: the experiment driver
    #: then quantises each training split exactly once and hands it to grid
    #: search (fold row slices) and the final refit via ``fit(..., binned=)``
    supports_binned: bool = False
    #: OpenBLAS threads for the whole (model, group) unit, applied with
    #: :func:`repro.runtime.blas.thread_budget` (lowers, never raises);
    #: ``None`` keeps the count the unit starts with
    blas_threads: int | None = None


# Module-level builders bound with functools.partial rather than closures:
# closures cannot be pickled, and model specs ride to worker processes.


def _make_svm(C: float = 10.0, *, svm_cap: int, svm_iter: int,
              random_state: int, **kw) -> SVMClassifier:
    return SVMClassifier(
        C=C,
        gamma="scale",
        max_train_samples=svm_cap,
        max_iter=svm_iter,
        random_state=random_state,
        **kw,
    )


def _make_rus(max_depth: int = 8, *, rus_rounds: int,
              random_state: int, **kw) -> RUSBoostClassifier:
    return RUSBoostClassifier(
        n_estimators=rus_rounds,
        max_depth=max_depth,
        random_state=random_state,
        **kw,
    )


def _make_nn(learning_rate: float = 1e-3, *, hidden_layers: tuple[int, ...],
             nn_epochs: int, random_state: int, **kw) -> MLPClassifier:
    return MLPClassifier(
        hidden_layers=hidden_layers,
        epochs=nn_epochs,
        learning_rate=learning_rate,
        random_state=random_state,
        **kw,
    )


def _make_rf(min_samples_leaf: int = 1, *, rf_trees: int, full: bool,
             random_state: int, **kw) -> RandomForestClassifier:
    return RandomForestClassifier(
        n_estimators=rf_trees,
        min_samples_leaf=min_samples_leaf,
        max_samples=None if full else 0.7,
        random_state=random_state,
        **kw,
    )


def model_zoo(preset: str = "fast", random_state: int = 0) -> list[ModelSpec]:
    """The five Table II models under the given cost preset."""
    if preset not in ("fast", "full"):
        raise ValueError(f"unknown preset {preset!r}")
    full = preset == "full"

    rf_trees = 500 if full else 120
    rus_rounds = 100 if full else 40
    nn_epochs = 60 if full else 25
    svm_cap = 6000 if full else 2500
    svm_iter = 300_000 if full else 60_000

    return [
        ModelSpec(
            "SVM-RBF",
            partial(_make_svm, svm_cap=svm_cap, svm_iter=svm_iter,
                    random_state=random_state),
            param_grid={"C": [1.0, 10.0]},
            needs_scaling=True,
        ),
        ModelSpec(
            "RUSBoost",
            partial(_make_rus, rus_rounds=rus_rounds, random_state=random_state),
            param_grid={"max_depth": [6, 10]} if full else {},
            supports_binned=True,
            blas_threads=1,
        ),
        ModelSpec(
            "NN-1",
            partial(_make_nn, hidden_layers=(40,), nn_epochs=nn_epochs,
                    random_state=random_state),
            needs_scaling=True,
            blas_threads=1,
        ),
        ModelSpec(
            "NN-2",
            partial(_make_nn, hidden_layers=(40, 10), nn_epochs=nn_epochs,
                    random_state=random_state),
            needs_scaling=True,
            blas_threads=1,
        ),
        ModelSpec(
            "RF",
            partial(_make_rf, rf_trees=rf_trees, full=full,
                    random_state=random_state),
            param_grid={"min_samples_leaf": [1, 4]} if full else {},
            supports_binned=True,
            blas_threads=1,
        ),
    ]


def rf_spec(preset: str = "fast", random_state: int = 0) -> ModelSpec:
    """Just the RF column (used by the explanation workflow)."""
    return next(m for m in model_zoo(preset, random_state) if m.name == "RF")
