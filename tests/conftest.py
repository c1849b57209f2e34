"""Shared fixtures: a small flowed design and a tiny grouped suite.

The expensive fixtures are session-scoped: one small design goes through
the full flow once, and a three-design mini-suite (with two groups) backs
the experiment/explanation tests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.generator import DesignRecipe
from repro.core.pipeline import FlowResult, run_flow
from repro.features.dataset import DesignDataset, SuiteDataset


SMALL_RECIPE = DesignRecipe(
    name="testchip",
    grid_nx=12,
    grid_ny=12,
    utilization=0.66,
    num_macros=1,
    macro_area_frac=0.06,
    dense_net_boost=2.0,
    dense_cluster_frac=0.3,
    ndr_frac=0.05,
    seed=7,
)


@pytest.fixture(scope="session")
def small_flow() -> FlowResult:
    """One small design through the complete flow."""
    return run_flow(SMALL_RECIPE)


def _mini_recipe(name: str, seed: int, utilization: float) -> DesignRecipe:
    return DesignRecipe(
        name=name,
        grid_nx=10,
        grid_ny=10,
        utilization=utilization,
        dense_net_boost=2.0,
        dense_cluster_frac=0.3,
        seed=seed,
    )


@pytest.fixture(scope="session")
def mini_suite() -> SuiteDataset:
    """Three designs in two groups, with real flow-produced labels.

    Group assignment is overridden so leave-one-group-out is exercised with
    only two folds; labels are guaranteed non-trivial by the recipes.
    """
    specs = [
        ("mini_a", 11, 0.68, 0),
        ("mini_b", 12, 0.66, 0),
        ("mini_c", 13, 0.68, 1),
        ("mini_d", 15, 0.67, 1),
    ]
    designs = []
    for name, seed, util, group in specs:
        flow = run_flow(_mini_recipe(name, seed, util))
        d = flow.dataset
        designs.append(
            DesignDataset(
                name=d.name,
                group=group,
                X=d.X,
                y=d.y,
                grid_nx=d.grid_nx,
                grid_ny=d.grid_ny,
            )
        )
    suite = SuiteDataset(designs)
    # the experiment tests need positives in both groups
    assert sum(d.num_hotspots for d in designs[:2]) > 0
    assert sum(d.num_hotspots for d in designs[2:]) > 0
    return suite


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_separable(
    n: int = 600, n_features: int = 12, pos_rate: float = 0.25, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A noisy-but-learnable binary dataset used across estimator tests."""
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, n_features))
    logit = 1.8 * X[:, 0] - 1.2 * X[:, 1] + X[:, 2] * X[:, 3]
    noise = g.normal(scale=0.6, size=n)
    thr = np.quantile(logit + noise, 1.0 - pos_rate)
    y = (logit + noise > thr).astype(np.int8)
    return X, y


def svm_matrix(n, seed):
    """``n`` g-cell-like rows of the paper's 387 small-integer features
    (integer dot products are exact); the top 15 % of a noisy score are
    positive."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 12, size=(n, 387)).astype(np.float64)
    score = X[:, 0] + X[:, 5] - X[:, 9] + X[:, 17] + rng.integers(0, 8, size=n)
    y = (score >= np.quantile(score, 0.85)).astype(np.int8)
    return X, y


def svm_digest(m) -> str:
    """SHA-256 over every fitted output of an SVM."""
    h = hashlib.sha256()
    for a in (m.support_vectors_, m.dual_coef_, np.float64(m.intercept_),
              np.int64(m.n_iter_)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
