"""Feature scaling.

The paper feeds "387 normalized features" to every model.  Tree ensembles
are scale-invariant, but the SVM (RBF distances) and the NNs (gradient
conditioning) need it badly, so the experiment pipeline normalises once and
feeds every model the same matrix — exactly as the paper describes.
"""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Zero-mean, unit-variance scaling; constant features map to 0."""

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler not fitted")
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, Xs: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler not fitted")
        return np.asarray(Xs, dtype=np.float64) * self.scale_ + self.mean_

