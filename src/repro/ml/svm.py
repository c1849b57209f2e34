"""C-SVC with RBF kernel, trained by SMO (Platt 1998 / LIBSVM WSS).

The strongest comparison model of the paper ([2], [3], [5] all use SVM-RBF
via scikit-learn/libsvm).  We solve the standard dual

    max  Σαᵢ − ½ ΣᵢΣⱼ αᵢαⱼ yᵢyⱼ K(xᵢ,xⱼ)    s.t.  0 ≤ αᵢ ≤ Cᵢ,  Σαᵢyᵢ = 0

with sequential minimal optimisation using maximal-violating-pair working
set selection (stopping at a violation below :data:`TOL`) and an LRU
kernel-row cache.  Per-class C weighting, always on and the same as
scikit-learn's ``class_weight="balanced"``, handles the heavy label
imbalance.

Exact kernel SVM training is O(n²)–O(n³); the paper reports it as by far
the most expensive model (65.7 min vs 8.9 min for RF).  We keep that cost
*shape* but bound absolute runtime with ``max_train_samples``: training is
capped to a class-stratified subsample (all positives, random negatives),
which is standard practice for SVMs on imbalanced data.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..runtime.telemetry import get_tracer

#: SMO stops once the maximal violating pair violates by less than this
#: (LIBSVM's and scikit-learn's default)
TOL = 1e-3


class KernelCache:
    """LRU cache of RBF kernel rows.  Rows do not depend on ``C``, so a CV
    fold's grid points share one; :meth:`bind` keeps rows only for equal
    (subsampled) ``X`` and ``gamma``."""

    def __init__(self) -> None:
        self.X: np.ndarray | None = None
        self.gamma: float | None = None
        self.rows_computed = 0
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def bind(self, X: np.ndarray, gamma: float, capacity: int) -> None:
        if gamma != self.gamma or not np.array_equal(self.X, X):
            self.X, self.gamma = X, gamma
            self.sq = np.einsum("ij,ij->i", X, X)
            self._rows.clear()
        self.capacity = capacity

    def row(self, i: int) -> np.ndarray:
        cached = self._rows.get(i)
        if cached is not None:
            self._rows.move_to_end(i)
            return cached
        d2 = self.sq + self.sq[i] - 2.0 * (self.X @ self.X[i])
        row = np.exp(-self.gamma * np.maximum(d2, 0.0))
        self.rows_computed += 1
        self._rows[i] = row
        while len(self._rows) > self.capacity:
            self._rows.popitem(last=False)
        return row


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Dense RBF kernel matrix K[i, j] = exp(-gamma ||A_i - B_j||²)."""
    a2 = np.einsum("ij,ij->i", A, A)[:, None]
    b2 = np.einsum("ij,ij->i", B, B)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)


class SVMClassifier:
    """RBF-kernel C-SVC trained with SMO.

    ``gamma="scale"`` follows sklearn: ``1 / (n_features · Var(X))``.
    """

    accepts_kernel_cache = True  # see grid_search

    def __init__(
        self,
        C: float = 1.0,
        gamma: float | str = "scale",
        max_iter: int = 200_000,
        max_train_samples: int | None = 4000,
        cache_rows: int = 1024,
        random_state: int | None = None,
    ):
        self.C = C
        self.gamma = gamma
        self.max_iter = max_iter
        self.max_train_samples = max_train_samples
        self.cache_rows = cache_rows
        self.random_state = random_state
        # fitted state
        self.support_vectors_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None  # alpha_i * y_i at SVs
        self.intercept_: float = 0.0
        self.gamma_: float | None = None
        self.n_iter_: int = 0
        self.fit_stats_: dict[str, int] = {}

    # -- fitting ---------------------------------------------------------------------

    def _subsample(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        cap = self.max_train_samples
        if cap is None or len(X) <= cap:
            return X, y
        pos = np.flatnonzero(y == 1)
        neg = np.flatnonzero(y == 0)
        n_neg = max(cap - len(pos), len(pos))  # keep at least 1:1
        if len(neg) > n_neg:
            neg = rng.choice(neg, size=n_neg, replace=False)
        keep = np.sort(np.concatenate([pos, neg]))
        return X[keep], y[keep]

    def fit(self, X: np.ndarray, y01: np.ndarray,
            kernel_cache: KernelCache | None = None) -> "SVMClassifier":
        X = np.asarray(X, dtype=np.float64)
        y01 = np.asarray(y01).astype(np.int8).ravel()
        if not np.isin(y01, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        rng = np.random.default_rng(self.random_state)
        X, y01 = self._subsample(X, y01, rng)
        n = len(X)
        y = np.where(y01 == 1, 1.0, -1.0)

        if self.gamma == "scale":
            var = X.var()
            self.gamma_ = 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        else:
            self.gamma_ = float(self.gamma)

        # per-sample box constraints, C scaled by n / (2 n_class)
        C_i = np.full(n, self.C)
        pos = max(int((y > 0).sum()), 1)
        neg = max(n - pos, 1)
        C_i[y > 0] *= n / (2.0 * pos)
        C_i[y < 0] *= n / (2.0 * neg)

        alpha = np.zeros(n)
        yg = y.copy()  # -y * grad; the dual gradient is -1 at alpha = 0
        up = np.where(y > 0, alpha < C_i, alpha > 0)  # LIBSVM's I_up, I_low
        low = np.where(y > 0, alpha > 0, alpha < C_i)
        cache = kernel_cache if kernel_cache is not None else KernelCache()
        cache.bind(X, self.gamma_, self.cache_rows)
        rows_before = cache.rows_computed

        it = 0
        while it < self.max_iter:
            it += 1
            # maximal violating pair (LIBSVM WSS1); when a working set is
            # empty, argmax/argmin land on a row outside it
            i = int(np.argmax(np.where(up, yg, -np.inf)))
            j = int(np.argmin(np.where(low, yg, np.inf)))
            if not (up[i] and low[j]) or yg[i] - yg[j] < TOL:
                break

            Ki = cache.row(i)
            Kj = cache.row(j)
            eta = Ki[i] + Kj[j] - 2.0 * Ki[j]
            eta = max(eta, 1e-12)
            # unconstrained step along the pair direction
            delta = (yg[i] - yg[j]) / eta
            # box clipping in alpha space
            ai_old, aj_old = alpha[i], alpha[j]
            yi, yj = y[i], y[j]
            # translate to step t on (alpha_i += yi*t, alpha_j -= yj*t)
            t = delta
            t = min(t, (C_i[i] - ai_old) if yi > 0 else ai_old)
            t = min(t, aj_old if yj > 0 else (C_i[j] - aj_old))
            if t <= 0:
                continue
            # step direction (alpha_i += y_i t, alpha_j -= y_j t) keeps
            # the equality constraint y.alpha = 0 satisfied
            alpha[i] = ai_old + (t if yi > 0 else -t)
            alpha[j] = aj_old - (t if yj > 0 else -t)
            # only alpha[i], alpha[j] moved: update yg and the masks there
            # (negating by y = ±1 is exact, so this is the full rebuild's bits)
            yg -= (yi * (alpha[i] - ai_old)) * Ki
            yg -= (yj * (alpha[j] - aj_old)) * Kj
            for k in (i, j):
                below_c, above_0 = alpha[k] < C_i[k], alpha[k] > 0
                up[k], low[k] = (below_c, above_0) if y[k] > 0 else (above_0, below_c)
        self.n_iter_ = it
        # once per fit, like ml.hist.*; kernel_rows counts rows computed
        self.fit_stats_ = {"ml.svm.iterations": it,
                           "ml.svm.kernel_rows": cache.rows_computed - rows_before}
        for name, v in self.fit_stats_.items():
            get_tracer().counter(name, v)

        sv = alpha > 1e-8
        self.support_vectors_ = X[sv]
        self.dual_coef_ = (alpha * y)[sv]
        # intercept from free support vectors (0 < alpha < C)
        free = sv & (alpha < C_i - 1e-8)
        if free.any():
            idx = np.flatnonzero(free)
            K_free = rbf_kernel(X[idx], self.support_vectors_, self.gamma_)
            b_vals = y[idx] - K_free @ self.dual_coef_
            self.intercept_ = float(b_vals.mean())
        else:
            self.intercept_ = float(-yg[alpha > 1e-8].mean()) if sv.any() else 0.0
        return self

    # -- prediction --------------------------------------------------------------------

    @property
    def n_support_(self) -> int:
        return 0 if self.support_vectors_ is None else len(self.support_vectors_)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.support_vectors_ is None or self.dual_coef_ is None:
            raise RuntimeError("SVM not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))
        # chunked to bound the kernel block size
        step = max(1, 2_000_000 // max(self.n_support_, 1))
        for s in range(0, len(X), step):
            block = rbf_kernel(X[s : s + step], self.support_vectors_, self.gamma_)
            out[s : s + step] = block @ self.dual_coef_ + self.intercept_
        return out

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Logistic squash of the margin (Platt scaling without refit)."""
        margin = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-margin))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int8)

    def num_parameters(self) -> int:
        """Stored parameters: every SV vector plus its dual coef, plus b."""
        if self.support_vectors_ is None:
            raise RuntimeError("SVM not fitted")
        return self.n_support_ * (self.support_vectors_.shape[1] + 1) + 1
