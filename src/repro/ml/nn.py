"""Feedforward neural networks (the paper's NN-1 and NN-2 baselines).

A plain numpy MLP for binary classification: ReLU hidden layers, sigmoid
output, weighted binary cross-entropy loss, Adam optimiser, mini-batches.
NN-1 of the paper is one hidden layer of 40 units ([6]'s architecture with
the paper's cross-validated width); NN-2 adds a second layer of 10.

Class imbalance is handled by weighting each class's samples in the loss
by ``n / (2 n_class)`` (scikit-learn's ``class_weight="balanced"``),
mirroring common Keras practice.  Mini-batches of :data:`BATCH_SIZE`,
L2 penalty :data:`L2`, and early stopping on a random
:data:`VALIDATION_FRACTION` of the rows are fixed.
"""

from __future__ import annotations

import numpy as np

#: rows per Adam step
BATCH_SIZE = 128
#: L2 penalty on the weights (not the biases)
L2 = 1e-5
#: share of the rows held out to score early stopping
VALIDATION_FRACTION = 0.1


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class MLPClassifier:
    """Multi-layer perceptron with Adam, for binary classification."""

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (40,),
        learning_rate: float = 1e-3,
        epochs: int = 40,
        early_stopping_patience: int | None = 5,
        random_state: int | None = None,
    ):
        if not hidden_layers:
            raise ValueError("need at least one hidden layer")
        self.hidden_layers = tuple(int(h) for h in hidden_layers)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.early_stopping_patience = early_stopping_patience
        self.random_state = random_state
        self.weights_: list[np.ndarray] = []
        self.biases_: list[np.ndarray] = []
        self.loss_curve_: list[float] = []

    # -- core math -----------------------------------------------------------------

    def _forward(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (output probabilities, hidden activations per layer)."""
        acts: list[np.ndarray] = []
        a = X
        for W, b in zip(self.weights_[:-1], self.biases_[:-1]):
            a = _relu(a @ W + b)
            acts.append(a)
        logits = a @ self.weights_[-1] + self.biases_[-1]
        return _sigmoid(logits).ravel(), acts

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).astype(np.float64).ravel()
        n, d = X.shape
        rng = np.random.default_rng(self.random_state)

        # He initialisation
        sizes = [d, *self.hidden_layers, 1]
        self.weights_ = [
            rng.normal(scale=np.sqrt(2.0 / sizes[i]), size=(sizes[i], sizes[i + 1]))
            for i in range(len(sizes) - 1)
        ]
        self.biases_ = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

        # per-sample loss weights, balanced over the two classes
        pos = max(y.sum(), 1.0)
        neg = max(n - y.sum(), 1.0)
        sw = np.where(y == 1, n / (2.0 * pos), n / (2.0 * neg))

        # validation split for early stopping (stratified-ish random)
        if self.early_stopping_patience is not None and n > 50:
            idx = rng.permutation(n)
            n_val = max(1, int(VALIDATION_FRACTION * n))
            val_idx, tr_idx = idx[:n_val], idx[n_val:]
        else:
            val_idx, tr_idx = np.empty(0, dtype=int), np.arange(n)

        m = [np.zeros_like(W) for W in self.weights_]
        v = [np.zeros_like(W) for W in self.weights_]
        mb = [np.zeros_like(b) for b in self.biases_]
        vb = [np.zeros_like(b) for b in self.biases_]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        best_val = np.inf
        best_params: tuple[list[np.ndarray], list[np.ndarray]] | None = None
        patience_left = self.early_stopping_patience or 0

        self.loss_curve_ = []
        for _ in range(self.epochs):
            order = rng.permutation(tr_idx)
            epoch_loss = 0.0
            for s in range(0, len(order), BATCH_SIZE):
                batch = order[s : s + BATCH_SIZE]
                Xb, yb, wb = X[batch], y[batch], sw[batch]
                loss = self._adam_step(
                    Xb, yb, wb, m, v, mb, vb, beta1, beta2, eps, step := step + 1
                )
                epoch_loss += loss * len(batch)
            self.loss_curve_.append(epoch_loss / max(len(order), 1))

            if len(val_idx):
                p_val, _ = self._forward(X[val_idx])
                p_val = np.clip(p_val, 1e-9, 1 - 1e-9)
                val_loss = float(
                    -np.mean(
                        sw[val_idx]
                        * (y[val_idx] * np.log(p_val) + (1 - y[val_idx]) * np.log(1 - p_val))
                    )
                )
                if val_loss < best_val - 1e-5:
                    best_val = val_loss
                    best_params = (
                        [W.copy() for W in self.weights_],
                        [b.copy() for b in self.biases_],
                    )
                    patience_left = self.early_stopping_patience or 0
                else:
                    patience_left -= 1
                    if patience_left <= 0:
                        break
        if best_params is not None:
            self.weights_, self.biases_ = best_params
        return self

    def _adam_step(
        self,
        Xb: np.ndarray,
        yb: np.ndarray,
        wb: np.ndarray,
        m: list[np.ndarray],
        v: list[np.ndarray],
        mb: list[np.ndarray],
        vb: list[np.ndarray],
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> float:
        """One Adam update on a mini-batch; returns the batch loss."""
        # forward with cached activations
        acts = [Xb]
        a = Xb
        for W, b in zip(self.weights_[:-1], self.biases_[:-1]):
            a = _relu(a @ W + b)
            acts.append(a)
        logits = (a @ self.weights_[-1] + self.biases_[-1]).ravel()
        p = _sigmoid(logits)
        p_c = np.clip(p, 1e-9, 1 - 1e-9)
        loss = float(-np.mean(wb * (yb * np.log(p_c) + (1 - yb) * np.log(1 - p_c))))

        # backward: dL/dlogit for weighted BCE with sigmoid
        delta = (wb * (p - yb) / len(yb))[:, None]
        grads_W: list[np.ndarray] = [None] * len(self.weights_)  # type: ignore[list-item]
        grads_b: list[np.ndarray] = [None] * len(self.biases_)  # type: ignore[list-item]
        for layer in range(len(self.weights_) - 1, -1, -1):
            grads_W[layer] = acts[layer].T @ delta + L2 * self.weights_[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights_[layer].T) * (acts[layer] > 0)

        lr_t = self.learning_rate * np.sqrt(1 - beta2**step) / (1 - beta1**step)
        for layer in range(len(self.weights_)):
            m[layer] = beta1 * m[layer] + (1 - beta1) * grads_W[layer]
            v[layer] = beta2 * v[layer] + (1 - beta2) * grads_W[layer] ** 2
            self.weights_[layer] -= lr_t * m[layer] / (np.sqrt(v[layer]) + eps)
            mb[layer] = beta1 * mb[layer] + (1 - beta1) * grads_b[layer]
            vb[layer] = beta2 * vb[layer] + (1 - beta2) * grads_b[layer] ** 2
            self.biases_[layer] -= lr_t * mb[layer] / (np.sqrt(vb[layer]) + eps)
        return loss

    # -- inference ----------------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.weights_:
            raise RuntimeError("MLP not fitted")
        p1, _ = self._forward(np.asarray(X, dtype=np.float64))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int8)

    def num_parameters(self) -> int:
        if not self.weights_:
            raise RuntimeError("MLP not fitted")
        return int(
            sum(W.size for W in self.weights_) + sum(b.size for b in self.biases_)
        )
