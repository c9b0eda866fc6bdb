"""Classical reference selectors and a deterministic downstream evaluator.

The evaluator is full-batch gradient-descent logistic regression from a zero
start with a fixed iteration count: no RNG, no early stopping, so every
language and run produces the same weights. Metrics are accuracy at the 0.5
cutoff, F1 of the positive class (0/0 := 0), and Mann-Whitney ROC-AUC with
tied scores counting one half.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError, UsageError
from .hubo import preselect_top_k

COMPARISON_SCHEMA = "hubofs-comparison/1"

DEFAULT_L2 = 1e-3
DEFAULT_ITERATIONS = 500
DEFAULT_LEARNING_RATE = 0.1


@dataclass(frozen=True)
class EvalReport:
    method_name: str
    n_features_or_components: int
    accuracy: float
    f1: float
    auc: float

    def __post_init__(self):
        for metric in (self.accuracy, self.f1, self.auc):
            if not 0.0 <= metric <= 1.0:
                raise DataError(f"metric out of [0,1]: {metric}")


@dataclass(frozen=True)
class PcaModel:
    """Principal directions (rows, orthonormal, descending variance)."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratios: np.ndarray
    kept_components: int

    def __post_init__(self):
        self.mean.setflags(write=False)
        self.components.setflags(write=False)
        self.explained_variance_ratios.setflags(write=False)


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights.setflags(write=False)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(features @ self.weights + self.bias)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic of each score, evaluated stably on both signs."""
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere: never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def select_k_best(relevance, k: int) -> list[int]:
    """Top-k features by MI with the target; the univariate baseline."""
    return preselect_top_k(relevance, k)


def pca_fit(d: Dataset, var_threshold: float) -> PcaModel:
    """Eigendecomposition of the sample covariance with a fixed sign rule.

    Keeps the smallest leading set of components whose cumulative explained
    variance ratio reaches ``var_threshold``. Each component is flipped so
    its largest-magnitude entry (first one on ties) is positive.
    """
    if not 0.0 < var_threshold <= 1.0:
        raise UsageError(f"var_threshold must be in (0, 1], got {var_threshold}")
    if d.n_samples < 2:
        raise DataError("PCA needs at least 2 samples")
    mean = d.features.mean(axis=0)
    centered = d.features - mean
    cov = centered.T @ centered / (d.n_samples - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = np.maximum(eigvals[order], 0.0)
    total = float(eigvals.sum())
    if total == 0.0:
        raise DataError("degenerate all-zero data: no variance to decompose")
    components = eigvecs[:, order].T.copy()
    for row in components:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    ratios = eigvals / total
    cumulative = np.cumsum(ratios)
    kept = int(np.searchsorted(cumulative, var_threshold - 1e-12)) + 1
    kept = min(kept, ratios.shape[0])
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance_ratios=ratios,
        kept_components=kept,
    )


def pca_transform(m: PcaModel, d: Dataset) -> Dataset:
    """Centered projection onto the kept components; names PC1..PCm."""
    if d.n_features != m.mean.shape[0]:
        raise UsageError(
            f"dataset has {d.n_features} features, PCA model expects {m.mean.shape[0]}"
        )
    scores = (d.features - m.mean) @ m.components[: m.kept_components].T
    return Dataset(
        features=scores,
        target=d.target.copy(),
        feature_names=tuple(f"PC{i + 1}" for i in range(m.kept_components)),
        n_dropped_rows=d.n_dropped_rows,
    )


def logistic_loss(features: np.ndarray, target: np.ndarray, model: LogisticModel, l2: float) -> float:
    """Mean cross-entropy plus (l2/2)*||w||^2 (bias unregularized)."""
    z = features @ model.weights + model.bias
    sign = 2.0 * target - 1.0
    ce = float(np.mean(np.logaddexp(0.0, -sign * z)))
    return ce + 0.5 * l2 * float(model.weights @ model.weights)


def logistic_fit(
    train: Dataset,
    l2: float = DEFAULT_L2,
    iterations: int = DEFAULT_ITERATIONS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
) -> LogisticModel:
    """Full-batch gradient descent from zero weights, fixed iteration count."""
    if l2 < 0:
        raise UsageError(f"l2 must be >= 0, got {l2}")
    if iterations < 0:
        raise UsageError(f"iterations must be >= 0, got {iterations}")
    if learning_rate <= 0:
        raise UsageError(f"learning_rate must be > 0, got {learning_rate}")
    y = train.target.astype(np.float64)
    if np.unique(train.target).shape[0] < 2:
        raise DataError("logistic regression needs both classes in the training data")
    X = train.features
    n = train.n_samples
    w = np.zeros(train.n_features)
    b = 0.0
    for _ in range(iterations):
        residual = _sigmoid(X @ w + b) - y
        grad_w = X.T @ residual / n + l2 * w
        grad_b = float(residual.mean())
        w = w - learning_rate * grad_w
        b = b - learning_rate * grad_b
    return LogisticModel(weights=w, bias=b)


def roc_auc(target: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with midranks; ties contribute one half."""
    y = np.asarray(target)
    s = np.asarray(scores, dtype=np.float64)
    n1 = int((y == 1).sum())
    n0 = y.shape[0] - n1
    if n1 == 0 or n0 == 0:
        return 0.5
    order = np.argsort(s, kind="stable")
    ranks = np.empty(y.shape[0], dtype=np.float64)
    i = 0
    while i < y.shape[0]:
        j = i
        while j + 1 < y.shape[0] and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def evaluate(
    model: LogisticModel,
    test: Dataset,
    method_name: str = "logistic",
    n_features: int | None = None,
) -> EvalReport:
    """Accuracy / F1 / AUC of predicted probabilities on a test set."""
    if test.n_samples == 0:
        raise DataError("cannot evaluate on an empty test set")
    probs = model.predict_proba(test.features)
    pred = (probs >= 0.5).astype(np.int64)
    y = test.target
    accuracy = float((pred == y).mean())
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    f1 = 0.0 if 2 * tp + fp + fn == 0 else 2.0 * tp / (2 * tp + fp + fn)
    return EvalReport(
        method_name=method_name,
        n_features_or_components=test.n_features if n_features is None else n_features,
        accuracy=accuracy,
        f1=f1,
        auc=roc_auc(y, probs),
    )


def write_comparison_csv(path, reports) -> None:
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    writer.writerow(["method", "n", "accuracy", "f1", "auc"])
    for r in reports:
        writer.writerow(
            [
                r.method_name,
                r.n_features_or_components,
                f"{r.accuracy:.12g}",
                f"{r.f1:.12g}",
                f"{r.auc:.12g}",
            ]
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={COMPARISON_SCHEMA}\n" + body.getvalue())
