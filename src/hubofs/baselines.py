"""The PCA baseline and a deterministic downstream evaluator.

The evaluator is L2-regularized logistic regression fitted to its optimum by Newton
(IRLS) steps from zero weights (Hastie et al., *Elements of Statistical Learning*,
2nd ed., 4.4.1): no RNG, so every run gives the same weights. Metrics are accuracy at
the 0.5 cutoff, F1 of the positive class (0/0 := 0), and Mann-Whitney ROC-AUC with
tied scores counting one half. Rows ``X`` may come in any layout (``X[:, cols]`` is
Fortran-ordered): as a product's bits follow its operands' layout, each is taken over
C-ordered rows, copied here if need be, so results depend on the values only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_tagged
from .errors import DataError, UsageError

COMPARISON_SCHEMA = "hubofs-comparison/2"

DEFAULT_L2 = 1e-3  # the fit's ridge; > 0 keeps its Hessian positive definite
NEWTON_TOLERANCE = 1e-10  # a fit ends once no weight moves by more than this
NEWTON_MAX_STEPS = 50


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
        return _sigmoid(np.ascontiguousarray(features) @ self.weights + self.bias)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic of each score, evaluated stably on both signs."""
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere: never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def pca_fit(X: np.ndarray, var_threshold: float) -> PcaModel:
    """Eigendecomposition of the sample covariance with a fixed sign rule.

    Keeps the smallest leading set of components whose cumulative explained
    variance ratio reaches ``var_threshold``. Each component is flipped so
    its largest-magnitude entry (first one on ties) is positive.
    """
    if not 0.0 < var_threshold <= 1.0:
        raise UsageError(f"var_threshold must be in (0, 1], got {var_threshold}")
    if X.shape[0] < 2:
        raise DataError("PCA needs at least 2 samples")
    X = np.ascontiguousarray(X)
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
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


def pca_transform(m: PcaModel, X: np.ndarray) -> np.ndarray:
    """Centered projection of the rows of ``X`` onto the kept components."""
    if X.shape[1] != m.mean.shape[0]:
        raise UsageError(f"data has {X.shape[1]} features, PCA model expects {m.mean.shape[0]}")
    return (np.ascontiguousarray(X) - m.mean) @ m.components[: m.kept_components].T


def logistic_fit(X: np.ndarray, y: np.ndarray) -> LogisticModel:
    """The minimizer of the mean cross-entropy plus ``(DEFAULT_L2 / 2) * ||w||^2`` (the
    bias unregularized) by Newton steps on ``[X - mean | 1]`` from zero, until
    ``max|step| <= NEWTON_TOLERANCE``.

    Centred columns keep the bias column from being swamped by a column's offset (raw
    values near 1e8 made the Hessian singular in floating point); the bias is mapped back."""
    if np.unique(y, return_counts=True)[0].shape[0] < 2:  # plain np.unique imports numpy.ma
        raise DataError("logistic regression needs both classes in the training data")
    n, d = X.shape
    design = np.ones((n, d + 1))
    design[:, :d] = X
    mean = design[:, :d].mean(axis=0)
    design[:, :d] -= mean
    ridge = np.append(np.full(d, DEFAULT_L2), 0.0)  # the bias is not regularized
    theta = np.zeros(d + 1)
    scaled = np.empty_like(design)
    for _ in range(NEWTON_MAX_STEPS):
        probs = _sigmoid(design @ theta)
        grad = design.T @ (probs - y) / n + ridge * theta
        np.multiply(design, np.sqrt(probs * (1.0 - probs) / n)[:, None], out=scaled)
        hessian = scaled.T @ scaled + np.diag(ridge)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as exc:  # e.g. columns on wildly different scales
            raise DataError("singular Hessian in the logistic fit; z-score the features") from exc
        theta -= step
        if np.max(np.abs(step)) <= NEWTON_TOLERANCE:
            break
    weights = theta[:d].copy()
    return LogisticModel(weights=weights, bias=float(theta[d] - mean @ weights))


def roc_auc(target: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with midranks; ties contribute one half."""
    y = np.asarray(target)
    s = np.asarray(scores, dtype=np.float64)
    n1 = int((y == 1).sum())
    n0 = y.shape[0] - n1
    if n1 == 0 or n0 == 0:
        return 0.5
    order = np.argsort(s, kind="stable")
    ranked = s[order]
    # A run of equal scores starts wherever the sorted score changes. `!=` keeps tied
    # infinities together, where a difference (inf - inf = NaN) would split them.
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    ends = np.append(starts[1:], ranked.shape[0])
    ranks = np.empty(y.shape[0], dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def evaluate(model: LogisticModel, X: np.ndarray, y: np.ndarray, method_name: str) -> EvalReport:
    """Accuracy / F1 / AUC of predicted probabilities on test rows ``X`` with labels ``y``."""
    if X.shape[0] == 0:
        raise DataError("cannot evaluate on an empty test set")
    probs = model.predict_proba(X)
    pred = (probs >= 0.5).astype(np.int64)
    accuracy = float((pred == y).mean())
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    f1 = 0.0 if 2 * tp + fp + fn == 0 else 2.0 * tp / (2 * tp + fp + fn)
    return EvalReport(
        method_name=method_name,
        n_features_or_components=X.shape[1],
        accuracy=accuracy,
        f1=f1,
        auc=roc_auc(y, probs),
    )


def write_comparison_csv(path, reports) -> None:
    rows = (
        [r.method_name, r.n_features_or_components]
        + [f"{v:.12g}" for v in (r.accuracy, r.f1, r.auc)]
        for r in reports
    )
    write_tagged(path, COMPARISON_SCHEMA, [], ("method", "n", "accuracy", "f1", "auc"), rows)
