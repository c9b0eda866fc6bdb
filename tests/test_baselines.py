import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubofs.baselines import (
    DEFAULT_L2,
    LogisticModel,
    evaluate,
    logistic_fit,
    pca_fit,
    pca_transform,
    roc_auc,
    write_comparison_csv,
)
from hubofs.errors import DataError, UsageError


def arrays(features, target):
    return np.asarray(features, dtype=np.float64), np.asarray(target, dtype=np.int64)


def auc_by_pair_enumeration(y, scores):
    """O(n^2) oracle: wins + half-ties over positive-negative pairs."""
    pos = [s for s, label in zip(scores, y) if label == 1]
    neg = [s for s, label in zip(scores, y) if label == 0]
    if not pos or not neg:
        return 0.5
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestPca:
    def test_rank_one_data(self):
        rng = np.random.default_rng(1)
        latent = rng.normal(size=60)
        model = pca_fit(np.column_stack([latent, 2.0 * latent]), 0.95)
        assert model.kept_components == 1
        assert model.explained_variance_ratios[0] == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_keeps_both(self):
        # empirical covariance exactly identity on a symmetric 4-point design
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) * np.sqrt(1.5)
        model = pca_fit(feats, 0.95)
        assert model.kept_components == 2

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 5))
        model = pca_fit(X, 1.0)
        centered = X - model.mean
        reconstructed = (centered @ model.components.T) @ model.components
        assert np.allclose(reconstructed, centered, atol=1e-8)

    def test_components_orthonormal_ratios_sorted(self):
        rng = np.random.default_rng(3)
        model = pca_fit(rng.normal(size=(50, 6)) * rng.uniform(0.2, 3.0, 6), 0.9)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(6), atol=1e-9)
        ratios = model.explained_variance_ratios
        assert np.all(ratios >= 0)
        assert np.all(np.diff(ratios) <= 1e-12)
        assert ratios.sum() <= 1 + 1e-9
        assert ratios[: model.kept_components].sum() >= 0.9 - 1e-9

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        model = pca_fit(rng.normal(size=(30, 3)), 0.95)
        for row in model.components:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_degenerate_rejected(self):
        with pytest.raises(DataError):
            pca_fit(np.zeros((10, 3)), 0.95)


class TestPcaTransform:
    def test_mean_row_maps_to_zero(self):
        rng = np.random.default_rng(5)
        model = pca_fit(rng.normal(size=(30, 4)), 0.95)
        out = pca_transform(model, model.mean.reshape(1, -1))
        assert out.shape == (1, model.kept_components)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_recovers_shared_latent(self):
        rng = np.random.default_rng(6)
        latent = rng.normal(size=80)
        X = np.column_stack([latent, -3.0 * latent])
        model = pca_fit(X, 0.95)
        scores = pca_transform(model, X)[:, 0]
        corr = np.corrcoef(scores, latent)[0, 1]
        assert abs(corr) >= 0.999

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 4))
        model = pca_fit(X, 1.0)
        back = pca_transform(model, X) @ model.components + model.mean
        assert np.allclose(back, X, atol=1e-8)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        model = pca_fit(rng.normal(size=(20, 3)), 0.95)
        with pytest.raises(UsageError):
            pca_transform(model, rng.normal(size=(5, 2)))


class TestLogistic:
    def test_separable_data(self):
        feats = np.array([[-1.0]] * 50 + [[1.0]] * 50)
        X, y = arrays(feats, [0] * 50 + [1] * 50)
        model = logistic_fit(X, y)
        pred = model.predict_proba(X) >= 0.5
        assert np.array_equal(pred.astype(int), y)
        assert np.linalg.norm(loss_gradient(X, y, model, DEFAULT_L2)) <= 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        X, y = arrays(rng.normal(size=(40, 3)), [0, 1] * 20)
        l2 = 1e-3
        # analytic gradient at zero weights
        probs = np.full(40, 0.5)
        grad_w = X.T @ (probs - y) / 40
        eps = 1e-6
        for j in range(3):
            w_plus = np.zeros(3)
            w_plus[j] = eps
            w_minus = np.zeros(3)
            w_minus[j] = -eps
            fd = (
                logistic_loss(X, y, LogisticModel(w_plus, 0.0), l2)
                - logistic_loss(X, y, LogisticModel(w_minus, 0.0), l2)
            ) / (2 * eps)
            assert fd == pytest.approx(grad_w[j], rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_vanishes_at_the_fit(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, d = int(rng.integers(20, 400)), int(rng.integers(1, 12))
        feats = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0, d)
        target = (feats @ rng.normal(size=d) + rng.normal(size=n) > 0).astype(np.int64)
        target[:2] = [0, 1]
        model = logistic_fit(feats, target)
        assert np.linalg.norm(loss_gradient(feats, target, model, DEFAULT_L2)) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_loss_at_most_that_of_500_gradient_steps(self, seed):
        rng = np.random.default_rng(200 + seed)
        feats = rng.normal(size=(300, 7))
        target = (feats @ rng.normal(size=7) + rng.normal(size=300) > 0).astype(np.int64)
        w, b = np.zeros(7), 0.0
        for _ in range(500):  # the evaluator before Newton steps: learning rate 0.1
            residual = masked_predict_proba(LogisticModel(w.copy(), b), feats) - target
            w = w - 0.1 * (feats.T @ residual / 300 + DEFAULT_L2 * w)
            b = b - 0.1 * float(residual.mean())
        reference = logistic_loss(feats, target, LogisticModel(w, b), DEFAULT_L2)
        fitted = logistic_loss(feats, target, logistic_fit(feats, target), DEFAULT_L2)
        assert fitted <= reference

    def test_collinear_and_constant_columns(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(120, 2))
        feats = np.column_stack([base, base[:, 0], -2.0 * base[:, 1], np.zeros(120)])
        target = (base[:, 0] + 0.5 * rng.normal(size=120) > 0).astype(np.int64)
        model = logistic_fit(feats, target)
        assert np.linalg.norm(loss_gradient(feats, target, model, DEFAULT_L2)) <= 1e-9
        assert model.weights[4] == 0.0
        assert model.weights[0] == pytest.approx(model.weights[2], rel=1e-9)

    def test_raw_scale_column_fits(self):
        # Uncentred, the column is 1e8 times the bias column, and the Hessian went singular
        # in floating point after three steps. Centred, the fit reaches the optimum.
        X, y = arrays([[1e8], [1e8 + 1], [1e8 + 2], [1e8 + 3]], [0, 0, 1, 1])
        model = logistic_fit(X, y)
        assert np.allclose(loss_gradient(X, y, model, DEFAULT_L2), 0.0, atol=1e-6)
        proba = model.predict_proba(X)
        assert np.all(np.diff(proba) > 0) and proba[0] < 1e-4 and proba[-1] > 1 - 1e-4

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            logistic_fit(*arrays([[1.0], [2.0]], [1, 1]))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        X, y = arrays(rng.normal(size=(300, 9)), [0, 1] * 150)
        a = logistic_fit(X, y)
        b = logistic_fit(X, y)
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias


def logistic_loss(features, target, model, l2):
    """The objective :func:`logistic_fit` minimizes at ``l2 = DEFAULT_L2``: mean
    cross-entropy plus (l2/2)*||w||^2, the bias unregularized."""
    z = features @ model.weights + model.bias
    sign = 2.0 * target - 1.0
    ce = float(np.mean(np.logaddexp(0.0, -sign * z)))
    return ce + 0.5 * l2 * float(model.weights @ model.weights)


def loss_gradient(features, target, model, l2):
    """The gradient of :func:`logistic_loss` in ``(weights, bias)``."""
    residual = model.predict_proba(features) - target
    grad_w = features.T @ residual / features.shape[0] + l2 * model.weights
    return np.append(grad_w, residual.mean())


def masked_predict_proba(model, features):
    """Reference: the stable logistic evaluated on each sign's cells separately."""
    z = features @ model.weights + model.bias
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestPredictProba:
    def test_matches_masked_reference(self):
        rng = np.random.default_rng(31)
        features = rng.standard_normal((400, 9))
        saturated = 0
        for scale in (0.01, 1.0, 30.0, 1e3):
            for _ in range(25):
                model = LogisticModel(scale * rng.standard_normal(9), float(scale * rng.standard_normal()))
                proba = model.predict_proba(features)
                assert np.array_equal(proba, masked_predict_proba(model, features))
                saturated += int(np.count_nonzero((proba == 0.0) | (proba == 1.0)))
        assert saturated > 1000

    def test_non_finite_scores_match_reference(self):
        features = np.array([[np.inf], [-np.inf], [np.nan], [0.0], [-0.0], [800.0], [-800.0]])
        model = LogisticModel(np.array([1.0]), 0.0)
        proba = model.predict_proba(features)
        assert np.array_equal(proba, masked_predict_proba(model, features), equal_nan=True)
        assert proba[:2].tolist() == [1.0, 0.0] and np.isnan(proba[2])


class TestMetrics:
    def test_perfect_ranking(self):
        X, y = arrays([[-2.0], [2.0]], [0, 1])
        model = logistic_fit(X, y)
        report = evaluate(model, X, y, "demo")
        assert report.accuracy == 1.0
        assert report.f1 == 1.0
        assert report.auc == 1.0

    def test_all_tied_scores_auc_half(self):
        assert roc_auc(np.array([0, 1, 0, 1]), np.array([0.3, 0.3, 0.3, 0.3])) == 0.5

    def test_enumerated_example(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.4, 0.6, 0.5, 0.7])
        assert roc_auc(y, scores) == 0.75

    def test_matches_pair_enumeration_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            y = rng.integers(0, 2, n)
            scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], n)
            assert roc_auc(y, scores) == auc_by_pair_enumeration(list(y), list(scores))

    def test_tied_infinities_match_pair_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            y = rng.integers(0, 2, n)
            scores = rng.choice([-np.inf, -0.0, 0.0, 0.5, np.inf], n)
            assert roc_auc(y, scores) == auc_by_pair_enumeration(list(y), list(scores))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_auc_invariant_under_monotone_transforms(self, data):
        n = data.draw(st.integers(4, 30))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        raw = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)))
        scores = raw / 10.0
        transformed = np.exp(scores / 4.0)
        assert roc_auc(y, scores) == roc_auc(y, transformed)

    def test_f1_zero_convention(self):
        # model predicts all negatives and no positives exist in predictions
        model = LogisticModel(np.array([0.0]), -5.0)
        report = evaluate(model, *arrays([[1.0], [2.0]], [0, 1]), "degenerate")
        assert report.f1 == 0.0

    def test_comparison_csv(self, tmp_path):
        X, y = arrays([[-1.0], [1.0]] * 10, [0, 1] * 10)
        model = logistic_fit(X, y)
        report = evaluate(model, X, y, "demo")
        path = tmp_path / "cmp.csv"
        write_comparison_csv(path, [report])
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=hubofs-comparison/2"
        assert lines[1] == "method,n,accuracy,f1,auc"
        assert lines[2].startswith("demo,1,")


class TestLayout:
    """Every result depends on the values of the rows only: a C-ordered copy, the
    Fortran-ordered ``X[:, cols]`` and a strided slice of the same values give the same
    bits, though a product's bits follow its operands' layout."""

    @staticmethod
    def layouts(seed: int, n: int, d: int) -> tuple[list[np.ndarray], np.ndarray]:
        rng = np.random.default_rng(seed)
        scale, offset = rng.uniform(0.5, 4.0, d + 3), rng.uniform(-50, 50, d + 3)
        wide = rng.normal(size=(n, d + 3)) * scale + offset
        view = wide[:, sorted(rng.choice(d + 3, d, replace=False).tolist())]
        padded = np.zeros((n, 2 * d))
        padded[:, ::2] = view
        z = (view - view.mean(0)) / view.std(0)
        target = (z[:, 0] - z[:, 1] + rng.normal(size=n) > 0).astype(np.int64)
        rows = [view.copy(order="C"), view, padded[:, ::2]]
        assert [(X.flags.c_contiguous, X.flags.f_contiguous) for X in rows] == [
            (True, False), (False, True), (False, False)
        ]
        return rows, target

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_and_evaluate_depend_on_values_only(self, seed):
        rows, target = self.layouts(seed, 601, 7)
        models = [logistic_fit(X, target) for X in rows]
        for model in models[1:]:
            assert model.weights.tobytes() == models[0].weights.tobytes()
            assert model.bias == models[0].bias
        model = models[0]
        assert len({model.predict_proba(X).tobytes() for X in rows}) == 1
        assert len({evaluate(model, X, target, "m") for X in rows}) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pca_depends_on_values_only(self, seed):
        rows, _ = self.layouts(seed, 601, 7)
        fits = [pca_fit(X, 0.95) for X in rows]
        arrays = ("mean", "components", "explained_variance_ratios")
        for fit in fits[1:]:
            assert all(getattr(fit, a).tobytes() == getattr(fits[0], a).tobytes() for a in arrays)
        assert len({pca_transform(fits[0], X).tobytes() for X in rows}) == 1
