import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcmkit as gk
from gcmkit import (
    AdditiveNoiseModel,
    DataError,
    Empirical,
    FitError,
    Gaussian,
    KnnRegressor,
    LinearModel,
    Multinomial,
    NumericError,
    UnseenCategoryError,
    fit_anm,
    fit_classifier,
    fit_stochastic,
)
from gcmkit import mechanisms, stats
from gcmkit.data import one_hot
from gcmkit.sampling import propagate_from_noise

from conftest import classifier_data


class TestFitStochastic:
    def test_gaussian_degenerate(self):
        m = fit_stochastic(np.array([1.0, 1.0, 1.0]), kind="gaussian")
        assert m.mean == 1.0 and m.std == 0.0
        rng = np.random.default_rng(0)
        assert np.all(m.draw(10, rng) == 1.0)

    def test_multinomial_frequencies(self):
        m = fit_stochastic(np.array(["a", "a", "b", "b"], dtype=object))
        assert m.categories == ("a", "b")
        assert np.allclose(m.probs, [0.5, 0.5])

    def test_empty_input(self):
        with pytest.raises(FitError, match="empty"):
            fit_stochastic(np.array([]))

    def test_kind_mismatch(self):
        with pytest.raises(FitError):
            fit_stochastic(np.array(["a", "b"], dtype=object), kind="gaussian")
        with pytest.raises(FitError):
            fit_stochastic(np.array([1.0, 2.0]), kind="multinomial")

    def test_auto_rules(self):
        assert isinstance(fit_stochastic(np.array([1.0, 2.0])), Empirical)
        assert isinstance(fit_stochastic(np.array(["u", "v"], dtype=object)), Multinomial)


class TestDraws:
    def test_empirical_single_sample(self):
        m = Empirical([7.0])
        assert np.all(m.draw(25, np.random.default_rng(1)) == 7.0)

    def test_gaussian_zero_std(self):
        assert np.all(Gaussian(0.0, 0.0).draw(25, np.random.default_rng(1)) == 0.0)

    def test_multinomial_degenerate(self):
        m = Multinomial(["a", "b"], [1.0, 0.0])
        assert set(m.draw(50, np.random.default_rng(1))) == {"a"}

    def test_empirical_draws_only_stored_values(self):
        m = Empirical([1.0, 2.0, 3.0])
        assert set(m.draw(200, np.random.default_rng(2))) <= {1.0, 2.0, 3.0}

    def test_multinomial_frequencies_converge(self):
        m = Multinomial(["a", "b"], [0.25, 0.75])
        draws = m.draw(40000, np.random.default_rng(3))
        assert abs(np.mean(draws == "a") - 0.25) < 0.02

    def test_same_rng_state_same_draws(self):
        m = Empirical(np.arange(10.0))
        a = m.draw(20, np.random.default_rng(9))
        b = m.draw(20, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_multinomial_validation(self):
        with pytest.raises(FitError):
            Multinomial(["a", "b"], [0.6, 0.6])
        with pytest.raises(FitError):
            Multinomial(["a"], [-1.0])

    def test_noise_variance_is_the_exact_variance_of_the_draws(self):
        # Empirical draws redraw the stored sample with replacement: ddof 0.
        assert Empirical([1.0, 2.0, 3.0, 6.0]).noise_variance == 3.5
        assert Gaussian(4.0, 0.5).noise_variance == 0.25
        anm = AdditiveNoiseModel(LinearModel([2.0], 1.0), Empirical([-1.0, 1.0]), gk.InputEncoder.continuous(1))
        assert anm.noise_variance == 1.0


class TestFitAnm:
    def test_noiseless_line_recovered_exactly(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        anm = fit_anm([x], 2 * x + 1, model_kind="linear")
        assert isinstance(anm.prediction, LinearModel)
        assert anm.prediction.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert anm.prediction.intercept == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(anm.noise.samples, 0.0, atol=1e-9)

    def test_constant_target(self):
        x = np.linspace(0, 1, 20)
        anm = fit_anm([x], np.full(20, 5.0), model_kind="linear")
        assert anm.prediction.coefficients[0] == pytest.approx(0.0, abs=1e-7)
        assert anm.prediction.intercept == pytest.approx(5.0, abs=1e-7)

    def test_auto_picks_knn_for_quadratic(self):
        x = np.linspace(-2, 2, 41)
        y = x**2
        anm = fit_anm([x], y, model_kind="auto")
        assert isinstance(anm.prediction, KnnRegressor)
        # independent oracle: recompute both cross-validation scores directly
        mse_linear = _cv_mse_oracle(x, y, "linear")
        mse_knn = _cv_mse_oracle(x, y, "knn")
        assert mse_knn < mse_linear

    def test_auto_picks_linear_for_line(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        y = 3 * x + 1 + 0.1 * rng.standard_normal(300)
        anm = fit_anm([x], y, model_kind="auto")
        assert isinstance(anm.prediction, LinearModel)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_auto_on_fewer_rows_than_folds_picks_linear_for_a_line(self, n):
        """With fewer rows than cross-validation folds, the empty folds are skipped."""
        x = np.arange(float(n))
        anm = fit_anm([x], 2 * x + 1, model_kind="auto")
        assert isinstance(anm.prediction, LinearModel)
        assert np.allclose(anm.predict([x]), 2 * x + 1)

    def test_insufficient_rows(self):
        with pytest.raises(FitError, match="insufficient rows"):
            fit_anm([np.array([1.0])], np.array([2.0]))

    def test_collinear_parents_handled_by_ridge(self):
        x = np.linspace(0, 1, 30)
        anm = fit_anm([x, x], 4 * x, model_kind="linear")  # rank-deficient design
        pred = anm.predict([x, x])
        assert np.allclose(pred, 4 * x, atol=1e-4)

    def test_categorical_parent_one_hot(self):
        c = np.array(["a", "b", "a", "b", "a", "b"], dtype=object)
        y = np.where(c == "a", 1.0, 3.0)
        anm = fit_anm([c], y, model_kind="linear")
        predicted = anm.predict([np.array(["a", "b"], dtype=object)])
        assert predicted[0] == pytest.approx(1.0, abs=1e-6)
        assert predicted[1] == pytest.approx(3.0, abs=1e-6)

    def test_unseen_category(self):
        c = np.array(["a", "b", "a", "b"], dtype=object)
        anm = fit_anm([c], np.array([1.0, 2.0, 1.0, 2.0]), model_kind="linear")
        with pytest.raises(UnseenCategoryError):
            anm.predict([np.array(["c"], dtype=object)])

    def test_residual_orthogonality_and_zero_mean(self):
        rng = np.random.default_rng(11)
        x1 = rng.standard_normal(500)
        x2 = rng.standard_normal(500)
        y = 2 * x1 - x2 + rng.standard_normal(500)
        anm = fit_anm([x1, x2], y, model_kind="linear")
        residuals = y - anm.predict([x1, x2])
        scale = float(np.sqrt(np.mean(y**2)))
        assert abs(residuals.mean()) < 1e-8 * scale
        for column in (x1, x2):
            assert abs(residuals @ column) / (len(y) * scale) < 1e-8

    def test_noise_sample_mean_is_centred(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(2000)
        y = x + rng.standard_normal(2000)
        anm = fit_anm([x], y, model_kind="linear")
        n = anm.noise.samples.size
        bound = 3 * anm.noise.samples.std() / np.sqrt(n)
        assert abs(anm.noise.samples.mean()) <= max(bound, 1e-12)
        # drawing from the centred noise has mean 0 within the MC bound too
        draws = anm.noise.draw(n, np.random.default_rng(99))
        assert abs(draws.mean()) <= 3 * anm.noise.samples.std() / np.sqrt(n)


def _abduct_and_propagate(anm, x, y):
    """Y's column after abducting its noise from (x, y) and propagating it back
    with (x, y) as the factual columns, as a counterfactual does."""
    model = gk.GcmModel(gk.CausalGraph(["X", "Y"], [("X", "Y")]))
    model = gk.assign(model, "X", Empirical(x), ground_truth=True)
    model = gk.assign(model, "Y", anm, ground_truth=True)
    noise = {"X": x, "Y": anm.abduct([x], y)}
    return propagate_from_noise(model, noise, factual={"X": x, "Y": y})["Y"]


class TestEvaluateAndAbduction:
    def make_linear(self):
        return AdditiveNoiseModel(
            LinearModel([2.0], 1.0), Gaussian(0.0, 1.0), gk.InputEncoder.continuous(1)
        )

    def test_evaluate_linear(self):
        anm = self.make_linear()
        assert anm.forward([np.array([3.0])], np.array([0.5]))[0] == 7.5

    def test_zero_noise_is_prediction(self):
        anm = self.make_linear()
        x = np.array([3.0])
        assert anm.forward([x], np.zeros(1))[0] == anm.predict([x])[0]

    def test_estimate_noise_simple(self):
        anm = AdditiveNoiseModel(
            LinearModel([2.0], 0.0), Gaussian(0.0, 1.0), gk.InputEncoder.continuous(1)
        )
        x = np.array([1.0])
        assert anm.abduct([x], np.array([3.0]))[0] == 1.0
        assert anm.abduct([x], anm.predict([x]))[0] == 0.0

    def test_abduction_round_trip_random_cases(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(200)
        y = 1.5 * x + rng.standard_normal(200)
        anm = fit_anm([x], y, model_kind="linear")
        rows = rng.integers(0, 200, size=100)
        assert (_abduct_and_propagate(anm, x[rows], y[rows]) == y[rows]).all()

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=5, max_size=40
        ),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_abduction_consistency_property(self, xs, seed):
        rng = np.random.default_rng(seed)
        x = np.asarray(xs)
        y = 0.5 * x - 2 + rng.standard_normal(len(x))
        anm = fit_anm([x], y, model_kind="linear")
        assert (_abduct_and_propagate(anm, x, y) == y).all()


class TestClassifier:
    def test_learns_separable_classes(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(-2, 0.5, 200), rng.normal(2, 0.5, 200)])
        y = np.array(["low"] * 200 + ["high"] * 200, dtype=object)
        clf = fit_classifier([x], y)
        assert clf.categories == ("high", "low")
        probs = clf.probabilities([np.array([-2.0, 2.0])], None)
        assert probs[0, clf.categories.index("low")] > 0.9
        assert probs[1, clf.categories.index("high")] > 0.9

    def test_probabilities_form_simplex(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100)
        y = np.array(["a" if v < 0 else "b" for v in x], dtype=object)
        clf = fit_classifier([x], y)
        probs = clf.probabilities([rng.standard_normal(50)], None)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_a_single_category_is_always_drawn(self):
        clf = fit_classifier([np.arange(5.0)], ["only"] * 5)
        assert clf.categories == ("only",)
        assert clf.weights.shape == (2, 1)
        noise = clf.draw_noise(50, np.random.default_rng(0))
        assert clf.forward([np.linspace(-9.0, 9.0, 50)], noise).tolist() == ["only"] * 50
        assert mechanisms.mechanism_from_json(clf.to_json()).to_json() == clf.to_json()

    def test_sample_class_deterministic_given_rng(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(60)
        y = np.array(["a" if v < 0 else "b" for v in x], dtype=object)
        clf = fit_classifier([x], y)
        x = np.array([0.1])
        a = clf.forward([x], clf.draw_noise(1, np.random.default_rng(8)))
        b = clf.forward([x], clf.draw_noise(1, np.random.default_rng(8)))
        assert a[0] == b[0]

    @pytest.mark.parametrize("targets", [[2, 10] * 10, [2.0, 10.0] * 10, np.array([10, 2] * 10)])
    def test_numeric_targets_keep_the_string_order_of_their_labels(self, targets):
        """Targets are compared as strings, so numeric labels sort as the
        sorted unique strings do ("10" before "2"), which fixes the order of
        the weight columns in a saved model."""
        labels = [str(v) for v in targets]
        clf = fit_classifier([np.arange(20.0)], targets)
        assert clf.categories == tuple(np.unique(labels).tolist())
        assert clf.categories[0].startswith("10")

    def test_parent_scaled_by_1e150_raises_numeric_error(self):
        data = classifier_data(60, 0, scale=1e150)
        with pytest.raises(NumericError, match="no convergence"):
            fit_classifier([data.column("X")], data.column("K"))

    def test_iteration_cap_raises_numeric_error(self, monkeypatch):
        data = classifier_data(60, 0)
        monkeypatch.setattr(mechanisms, "_NEWTON_MAX_ITER", 2)
        with pytest.raises(NumericError, match="no convergence in 2 Newton steps"):
            fit_classifier([data.column("X")], data.column("K"))

    @pytest.mark.parametrize("n, seed, scale", [(60, 0, 1e8), (200, 0, 1e3), (60, 5, 1e4), (60, 6, 1e6)])
    def test_large_parent_scales_fit_the_same_probabilities(self, n, seed, scale):
        """Near the minimum the line search cannot see the value fall in
        floating point, and Newton steps that it rejected there left these
        fits short of the tolerance."""
        data = classifier_data(n, seed)
        x, k = data.column("X"), data.column("K")
        queries = np.array([-1.0, 0.0, 0.7])
        # At these scales the 1e-6 penalty on the slope is negligible.
        expected = fit_classifier([10.0 * x], k).probabilities([10.0 * queries], None)
        probs = fit_classifier([scale * x], k).probabilities([scale * queries], None)
        assert np.allclose(probs, expected, rtol=0, atol=1e-6)


def _design_and_onehot(parent_columns, targets):
    encoded = gk.InputEncoder.fit(parent_columns).encode(parent_columns)
    targets = [str(t) for t in targets]
    return np.hstack([encoded, np.ones((len(encoded), 1))]), one_hot(targets, tuple(np.unique(targets)))


def _classifier_objective(design, onehot, weights):
    """The classifier's objective, its gradient over the weights and the
    class probabilities, written out independently of the solver: mean
    negative log-likelihood plus 1e-6 times the squared weights."""
    logits = design @ weights
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    value = -np.mean(np.log((probs * onehot).sum(axis=1))) + 1e-6 * (weights**2).sum()
    gradient = design.T @ (probs - onehot) / len(design) + 2e-6 * weights
    return value, gradient, probs


def _lbfgs_weights(design, onehot):
    """The objective's minimiser by scipy's L-BFGS, run to tolerances far
    below its defaults, under which it stops up to 3e-3 away in probability
    on the separable set."""
    from scipy.optimize import minimize as scipy_minimize

    shape = (design.shape[1], onehot.shape[1])

    def objective(flat):
        value, gradient, _ = _classifier_objective(design, onehot, flat.reshape(shape))
        return value, gradient.ravel()

    result = scipy_minimize(
        objective, np.zeros(shape[0] * shape[1]), jac=True, method="L-BFGS-B",
        options={"maxiter": 20000, "gtol": 1e-13, "ftol": 1e-16},
    )
    return result.x.reshape(shape)


def _cli_small_k():
    """K on (X, C) as in the benchmark's cli-small workload, at its 1 000 rows."""
    rng = np.random.default_rng([1201, 1])
    c = rng.choice(3, size=1000, p=[0.4, 0.35, 0.25])
    x = np.array([-0.5, 1.0, 2.0])[c] + rng.standard_normal(1000)
    rng.standard_normal(1000)  # the workload's Y noise
    rng.standard_normal(1000)  # the workload's Z noise
    logit = 1.5 * x + np.array([-1.0, 0.0, 1.0])[c] - 1.0
    k = np.where(rng.random(1000) < 1.0 / (1.0 + np.exp(-logit)), "hi", "lo")
    return [x, np.array(["a", "b", "c"])[c]], k


def _hyperbola(points=None):
    """sqrt(1 + x²) in the form :func:`mechanisms.minimize` takes, noting
    each point it is evaluated at in ``points``."""
    def objective(x):
        if points is not None:
            points.append(float(x[0]))
        value = float(np.sqrt(1.0 + x[0] ** 2))
        return value, lambda: (np.array([x[0] / value]), np.array([[value**-3]]))

    return objective


class TestNewtonSolver:
    def test_armijo_backtracking_halves_an_overshooting_step(self):
        # From x = 2 the Newton step is -x³, so the full step lands at -8.
        points = []
        result = mechanisms.minimize(_hyperbola(points), [2.0])
        assert points[:4] == pytest.approx([2.0, -8.0, -3.0, -0.5])
        assert result.nit == 4 and result.success
        assert abs(result.x[0]) < 1e-8

    def test_singular_newton_system_raises_numeric_error(self):
        def flat(x):
            return float(x @ x), lambda: (2 * x + 1, np.zeros((1, 1)))

        with pytest.raises(NumericError, match="singular"):
            mechanisms.minimize(flat, [1.0])

    def test_non_finite_value_raises_numeric_error(self):
        def undefined(x):
            return float("nan"), lambda: (x, np.eye(1))

        with pytest.raises(NumericError, match="not finite"):
            mechanisms.minimize(undefined, [1.0])


def _separable():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(-2, 0.5, 200), rng.normal(2, 0.5, 200)])
    return [x], np.array(["low"] * 200 + ["high"] * 200, dtype=object)


def _three_classes():
    rng = np.random.default_rng(7)
    x, z = rng.standard_normal(500), rng.standard_normal(500)
    logits = np.stack([x, z - x, 0.5 * z], axis=1) + rng.gumbel(size=(500, 3))
    return [x, z], np.array(["a", "b", "c"])[logits.argmax(axis=1)]


def _wide():
    """20 000 rows: a 30-level categorical parent, a continuous one, 5 classes."""
    rng = np.random.default_rng(11)
    c, x = rng.integers(0, 30, 20000), rng.standard_normal(20000)
    logits = np.stack([0.1 * (c % 5) * j + (j - 2) * x for j in range(5)], axis=1)
    logits += rng.gumbel(size=logits.shape)
    return [np.array([f"c{v}" for v in c], dtype=object), x], np.array(list("pqrst"))[logits.argmax(axis=1)]


@pytest.mark.parametrize("fixture", [_cli_small_k, _separable, _three_classes, _wide],
                         ids=["cli-small-K", "separable", "three-classes", "wide"])
def test_newton_fit_matches_scipy_lbfgs(fixture):
    parents, targets = fixture()
    design, onehot = _design_and_onehot(parents, targets)
    newton_value, _, newton_probs = _classifier_objective(design, onehot, fit_classifier(parents, targets).weights)
    lbfgs_value, _, lbfgs_probs = _classifier_objective(design, onehot, _lbfgs_weights(design, onehot))
    assert newton_value <= lbfgs_value + 1e-10
    assert np.abs(newton_probs - lbfgs_probs).max() <= 2e-4


@st.composite
def classifier_fixtures(draw):
    """2-40 rows of one or two parents, each continuous or categorical, and a
    target of 2 or 3 classes."""
    n = draw(st.integers(2, 40))
    parents = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            parents.append(np.array(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))))
        else:
            parents.append(np.array(draw(st.lists(st.sampled_from("uvw"), min_size=n, max_size=n)), dtype=object))
    targets = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n).filter(lambda t: len(set(t)) > 1))
    return parents, np.array(targets, dtype=object)


@given(fixture=classifier_fixtures())
@settings(max_examples=100, deadline=None)
def test_newton_fit_stops_under_the_gradient_tolerance(fixture):
    parents, targets = fixture
    clf = fit_classifier(parents, targets)
    _, gradient, _ = _classifier_objective(*_design_and_onehot(parents, targets), clf.weights)
    # The solver's coordinates: the weights' rows sum to zero, and its
    # gradient is the weights' gradient over that subspace's basis.
    basis = mechanisms._sum_zero_basis(len(clf.categories))
    assert np.abs(clf.weights.sum(axis=1)).max() < 1e-12
    assert np.abs(gradient @ basis).max() < mechanisms._NEWTON_TOL


def _cv_mse_oracle(x, y, family):
    """5-fold CV (seed-0 shuffle, fold = position mod 5) with its own models."""
    n = len(y)
    shuffled = np.random.default_rng(0).permutation(n)
    fold = np.empty(n, dtype=int)
    fold[shuffled] = np.arange(n) % 5
    squared = []
    for f in range(5):
        test = fold == f
        if not test.any() or test.all():
            continue
        xt, yt = x[~test], y[~test]
        if family == "linear":
            design = np.column_stack([xt, np.ones(len(xt))])
            beta, *_ = np.linalg.lstsq(design, yt, rcond=None)
            pred = np.column_stack([x[test], np.ones(test.sum())]) @ beta
        else:
            k = max(1, min(int(round(np.sqrt(len(yt)))), len(yt)))
            pred = np.array(
                [yt[np.argsort(np.abs(xt - q), kind="stable")[:k]].mean() for q in x[test]]
            )
        squared.append((y[test] - pred) ** 2)
    return float(np.concatenate(squared).mean())


def test_residuals_independent_of_parents_on_true_anm():
    # On data generated from a genuine additive noise model, the fitted
    # residuals should pass a pairwise independence test against the parent.
    rejections = 0
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        x = rng.standard_normal(150)
        y = 2.0 * x + rng.standard_normal(150)
        anm = fit_anm([x], y, model_kind="linear")
        residuals = y - anm.predict([x])
        result = gk.pairwise_independence_test(x, residuals, num_permutations=99, seed=rep)
        if result.p_value <= 0.01:
            rejections += 1
    assert rejections <= 5


def test_knn_predict_across_blocks_matches_stable_argsort_oracle():
    # Distances are searched in blocks of about two million, so 100 query rows
    # per block here; ties are everywhere (one-hot plus small-integer columns)
    # and the oracle keeps, among tied rows, the lowest training index.
    rng = np.random.default_rng(5)

    def rows(n):
        return np.column_stack([np.eye(3)[rng.integers(0, 3, n)], rng.integers(0, 4, n)]).astype(float)

    inputs, queries = rows(20_000), rows(250)
    targets = rng.standard_normal(20_000)
    knn = KnnRegressor(7, inputs, targets, offset=0.5)
    squared = (queries**2).sum(1)[:, None] + (inputs**2).sum(1)[None, :] - 2 * queries @ inputs.T
    order = np.sort(np.argsort(squared, axis=1, kind="stable")[:, :7], axis=1)
    assert_same_bits(knn.predict(queries), targets[order].mean(axis=1) + 0.5)


def stable_argsort_oracle(knn, queries):
    """Brute-force kNN prediction: every distance by scipy's cdist, ranked
    by a stable argsort, so equal distances go to the lowest training index,
    and the k targets averaged in training-row order."""
    from scipy.spatial.distance import cdist

    order = np.sort(np.argsort(cdist(queries, knn.inputs), axis=1, kind="stable")[:, : knn.k], axis=1)
    return knn.targets[order].mean(axis=1) + knn.offset


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(np.asarray(actual).view(np.int64), np.asarray(expected).view(np.int64))


ONE_D_CASES = {
    # Here every query's k-th distance is shared by points outside its run of
    # k sorted places, and outside any window of 2k + 2 around its place.
    "integer-valued": lambda rng: (rng.integers(-5, 6, 3_000), rng.integers(-7, 8, 3_000), 55),
    "duplicated": lambda rng: (np.repeat(rng.standard_normal(40), 25), rng.standard_normal(300), 30),
    "k-1": lambda rng: (rng.integers(0, 4, 200), rng.uniform(-1, 4, 200), 1),
    "k-n": lambda rng: (rng.integers(0, 4, 50), rng.uniform(-1, 4, 100), 50),
    "n-below-2k+2": lambda rng: (rng.standard_normal(12), rng.standard_normal(100), 7),
    "outside-range": lambda rng: (
        rng.uniform(0, 1, 500), rng.uniform(-9, 9, 300) * 10.0 ** rng.integers(0, 3, 300), 22
    ),
    # Squares of gaps near 1e-160 lose bits (subnormal) and near 1e-170 vanish,
    # so there sqrt((q - r)**2) is not |q - r|.
    "underflow": lambda rng: (rng.integers(0, 6, 300) * 1e-160, rng.integers(0, 9, 200) * 0.6e-160, 9),
    "vanishing": lambda rng: (rng.integers(0, 6, 300) * 1e-170, rng.integers(0, 9, 200) * 0.6e-170, 9),
    # Gaps to far queries round, so distinct training values tie.
    "rounded": lambda rng: (1e6 + rng.integers(0, 4, 400) * 1e-10, rng.integers(0, 3, 100) * 1e-3, 11),
    # Ties that widen the window until it spans the line, that widen it 8 or
    # more times, and that run into one end of the line.
    "all-equal": lambda rng: (np.full(500, 2.0), rng.uniform(-1, 5, 200), 7),
    "three-valued": lambda rng: (rng.integers(0, 3, 3_000), rng.integers(-1, 6, 300) / 2, 5),
    # A discrete parent at a default-sized k: runs of about 3 300 equal values.
    "three-valued-k71": lambda rng: (rng.integers(0, 3, 10_000), rng.integers(0, 3, 200), 71),
    "tied-end": lambda rng: (np.minimum(rng.uniform(0, 2, 600), 1.0), rng.uniform(1, 3, 200), 9),
}


@pytest.mark.parametrize("case", ONE_D_CASES)
def test_knn_predict_on_one_column_matches_stable_argsort_oracle(case):
    rng = np.random.default_rng(17)
    inputs, queries, k = ONE_D_CASES[case](rng)
    inputs = np.asarray(inputs, dtype=float)[:, None]
    queries = np.asarray(queries, dtype=float)[:, None]
    knn = KnnRegressor(k, inputs, rng.standard_normal(len(inputs)), offset=0.25)
    assert_same_bits(knn.predict(queries), stable_argsort_oracle(knn, queries))


one_d_values = st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=60),
)


@given(inputs=one_d_values, queries=one_d_values, data=st.data())
@settings(max_examples=200, deadline=None)
def test_knn_predict_on_one_column_matches_oracle_property(inputs, queries, data):
    k = data.draw(st.integers(1, len(inputs)))
    targets = np.arange(len(inputs), dtype=float) ** 1.5
    knn = KnnRegressor(k, np.array(inputs)[:, None], targets)
    queries = np.array(queries)[:, None]
    assert_same_bits(knn.predict(queries), stable_argsort_oracle(knn, queries))


def test_knn_predict_ranks_nothing_on_untied_continuous_data(monkeypatch):
    """With no tied distances, each query's k nearest rows are one run of the
    sorted line, read off without ranking any candidates."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys, axis=-1: calls.append(1) or lexsort(keys, axis))
    rng = np.random.default_rng(31)
    knn = KnnRegressor(20, rng.standard_normal((2_000, 1)), rng.standard_normal(2_000))
    queries = rng.standard_normal((5_000, 1))
    prediction = knn.predict(queries)
    assert calls == []
    assert_same_bits(prediction, stable_argsort_oracle(knn, queries))


@pytest.mark.parametrize(
    ("inputs", "query", "k"),
    [
        # Squares of gaps below about 1e-162 vanish, so the three smallest
        # values are all 0.0 away, on one side of the query, and the lowest
        # indices among them lie farthest along the line.
        ([3e-170, 2e-170, 1e-170, 1.0], 0.0, 2),
        # q - a == b - q: the k-th distance is shared across the query, and
        # the lowest index among the tied rows lies to its right.
        ([4.0, 3.0, 1.0, 0.0], 2.0, 3),
        ([4.0, 3.0, 1.0, 0.0], 2.0, 1),
    ],
    ids=["one-side", "cross-side-k3", "cross-side-k1"],
)
def test_knn_predict_with_a_tied_kth_distance_matches_oracle(inputs, query, k):
    knn = KnnRegressor(k, np.array(inputs)[:, None], 2.0 ** np.arange(len(inputs)))
    queries = np.array([[query]])
    assert_same_bits(knn.predict(queries), stable_argsort_oracle(knn, queries))


def test_knn_predict_of_no_rows_is_empty():
    knn = KnnRegressor(2, [[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
    prediction = knn.predict(np.zeros((0, 1)))
    assert prediction.shape == (0,) and prediction.dtype == np.float64


def test_knn_sorts_its_training_line_once(monkeypatch):
    sorts = []

    class CountingLine(stats.NeighbourIndex):
        def __init__(self, values, k):
            sorts.append(len(values))
            super().__init__(values, k)

    monkeypatch.setattr(mechanisms, "NeighbourIndex", CountingLine)
    rng = np.random.default_rng(23)
    inputs, targets = rng.integers(-20, 21, (2_000, 1)).astype(float), rng.standard_normal(2_000)
    first_queries, second_queries = rng.uniform(-25, 25, (300, 1)), rng.uniform(-25, 25, (1, 1))
    knn = KnnRegressor(9, inputs, targets, offset=0.5)
    assert sorts == []  # nothing is sorted before the first prediction
    first, second = knn.predict(first_queries), knn.predict(second_queries)
    assert sorts == [2_000]
    assert_same_bits(first, KnnRegressor(9, inputs, targets, offset=0.5).predict(first_queries))
    assert_same_bits(second, KnnRegressor(9, inputs, targets, offset=0.5).predict(second_queries))
    assert sorts == [2_000] * 3


def test_knn_predict_keeps_at_most_two_distance_blocks_alive():
    """A 6-wide predict of 2 000 queries from 5 000 training rows ranks 400 ×
    5 000 distances (15.3 MB) at a time, and frees each block and its full
    argsort before building the next, so its peak stays under two and a half
    blocks."""
    rng = np.random.default_rng(29)
    knn = KnnRegressor(70, rng.standard_normal((5_000, 6)), rng.standard_normal(5_000))
    queries = rng.standard_normal((2_000, 6))
    block = 400 * 5_000 * 8
    tracemalloc.start()
    try:
        knn.predict(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    ("inputs", "targets", "message"),
    [
        ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], "matrix"),
        ([[0.0], [1.0]], [1.0, 2.0, 3.0], "one row per target"),
        ([[0.0], [np.nan], [2.0]], [1.0, 2.0, 3.0], "non-finite"),
        ([[0.0], [np.inf], [2.0]], [1.0, 2.0, 3.0], "non-finite"),
        (np.zeros((3, 0)), [1.0, 2.0, 3.0], "a column"),
    ],
)
def test_knn_rejects_malformed_training_rows(inputs, targets, message):
    with pytest.raises(FitError, match=message):
        KnnRegressor(2, inputs, targets)


@pytest.mark.parametrize(
    "prediction",
    [LinearModel([1.0, 2.0], 0.0), KnnRegressor(1, [[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0])],
    ids=["linear", "knn"],
)
def test_anm_rejects_prediction_of_another_width(prediction):
    with pytest.raises(FitError, match="takes 2 encoded inputs"):
        AdditiveNoiseModel(prediction, Gaussian(0.0, 1.0), gk.InputEncoder.continuous(1))


@pytest.mark.parametrize(
    "prediction",
    [LinearModel([1.0], 0.0), KnnRegressor(2, [[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])],
    ids=["linear", "knn"],
)
@pytest.mark.parametrize(
    ("queries", "width"),
    [([[0.0, 100.0], [2.0, -5.0]], 2), ([[0.0, 1.0, 2.0]], 3), (np.zeros((2, 0)), 0)],
    ids=["two-wide", "three-wide", "zero-wide"],
)
def test_prediction_rejects_queries_of_another_width(prediction, queries, width):
    with pytest.raises(DataError, match=f"takes 1 encoded inputs, but the parents encode to {width}"):
        prediction.predict(queries)
