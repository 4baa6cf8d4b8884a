"""Per-node causal mechanisms.

Root nodes carry a marginal model (:class:`Empirical`, :class:`Gaussian`, or
:class:`Multinomial`).  Continuous non-root nodes carry an
:class:`AdditiveNoiseModel`: a regression function of the parents plus a noise
distribution inferred from the residuals.  Categorical non-root nodes carry a
:class:`ClassifierFcm`, a multinomial-logistic model sampled by inverse CDF.

All fitted objects are immutable; every stochastic operation takes an explicit
numpy generator supplied by the caller.  This module needs numpy only: no fit
imports scipy (the classifier's solver is :func:`minimize`, damped Newton
steps in numpy), and no kNN search needs scipy.

Every mechanism class implements the same protocol, and the query modules use
nothing else:

- ``family`` and ``option``: the :class:`~gcmkit.model.MechanismSpec` the node
  refits as (``family`` is ``stochastic`` exactly for root marginals);
- ``is_continuous``: whether the node takes real values or categories;
- ``draw_noise(n, rng)``: ``n`` draws of the node's noise;
- ``forward(parent_columns, noise)``: the node's values from its parents'
  columns and a noise column;
- ``abduct(parent_columns, observed)``: the noise column that reproduces an
  observed column, or :class:`~gcmkit.exceptions.NonInvertibleError`;
- ``noise_reference(n, rng)`` (continuous nodes): a sample of the noise that
  held-out residuals, the noise ``abduct`` recovers, are compared with;
- ``noise_variance`` (continuous nodes): the exact variance of the noise that
  ``draw_noise`` draws (a root's noise is its own value);
- ``categories`` and ``probabilities(parent_columns, n)`` (categorical
  nodes): the labels in column order, and an ``n`` × ``len(categories)``
  matrix of each row's class probabilities given its parents' values;
- ``to_json()``: tagged parameters, read back by :func:`mechanism_from_json`
  through the class's ``tag``.

Every class serializes through :class:`_Serialized`: its JSON is its
``fields``, and a field holding an object is written by that object's
``to_json`` and read back by the class's ``decoders`` entry.  Constructors
check their values, so a model file with a non-finite parameter, a
non-integer ``k``, an unknown encoding kind or mismatched shapes is rejected
at load.

An additive noise model's prediction model (:class:`LinearModel`,
:class:`KnnRegressor`) has ``tag``, ``fields``, ``width``,
``predict(encoded)`` and ``shifted(delta)``; the loader finds it in
``_PREDICTIONS`` and :func:`fit_anm` fits it through ``_PREDICTION_FITS``.
"""

import math
import numbers
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .data import categories_of, is_numeric, one_hot
from .exceptions import DataError, FitError, NonInvertibleError, NumericError, SerializationError
from .stats import NeighbourIndex

_KNN_AUTO = "auto"
_CV_FOLDS = 5
_CV_SHUFFLE_SEED = 0
_RIDGE_SCALE = 1e-8
_COND_LIMIT = 1e12
_CLASSIFIER_REG = 1e-6
# The classifier's Newton solver (see minimize): it stops once every gradient
# entry is under _NEWTON_TOL, and gives up after _NEWTON_MAX_ITER steps.
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100
_ARMIJO = 1e-4
_RESOLUTION = 1e-12


def _as_float_array(values, what):
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise FitError(f"{what} must be one-dimensional")
    if array.size and not np.all(np.isfinite(array)):
        raise FitError(f"{what} contains non-finite values")
    return array


def _width_mismatch(takes, encodes):
    return f"the prediction model takes {takes} encoded inputs, but the parents encode to {encodes}"


def _encoded_queries(encoded, width):
    """``encoded`` as a float matrix, which must have ``width`` columns."""
    encoded = np.asarray(encoded, dtype=np.float64)
    if encoded.ndim != 2 or encoded.shape[1] != width:
        encodes = encoded.shape[1] if encoded.ndim == 2 else encoded.shape
        raise DataError(_width_mismatch(width, encodes))
    return encoded


class _Serialized:
    """JSON round trip for a class whose constructor takes exactly ``fields``.

    A field value with its own ``to_json`` is written by it and read back by
    the class's ``decoders`` entry for the field; other fields are read as
    they are.
    """

    fields = ()
    decoders = {}

    def to_json(self):
        out = {"type": self.tag}
        for name in self.fields:
            value = getattr(self, name)
            if hasattr(value, "to_json"):
                value = value.to_json()
            elif isinstance(value, (np.ndarray, tuple)):
                value = np.asarray(value).tolist()
            out[name] = value
        return out

    @classmethod
    def from_json(cls, payload):
        values = {name: payload[name] for name in cls.fields}
        for name, decode in cls.decoders.items():
            values[name] = decode(values[name])
        return cls(**values)


def _decode(registry, what, payload):
    """The instance of ``registry``'s class for the payload's ``type`` tag."""
    cls = registry.get(payload["type"])
    if cls is None:
        raise SerializationError(f"unknown {what} {payload['type']!r}")
    return cls.from_json(payload)


def mechanism_from_json(payload):
    """Inverse of ``to_json``, dispatched on the payload's ``type`` tag."""
    try:
        return _decode(_MECHANISMS, "mechanism type", payload)
    except (KeyError, TypeError, ValueError, FitError) as exc:
        raise SerializationError(f"corrupt mechanism payload: {exc}") from exc


class _Marginal(_Serialized):
    """Protocol shared by root marginals: the noise is the node's own value."""

    family = "stochastic"

    def draw_noise(self, n, rng):
        return self.draw(n, rng)

    def forward(self, parent_columns, noise):
        return noise

    def abduct(self, parent_columns, observed):
        return observed

    def noise_reference(self, n, rng):
        return self.draw(n, rng)


class Empirical(_Marginal):
    """Marginal model that redraws the stored sample with replacement."""

    tag = option = "empirical"
    fields = ("samples",)
    is_continuous = True

    def __init__(self, samples):
        samples = _as_float_array(samples, "empirical samples")
        if samples.size == 0:
            raise FitError("empirical model needs at least one sample")
        samples.setflags(write=False)
        self.samples = samples

    def draw(self, n, rng):
        idx = rng.integers(0, self.samples.size, size=n)
        return self.samples[idx]

    @property
    def noise_variance(self):
        """The stored sample's variance (ddof 0): draws redraw it with replacement."""
        return float(self.samples.var())

    def __repr__(self):
        return f"Empirical({self.samples.size} samples)"


class Gaussian(_Marginal):
    """Normal marginal with the given mean and standard deviation."""

    tag = option = "gaussian"
    fields = ("mean", "std")
    is_continuous = True

    def __init__(self, mean, std):
        std = float(std)
        if not (std >= 0 and math.isfinite(std)) or not math.isfinite(float(mean)):
            raise FitError("gaussian parameters must be finite with std >= 0")
        self.mean = float(mean)
        self.std = std

    def draw(self, n, rng):
        return self.mean + self.std * rng.standard_normal(n)

    @property
    def noise_variance(self):
        return self.std**2

    def __repr__(self):
        return f"Gaussian(mean={self.mean}, std={self.std})"


class Multinomial(_Marginal):
    """Categorical marginal; draws use the inverse CDF over category order."""

    tag = option = "multinomial"
    fields = ("categories", "probs")
    is_continuous = False

    def __init__(self, categories, probs):
        categories = _category_labels(categories, "multinomial")
        probs = _as_float_array(probs, "multinomial probabilities")
        if len(categories) != probs.size:
            raise FitError("multinomial needs one probability per category")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-12:
            raise FitError("multinomial probabilities must be >= 0 and sum to 1")
        probs.setflags(write=False)
        self.categories = categories
        self.probs = probs

    def draw(self, n, rng):
        return categories_from_uniform(self.categories, self.probabilities((), n), rng.random(n))

    def probabilities(self, parent_columns, n):
        return np.tile(self.probs, (n, 1))

    def __repr__(self):
        return f"Multinomial({dict(zip(self.categories, np.round(self.probs, 4)))})"


def _category_labels(categories, what):
    """``categories`` as a tuple of strings, if there is at least one and none repeats."""
    labels = tuple(str(c) for c in categories)
    if not labels or len(set(labels)) != len(labels):
        raise FitError(f"{what} categories must be non-empty and unique, got {list(labels)}")
    return labels


def categories_from_uniform(categories, probs, u):
    """Map uniform draws ``u`` to categories by inverse CDF, row by row."""
    cum = np.cumsum(probs, axis=1)
    idx = np.sum(cum <= np.asarray(u)[:, None], axis=1)
    idx = np.minimum(idx, len(categories) - 1)
    return np.array(categories, dtype=object)[idx]


def fit_stochastic(values, kind="auto"):
    """Fit a marginal model to a single column.

    ``auto`` picks :class:`Empirical` for numeric input and
    :class:`Multinomial` (relative frequencies) for categorical input.
    ``gaussian`` uses the sample mean and unbiased standard deviation.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise FitError("cannot fit a marginal to empty input")
    numeric = is_numeric(values)
    if kind == "auto":
        kind = "empirical" if numeric else "multinomial"
    if kind in ("empirical", "gaussian") and not numeric:
        raise FitError(f"kind {kind!r} requires continuous values")
    if kind == "multinomial" and numeric:
        raise FitError("kind 'multinomial' requires categorical values")

    if kind == "empirical":
        return Empirical(values)
    if kind == "gaussian":
        array = _as_float_array(values, "values")
        std = float(array.std(ddof=1)) if array.size > 1 else 0.0
        return Gaussian(float(array.mean()), std)
    if kind == "multinomial":
        categories, counts = np.unique([str(v) for v in values], return_counts=True)
        return Multinomial(tuple(categories), counts / counts.sum())
    raise FitError(f"unknown stochastic kind {kind!r}")


class InputEncoder:
    """Fixed encoding of parent columns into a real design matrix.

    Continuous parents pass through; categorical parents are one-hot encoded
    over the full category list seen at fit time (no category dropped).
    """

    def __init__(self, specs):
        self.specs = tuple(specs)

    @classmethod
    def fit(cls, parent_columns):
        specs = []
        for column in parent_columns:
            if is_numeric(column):
                specs.append(("continuous", None))
            else:
                specs.append(("categorical", categories_of(column)))
        return cls(specs)

    @classmethod
    def continuous(cls, n_parents):
        """Encoder for ``n_parents`` all-continuous parents (for hand-built models)."""
        return cls([("continuous", None)] * n_parents)

    @property
    def width(self):
        return sum(1 if kind == "continuous" else len(cats) for kind, cats in self.specs)

    def encode(self, parent_columns):
        if len(parent_columns) != len(self.specs):
            raise FitError(
                f"expected {len(self.specs)} parent columns, got {len(parent_columns)}"
            )
        n = len(parent_columns[0]) if parent_columns else 0
        parts = [
            _as_float_array(column, "parent values")[:, None]
            if kind == "continuous"
            else one_hot(column, categories)
            for column, (kind, categories) in zip(parent_columns, self.specs)
        ]
        return np.hstack(parts) if parts else np.zeros((n, 0))

    def to_json(self):
        return [
            {"kind": kind} if kind == "continuous" else {"kind": kind, "categories": list(categories)}
            for kind, categories in self.specs
        ]

    @classmethod
    def from_json(cls, payload):
        specs = []
        for item in payload:
            if item["kind"] == "continuous":
                specs.append(("continuous", None))
            elif item["kind"] == "categorical":
                specs.append(("categorical", _category_labels(item["categories"], "encoding")))
            else:
                raise FitError(f"unknown encoding kind {item['kind']!r}")
        return cls(specs)


class LinearModel(_Serialized):
    """Linear regression over the encoded parents."""

    tag = "linear"
    fields = ("coefficients", "intercept")

    def __init__(self, coefficients, intercept):
        coefficients = _as_float_array(coefficients, "coefficients")
        if not math.isfinite(float(intercept)):
            raise FitError("the linear intercept must be finite")
        coefficients.setflags(write=False)
        self.coefficients = coefficients
        self.intercept = float(intercept)

    @property
    def width(self):
        """Number of encoded input columns the model predicts from."""
        return len(self.coefficients)

    def predict(self, encoded):
        return _encoded_queries(encoded, self.width) @ self.coefficients + self.intercept

    def shifted(self, delta):
        """The same model with ``delta`` added to every prediction."""
        return LinearModel(self.coefficients, self.intercept + delta)

    def __repr__(self):
        coefficients = [float(c) for c in self.coefficients]
        return f"LinearModel(coefficients={coefficients}, intercept={self.intercept})"


class KnnRegressor(_Serialized):
    """k-nearest-neighbour regression over the encoded parents.

    A prediction is ``offset`` plus the mean target of the ``k`` training rows
    nearest to the query (Euclidean), where among equal distances the
    earliest rows win.  The k targets are summed in training-row order, on
    every search path, so a prediction's bits depend only on which rows are
    nearest.  The search is a :class:`~gcmkit.stats.NeighbourIndex` of the
    training rows for this ``k``, built on the first prediction and kept: for
    one encoded column, or one-hot blocks beside at most one continuous
    column, each query's k nearest rows are one run of the sorted line, ties
    at its k-th distance settled from the places beside it, so m queries
    then cost O(m·(log n + k)); otherwise all n·m pairs are compared,
    and each query's k least distances are selected in O(n).  The whole
    training set is stored.
    """

    tag = "knn"
    fields = ("k", "offset", "inputs", "targets")

    def __init__(self, k, inputs, targets, offset=0.0):
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = _as_float_array(targets, "targets")
        if inputs.ndim != 2 or len(inputs) != len(targets) or inputs.shape[1] == 0:
            raise FitError(
                f"knn inputs must be a matrix with one row per target and a column, got shape "
                f"{inputs.shape} for {len(targets)} targets"
            )
        if not np.all(np.isfinite(inputs)):
            raise FitError("knn inputs contain non-finite values")
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise FitError(f"k must be an integer, got {k!r}")
        if not 1 <= k <= len(targets):
            raise FitError("k must be between 1 and the number of training rows")
        if not math.isfinite(float(offset)):
            raise FitError("the knn offset must be finite")
        inputs.setflags(write=False)
        targets.setflags(write=False)
        self.k = int(k)
        self.inputs = inputs
        self.targets = targets
        self.offset = float(offset)

    @property
    def width(self):
        """Number of encoded input columns the model predicts from."""
        return self.inputs.shape[1]

    def predict(self, encoded):
        encoded = _encoded_queries(encoded, self.width)
        out = np.empty(len(encoded))
        for rows, order in self._index.nearest(encoded):
            out[rows] = self.targets[order].mean(axis=1)
        return out + self.offset

    def shifted(self, delta):
        """The same model with ``delta`` added to every prediction."""
        return KnnRegressor(self.k, self.inputs, self.targets, self.offset + delta)

    @cached_property
    def _index(self):
        return NeighbourIndex(self.inputs, self.k)

    def __repr__(self):
        return f"KnnRegressor(k={self.k}, n_train={len(self.targets)})"


_PREDICTIONS = {cls.tag: cls for cls in (LinearModel, KnnRegressor)}


def default_knn_k(n_train):
    return max(1, min(int(round(math.sqrt(n_train))), n_train))


def _fit_linear(encoded, targets):
    design = np.hstack([encoded, np.ones((len(targets), 1))])
    gram = design.T @ design
    rhs = design.T @ targets
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        # Ridge fallback keeps degenerate designs (collinear one-hot blocks,
        # constant parents) solvable without changing well-posed fits.
        lam = _RIDGE_SCALE * np.trace(gram) / gram.shape[0]
        gram = gram + lam * np.eye(gram.shape[0])
    beta = np.linalg.solve(gram, rhs)
    if not np.all(np.isfinite(beta)):
        # Data near the largest double overflows the Gram matrix.
        raise NumericError("the least-squares coefficients are not finite")
    return LinearModel(beta[:-1], beta[-1])


def _fit_knn(encoded, targets):
    return KnnRegressor(default_knn_k(len(targets)), encoded, targets)


# fit_anm's prediction fits, by model kind.
_PREDICTION_FITS = {"linear": _fit_linear, "knn": _fit_knn}


class AdditiveNoiseModel(_Serialized):
    """Structural assignment: value = prediction(parents) + noise."""

    tag = family = "anm"
    fields = ("encoding", "prediction", "noise")
    decoders = {
        "encoding": InputEncoder.from_json,
        "prediction": partial(_decode, _PREDICTIONS, "prediction model"),
        "noise": mechanism_from_json,
    }
    is_continuous = True

    def __init__(self, prediction, noise, encoding):
        if not isinstance(noise, (Empirical, Gaussian)):
            raise FitError("additive noise must be a continuous marginal model")
        if prediction.width != encoding.width:
            raise FitError(_width_mismatch(prediction.width, encoding.width))
        self.prediction = prediction
        self.noise = noise
        self.encoding = encoding

    @property
    def option(self):
        return self.prediction.tag

    def draw_noise(self, n, rng):
        return self.noise.draw(n, rng)

    @property
    def noise_variance(self):
        return self.noise.noise_variance

    def forward(self, parent_columns, noise):
        return self.predict(parent_columns) + noise

    def predict(self, parent_columns) -> np.ndarray:
        """Vectorised prediction from raw (unencoded) parent columns."""
        return self.prediction.predict(self.encoding.encode(list(parent_columns)))

    def abduct(self, parent_columns, observed) -> np.ndarray:
        """The residuals ``observed - prediction``: the noise that ``forward`` adds back.

        One more IEEE addition cannot always give ``observed`` back, so a
        counterfactual keeps the observed value wherever the prediction is
        unchanged (see :func:`~gcmkit.sampling.propagate_from_noise`).
        """
        return observed - self.predict(parent_columns)

    def noise_reference(self, n, rng):
        """Residual sample for held-out checks: the stored one of empirical noise, else n draws."""
        if isinstance(self.noise, Empirical):
            return self.noise.samples
        return self.noise.draw(n, rng)

    def __repr__(self):
        return f"AdditiveNoiseModel(prediction={self.prediction!r}, noise={self.noise!r})"


def _cross_validated_mse(encoded, targets, fit_one):
    n = len(targets)
    shuffled = np.random.default_rng(_CV_SHUFFLE_SEED).permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[shuffled] = np.arange(n) % _CV_FOLDS
    squared_errors = []
    for fold in range(_CV_FOLDS):
        test = fold_of == fold
        if not test.any() or test.all():
            continue
        model = fit_one(encoded[~test], targets[~test])
        errors = targets[test] - model.predict(encoded[test])
        squared_errors.append(errors**2)
    return float(np.concatenate(squared_errors).mean())


def fit_anm(parent_columns, targets, model_kind="auto"):
    """Fit an additive noise model of ``targets`` given raw parent columns.

    ``model_kind`` selects the regression family: ``linear`` (ordinary least
    squares with a ridge fallback for singular designs), ``knn``, or ``auto``,
    which picks the family with the lower 5-fold cross-validated MSE.  The
    noise is the empirical residual distribution, mean-centred with the mean
    folded into the regression offset.
    """
    parent_columns = list(parent_columns)
    if not parent_columns:
        raise FitError("an additive noise model needs at least one parent")
    targets = _as_float_array(targets, "targets")
    if targets.size < 2:
        raise FitError("insufficient rows: need at least 2 to fit an additive noise model")
    encoding = InputEncoder.fit(parent_columns)
    encoded = encoding.encode(parent_columns)

    if model_kind == _KNN_AUTO:
        mse_linear = _cross_validated_mse(encoded, targets, _fit_linear)
        mse_knn = _cross_validated_mse(encoded, targets, _fit_knn)
        model_kind = "linear" if mse_linear <= mse_knn else "knn"
    if model_kind not in _PREDICTION_FITS:
        raise FitError(f"unknown model kind {model_kind!r}")

    prediction = _PREDICTION_FITS[model_kind](encoded, targets)
    residuals = targets - prediction.predict(encoded)
    mean = float(residuals.mean())
    noise = Empirical(residuals - mean)
    return AdditiveNoiseModel(prediction.shifted(mean), noise, encoding)


class ClassifierFcm(_Serialized):
    """Multinomial-logistic mechanism for categorical non-root nodes.

    The noise is a uniform variate mapped through the inverse CDF of the
    predicted class probabilities, in category order.
    """

    tag = family = "classifier"
    option = "logistic"
    fields = ("encoding", "categories", "weights")
    decoders = {"encoding": InputEncoder.from_json}
    is_continuous = False

    def __init__(self, encoding, categories, weights):
        weights = np.asarray(weights, dtype=np.float64)
        categories = _category_labels(categories, "classifier")
        if weights.shape != (encoding.width + 1, len(categories)):
            raise FitError("classifier weight shape does not match encoder and categories")
        if not np.all(np.isfinite(weights)):
            raise FitError("classifier weights contain non-finite values")
        weights.setflags(write=False)
        self.encoding = encoding
        self.categories = categories
        self.weights = weights

    def probabilities(self, parent_columns, n) -> np.ndarray:
        encoded = self.encoding.encode(list(parent_columns))
        design = np.hstack([encoded, np.ones((len(encoded), 1))])
        return _softmax(design @ self.weights)

    def draw_noise(self, n, rng):
        return rng.random(n)

    def forward(self, parent_columns, noise) -> np.ndarray:
        return categories_from_uniform(self.categories, self.probabilities(parent_columns, len(noise)), noise)

    def abduct(self, parent_columns, observed):
        raise NonInvertibleError(
            "a classifier mechanism's noise cannot be recovered from an observed value "
            "(use additive noise mechanisms, or intervene on the node atomically)"
        )

    def __repr__(self):
        return f"ClassifierFcm(categories={list(self.categories)})"


def _softmax(logits):
    """Row-wise softmax of a logit matrix, shifted by each row's maximum."""
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


class _NewtonResult(NamedTuple):
    """What :func:`minimize` returns: the minimiser ``x``, the number of
    Newton steps ``nit``, and ``success``, which is always true because a
    fit that does not converge raises instead."""

    x: np.ndarray
    nit: int
    success: bool


# Overflow in a trial step shows up as a non-finite value, which the search
# checks for itself.
@np.errstate(over="ignore", invalid="ignore")
def minimize(objective, x0):
    """Minimise a smooth, strictly convex function by damped Newton steps.

    ``objective(x)`` returns the value at ``x`` and a function of no
    arguments that returns the gradient and Hessian there, so that the
    backtracking pays for values only.  Each step solves the Newton system
    and halves its length until the value falls by at least ``_ARMIJO``
    times the decrease its slope predicts (Armijo's rule), or until that
    decrease is under ``_RESOLUTION`` times the value, too small for the
    value's rounding to confirm.  The search stops once the largest gradient
    entry is under ``_NEWTON_TOL``, and raises
    :class:`~gcmkit.exceptions.NumericError` when it has not after
    ``_NEWTON_MAX_ITER`` steps, when the Newton system is singular, or when
    the value, gradient or Hessian is not finite.  It imports no scipy.

    :func:`fit_classifier` calls it by this module-level name, so a tracer
    can rebind the name to count iterations.
    """
    x = np.asarray(x0, dtype=np.float64)
    value, derivatives = objective(x)
    for nit in range(_NEWTON_MAX_ITER + 1):
        gradient, hessian = derivatives()
        if not (np.isfinite(value) and np.isfinite(gradient).all() and np.isfinite(hessian).all()):
            raise NumericError(f"the Newton iterate is not finite after {nit} steps")
        largest = float(np.abs(gradient).max())
        if largest < _NEWTON_TOL:
            return _NewtonResult(x, nit, True)
        if nit == _NEWTON_MAX_ITER:
            break
        try:
            step = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"the Newton system is singular: {exc}") from exc
        slope = float(gradient @ step)
        length = 1.0
        trial, trial_derivatives = objective(x + step)
        while not trial <= value + _ARMIJO * length * slope and -length * slope > _RESOLUTION * abs(value):
            length /= 2
            trial, trial_derivatives = objective(x + length * step)
        x, value, derivatives = x + length * step, trial, trial_derivatives
    raise NumericError(
        f"no convergence in {_NEWTON_MAX_ITER} Newton steps "
        f"(largest gradient entry {largest:.3g}, tolerance {_NEWTON_TOL:g})"
    )


def _sum_zero_basis(n_classes):
    """Orthonormal columns (Helmert contrasts) spanning the class-weight
    vectors that sum to zero."""
    basis = np.zeros((n_classes, n_classes - 1))
    for p in range(1, n_classes):
        basis[:p, p - 1] = 1.0
        basis[p, p - 1] = -p
        basis[:, p - 1] /= math.sqrt(p * (p + 1))
    return basis


def _multinomial_objective(design, onehot, basis, reg):
    """The classifier's objective, in the form :func:`minimize` takes.

    The objective is the mean multinomial negative log-likelihood of
    ``onehot`` given ``design``, plus ``reg`` times the squared weights.
    The softmax is unchanged when a constant is added to a row of the
    weights, and the penalty is least when each row sums to zero, so the
    minimum lies in that subspace.  The objective takes flattened
    coordinates ``V`` of shape ``(width, classes - 1)`` over ``basis`` ``B``
    (from :func:`_sum_zero_basis`), with weights ``V @ B.T``, so the shift
    leaves no direction of the Hessian to ``reg`` alone.  Only the
    collinearity of one-hot blocks with the intercept column still does, and
    that makes the Newton system positive definite only through ``reg``.

    The Hessian is assembled from (K − 1)K/2 blocks, one weighted Gram
    product of the design each: block (p, q) weights row i by
    Σ_k B_kp B_kq p_ik − (Σ_k B_kp p_ik)(Σ_k B_kq p_ik).
    """
    n, width = design.shape
    free = basis.shape[1]
    # Row weights scale the rows of a contiguous transpose, which halves the
    # cost of each block against scaling ``design`` itself.
    design_t = np.ascontiguousarray(design.T)

    def objective(flat):
        weights = flat.reshape(width, free) @ basis.T
        probs = _softmax(design @ weights)
        nll = -np.mean(np.log(np.maximum((probs * onehot).sum(axis=1), 1e-300)))
        value = float(nll + reg * (weights**2).sum())

        def derivatives():
            gradient = (design.T @ (probs - onehot) / n + 2 * reg * weights) @ basis
            contrasts = probs @ basis
            hessian = np.empty((width, free, width, free))
            for p in range(free):
                for q in range(p, free):
                    row_weights = probs @ (basis[:, p] * basis[:, q]) - contrasts[:, p] * contrasts[:, q]
                    block = (design_t * (row_weights / n)) @ design
                    hessian[:, p, :, q] = block
                    hessian[:, q, :, p] = block
            hessian = hessian.reshape(width * free, width * free)
            hessian[np.diag_indices_from(hessian)] += 2 * reg
            return gradient.ravel(), hessian

        return value, derivatives

    return objective


def fit_classifier(parent_columns, targets):
    """Fit a multinomial-logistic mechanism from raw parent columns.

    The weights minimise the mean multinomial negative log-likelihood plus
    ``1e-6`` times their squared norm, found by :func:`minimize`; a fit that
    does not converge raises :class:`~gcmkit.exceptions.NumericError`.
    """
    parent_columns = list(parent_columns)
    if not parent_columns:
        raise FitError("a classifier mechanism needs at least one parent")
    targets = [str(v) for v in targets]
    if len(targets) < 2:
        raise FitError("insufficient rows: need at least 2 to fit a classifier")
    encoding = InputEncoder.fit(parent_columns)
    encoded = encoding.encode(parent_columns)
    categories = categories_of(targets)
    n, d = encoded.shape
    n_classes = len(categories)
    if n_classes == 1:
        return ClassifierFcm(encoding, categories, np.zeros((d + 1, 1)))

    design = np.hstack([encoded, np.ones((n, 1))])
    basis = _sum_zero_basis(n_classes)
    objective = _multinomial_objective(design, one_hot(targets, categories), basis, _CLASSIFIER_REG)
    result = minimize(objective, np.zeros((d + 1) * (n_classes - 1)))
    return ClassifierFcm(encoding, categories, result.x.reshape(d + 1, n_classes - 1) @ basis.T)


_MECHANISMS = {
    cls.tag: cls for cls in (Empirical, Gaussian, Multinomial, AdditiveNoiseModel, ClassifierFcm)
}
