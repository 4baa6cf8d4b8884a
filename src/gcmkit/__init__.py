"""gcmkit: graphical causal models over tabular data.

Build a DAG, fit one causal mechanism per node, then query the model:
sampling, interventions, counterfactuals, effect estimation, root-cause
attribution, structure discovery, and graph validation.  Queries never mutate
the model; all randomness is driven by explicit integer seeds.

``import gcmkit`` loads no submodule and not numpy: each public name below is
imported from its submodule the first time it is read (PEP 562), so a ``gcm``
command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "attribution": (
        "AttributionResult",
        "OutlierScorer",
        "arrow_strength",
        "attribute_anomaly",
        "distribution_change",
        "intrinsic_influence",
    ),
    "data": ("CATEGORICAL", "CONTINUOUS", "Dataset", "read_csv", "write_csv"),
    "discovery": ("Cpdag", "Skeleton", "discover_cpdag", "orient", "pc_skeleton"),
    "exceptions": (
        "DataError",
        "FitError",
        "GcmError",
        "GraphError",
        "NonInvertibleError",
        "NumericError",
        "QueryError",
        "SerializationError",
        "UnseenCategoryError",
    ),
    "graph": ("CausalGraph", "parse_graph", "serialize_graph"),
    "mechanisms": (
        "AdditiveNoiseModel",
        "ClassifierFcm",
        "Empirical",
        "Gaussian",
        "InputEncoder",
        "KnnRegressor",
        "LinearModel",
        "Multinomial",
        "fit_anm",
        "fit_classifier",
        "fit_stochastic",
    ),
    "model": (
        "GcmModel",
        "MechanismSpec",
        "assign",
        "auto_assign",
        "dumps_model",
        "fit",
        "load",
        "loads_model",
        "save",
    ),
    "sampling": (
        "Intervention",
        "atomic",
        "average_causal_effect",
        "counterfactual",
        "draw_samples",
        "functional",
        "interventional_samples",
        "shift",
    ),
    "seeds": ("derive_seed", "rng_for"),
    "shapley": ("SetFunction", "ShapleyConfig", "estimate_shapley"),
    "stats": ("TestResult", "fisher_z_test", "kl_divergence", "pairwise_independence_test"),
    "validation": ("EvaluationReport", "RefutationReport", "evaluate_mechanisms", "refute_graph"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import a public name's submodule on first use and keep the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        # Not a public name; ``from gcmkit import stats`` then imports the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
