"""Run one ``gcm`` command with spans recorded around gcmkit's public functions.

Usage: python perfbench/shim.py SPANS_OUT COMMAND_ID GCM_ARG...

The wrappers are installed from outside the package: every module binding of
a wrapped function is replaced (modules import by name, so ``attribution``
reaches ``kl_divergence`` through its own binding), ``KnnRegressor.predict``
and ``InputEncoder.encode`` are patched on their classes, and the Shapley
set function is traced by substituting the ``SetFunction`` name that
``attribution`` binds.  Spans and counts stay in memory and are written to
SPANS_OUT as JSON when the command returns.  Nothing is printed, so stdout is
exactly what ``gcm`` prints.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def enter(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def exit(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced


def _rebind(modules, original, replacement):
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap gcmkit's public functions so that every call records a span in ``tracer``."""
    import numpy as np

    from gcmkit import attribution, data, discovery, mechanisms, model, sampling, seeds, shapley, stats, validation

    modules = [m for name, m in sys.modules.items() if name == "gcmkit" or name.startswith("gcmkit.")]

    def rows_times_columns(args, kwargs, result):
        return {"cells": result.n_rows * len(result.column_names)}

    def noise_values(args, kwargs, result):
        return {"values": sum(len(column) for column in result.values())}

    def kl_pairs(args, kwargs, result):
        n, m = len(args[0]), len(args[1])
        return {"pairs": n * (n + m)}

    def lbfgs(args, kwargs, result):
        return {"iters": int(result.nit), "converged": int(bool(result.success))}

    dcor_signature = inspect.signature(stats.pairwise_independence_test)

    def dcor(args, kwargs, result):
        bound = dcor_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"permutations": bound.arguments["num_permutations"], "n": len(bound.arguments["x"])}

    functions = [
        (data, "read_csv", "data.read_csv", rows_times_columns),
        (model, "loads_model", "model.loads_model", lambda a, k, r: {"bytes": len(a[0])}),
        (model, "dumps_model", "model.dumps_model", lambda a, k, r: {"bytes": len(r)}),
        (mechanisms, "fit_anm", "mechanisms.fit_anm", None),
        (mechanisms, "fit_classifier", "mechanisms.fit_classifier", None),
        (mechanisms, "minimize", "mechanisms.lbfgs", lbfgs),
        (sampling, "draw_noise_values", "sampling.draw_noise_values", noise_values),
        (sampling, "propagate_from_noise", "sampling.propagate_from_noise", None),
        (sampling, "counterfactual", "sampling.counterfactual", None),
        (seeds, "derive_seed", "seeds.derive_seed", None),
        (shapley, "estimate_shapley", "shapley.combine", None),
        (attribution, "intrinsic_influence", "attribution.intrinsic_influence", None),
        (attribution, "attribute_anomaly", "attribution.attribute_anomaly", None),
        (attribution, "distribution_change", "attribution.distribution_change", None),
        (attribution, "arrow_strength", "attribution.arrow_strength", None),
        (stats, "kl_divergence", "stats.kl_divergence", kl_pairs),
        (stats, "pairwise_independence_test", "stats.pairwise_independence_test", dcor),
        (stats, "fisher_z_test", "stats.fisher_z_test", None),
        (discovery, "pc_skeleton", "discovery.pc_skeleton", None),
        (discovery, "orient", "discovery.orient", None),
        (validation, "refute_graph", "validation.refute_graph", None),
        (validation, "evaluate_mechanisms", "validation.evaluate_mechanisms", None),
    ]
    for module, attr, name, count in functions:
        original = getattr(module, attr)
        _rebind(modules, original, tracer.wrap(name, original, count))

    knn_predict = mechanisms.KnnRegressor.predict
    mechanisms.KnnRegressor.predict = tracer.wrap(
        "mechanisms.knn_predict",
        knn_predict,
        lambda a, k, r: {"query_rows": len(a[1]), "pairs": len(a[1]) * len(a[0].targets)},
    )
    encode = mechanisms.InputEncoder.encode
    mechanisms.InputEncoder.encode = tracer.wrap(
        "mechanisms.encode", encode, lambda a, k, r: {"rows": len(r)}
    )

    set_function = attribution.SetFunction

    def traced_set_function(arity, evaluator):
        seen = set()

        def counted(mask):
            key = np.packbits(np.asarray(mask, dtype=bool)).tobytes()
            if key not in seen:
                seen.add(key)
                tracer.counts["shapley.setfn.distinct"] += 1
            return evaluator(mask)

        return set_function(arity, tracer.wrap("shapley.setfn", counted))

    attribution.SetFunction = traced_set_function


def main(argv):
    spans_out, command_id, gcm_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import gcmkit.cli

    import_s = time.perf_counter() - start
    install(tracer)
    index = tracer.enter("cli.run")
    try:
        code = gcmkit.cli.run(gcm_args)
    finally:
        tracer.exit(index)
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(
                {"command": command_id, "import_s": import_s, "spans": tracer.spans, "counts": tracer.counts},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
