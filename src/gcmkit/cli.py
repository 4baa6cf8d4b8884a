"""Batch command-line interface: ``gcm <subcommand>`` over files, JSON results.

Exit codes: 0 success, 1 usage error, 2 input error (graph/data/model files,
or a Monte-Carlo budget too large for memory), 3 numeric failure.  All
randomness flows through ``--seed`` (default 0), so a command run twice with
the same seed prints byte-identical output.  ``main`` runs OpenBLAS on one
thread unless ``OPENBLAS_NUM_THREADS`` is set, so those bytes do not depend on
the machine's core count either.
"""

import argparse
import json
import os
import sys
import warnings

from .exceptions import DataError, GcmError, GraphError, NumericError, QueryError, require_count

# Each command imports the modules it runs inside its handler, so the parser,
# ``--help`` and usage errors load neither numpy nor the rest of gcmkit.

SCHEMA_VERSION = 1
# The options that set a command's Monte-Carlo budget, named when it runs out
# of memory.
_BUDGET_OPTIONS = ("n", "num_samples", "outer_samples", "inner_samples", "permutations")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this tool reserves 2 for input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path, error):
    """The text of ``path``, or ``error`` (``GraphError`` or ``DataError``)
    naming the file if it is not UTF-8."""
    # utf-8-sig drops a leading byte-order mark, which would otherwise start
    # the first header or make the JSON invalid.
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def _load_graph(path):
    from .graph import parse_graph

    text = _read_text(path, GraphError)
    fmt = "dot" if text.lstrip().startswith("digraph") else "json"
    return parse_graph(text, fmt)


def _load_data(path):
    from .data import read_csv

    return read_csv(_read_text(path, DataError))


def _load_model(path):
    from .model import load

    return load(path)


def _load_row(path):
    """The one row of a CSV file as its text cells: each query types a value
    by its node's mechanism, not by the lone cell of its column."""
    from .data import read_rows

    header, body = read_rows(_read_text(path, DataError))
    if len(body) != 1:
        raise QueryError(f"expected a single-row CSV, got {len(body)} rows in {path}")
    return dict(zip(header, body[0]))


def _parse_assignment(text, flag):
    node, sep, value = text.partition("=")
    if not sep or not node:
        raise _UsageError(f"{flag} expects NODE=VALUE, got {text!r}")
    return node, value


def _interventions_from_args(args):
    from .sampling import atomic, shift

    interventions = []
    for item in getattr(args, "set", None) or []:
        node, value = _parse_assignment(item, "--set")
        interventions.append(atomic(node, value))
    for item in getattr(args, "shift", None) or []:
        node, value = _parse_assignment(item, "--shift")
        try:
            delta = float(value)
        except ValueError as exc:
            raise _UsageError(f"--shift delta must be numeric, got {value!r}") from exc
        interventions.append(shift(node, delta))
    return interventions


def _dataset_payload(dataset):
    columns = list(dataset.column_names)
    # Continuous columns are float64 and categorical ones hold str, so
    # tolist() yields exactly the Python floats and strings JSON needs.
    rows = list(zip(*(dataset.column(name).tolist() for name in columns)))
    return {"columns": columns, "rows": rows}


def _cmd_fit(args):
    from .model import auto_assign, dumps_model, fit, save

    graph = _load_graph(args.graph)
    dataset = _load_data(args.data)
    model = fit(auto_assign(graph, dataset), dataset)
    if args.out:
        save(model, args.out)
        return {"nodes": len(graph.nodes), "model_file": args.out}
    sys.stdout.write(dumps_model(model) + "\n")
    return None


def _cmd_sample(args):
    from .sampling import draw_samples

    model = _load_model(args.model)
    return _dataset_payload(draw_samples(model, args.n, args.seed))


def _cmd_intervene(args):
    from .sampling import interventional_samples

    model = _load_model(args.model)
    interventions = _interventions_from_args(args)
    samples = interventional_samples(model, interventions, args.n, args.seed)
    if args.target:
        column = samples.column(args.target)
        if samples.kind(args.target) != "continuous":
            raise QueryError(f"--target {args.target!r} is categorical; no mean to report")
        return {
            "target": args.target,
            "mean": float(column.mean()),
            "std": float(column.std(ddof=1)) if args.n > 1 else 0.0,
            "n": args.n,
        }
    return _dataset_payload(samples)


def _cmd_counterfactual(args):
    from .sampling import counterfactual

    model = _load_model(args.model)
    row = _load_row(args.data)
    result = counterfactual(model, row, _interventions_from_args(args))
    return {"values": result}


def _cmd_ace(args):
    from .sampling import _node_value, average_causal_effect

    model = _load_model(args.model)
    effect = average_causal_effect(
        model, args.treatment, args.value_a, args.value_b, args.target, n=args.n, seed=args.seed
    )
    return {
        "treatment": args.treatment,
        "target": args.target,
        "value_a": _node_value(model, args.treatment, args.value_a, "value_a"),
        "value_b": _node_value(model, args.treatment, args.value_b, "value_b"),
        "ace": effect,
        "n": args.n,
    }


def _cmd_attribute_outlier(args):
    from .attribution import attribute_anomaly

    model = _load_model(args.model)
    row = _load_row(args.data)
    result = attribute_anomaly(
        model, args.target, row, num_samples=args.num_samples, seed=args.seed
    )
    return result.to_json()


def _cmd_attribute_change(args):
    from .attribution import distribution_change

    graph = _load_graph(args.graph)
    result = distribution_change(
        graph,
        _load_data(args.old),
        _load_data(args.new),
        args.target,
        measure=args.measure,
        num_samples=args.num_samples,
        seed=args.seed,
    )
    return result.to_json()


def _cmd_icc(args):
    from .attribution import intrinsic_influence

    model = _load_model(args.model)
    result = intrinsic_influence(
        model,
        args.target,
        outer_samples=args.outer_samples,
        inner_samples=args.inner_samples,
        seed=args.seed,
    )
    return result.to_json()


def _cmd_arrow_strength(args):
    from .attribution import arrow_measure, arrow_strength

    model = _load_model(args.model)
    parent, sep, child = args.edge.partition("->")
    if not sep:
        raise _UsageError(f"--edge expects PARENT->CHILD, got {args.edge!r}")
    edge = (parent.strip(), child.strip())
    measure = arrow_measure(model, edge, args.measure)
    strength = arrow_strength(model, edge, measure=measure, n=args.n, seed=args.seed)
    return {"edge": list(edge), "measure": measure, "strength": strength}


def _cmd_discover(args):
    from .discovery import discover_cpdag

    cpdag = discover_cpdag(_load_data(args.data), args.alpha, args.max_cond_set)
    return cpdag.to_json()


def _cmd_refute(args):
    from .validation import refute_graph

    report = refute_graph(_load_graph(args.graph), _load_data(args.data), args.alpha)
    return report.to_json()


def _cmd_evaluate(args):
    from .validation import evaluate_mechanisms

    model = _load_model(args.model)
    report = evaluate_mechanisms(model, _load_data(args.data), seed=args.seed)
    return report.to_json()


def _cmd_test(args):
    from .stats import MAX_PERMUTATIONS, fisher_z_test, pairwise_independence_test

    data = _load_data(args.data)
    given = [name for name in (args.given.split(",") if args.given else []) if name]
    method = args.method
    if method == "auto":
        method = "fisherz" if given else "dcor"
    if method == "fisherz":
        return fisher_z_test(data, args.x, args.y, given).to_json()
    # argparse's choices leave dcor as the only other method.
    if given:
        raise _UsageError("--given requires --method fisherz (or auto)")
    if args.x == args.y:
        raise QueryError(f"dcor needs x and y to name distinct columns, got {args.x!r} twice")
    require_count(args.permutations, "--permutations", maximum=MAX_PERMUTATIONS)
    return pairwise_independence_test(
        data.column(args.x), data.column(args.y), args.permutations, args.seed
    ).to_json()


def build_parser() -> _Parser:
    parser = _Parser(prog="gcm", description="Causal queries over a fitted graphical causal model.")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, handler, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
        sub.add_argument("--out", help="write the JSON result to this file instead of stdout")
        return sub

    sub = command("fit", _cmd_fit, "fit mechanisms for a graph from CSV data")
    sub.add_argument("--graph", required=True)
    sub.add_argument("--data", required=True)

    sub = command("sample", _cmd_sample, "draw joint samples from a fitted model")
    sub.add_argument("--model", required=True)
    sub.add_argument("-n", type=int, default=100)

    sub = command("intervene", _cmd_intervene, "sample under interventions")
    sub.add_argument("--model", required=True)
    sub.add_argument("--set", action="append", metavar="NODE=VALUE")
    sub.add_argument("--shift", action="append", metavar="NODE=DELTA")
    sub.add_argument("--target")
    sub.add_argument("-n", type=int, default=10000)

    sub = command("counterfactual", _cmd_counterfactual, "counterfactual for one observed row")
    sub.add_argument("--model", required=True)
    sub.add_argument("--data", required=True, help="single-row CSV with all node columns")
    sub.add_argument("--set", action="append", metavar="NODE=VALUE")
    sub.add_argument("--shift", action="append", metavar="NODE=DELTA")

    sub = command("ace", _cmd_ace, "average causal effect of a treatment on a target")
    sub.add_argument("--model", required=True)
    sub.add_argument("--treatment", required=True)
    sub.add_argument("--value-a", required=True)
    sub.add_argument("--value-b", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("-n", type=int, default=100000)

    sub = command("attribute-outlier", _cmd_attribute_outlier, "attribute one outlying row to upstream nodes")
    sub.add_argument("--model", required=True)
    sub.add_argument("--data", required=True, help="single-row CSV with the anomalous observation")
    sub.add_argument("--target", required=True)
    sub.add_argument("--num-samples", type=int, default=5000)

    sub = command("attribute-change", _cmd_attribute_change, "attribute a distribution change to nodes")
    sub.add_argument("--graph", required=True)
    sub.add_argument("--old", required=True)
    sub.add_argument("--new", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--measure", default="auto", choices=["auto", "mean_diff", "kl"])
    sub.add_argument("--num-samples", type=int, default=10000)

    sub = command("icc", _cmd_icc, "intrinsic causal influence on a target's variance")
    sub.add_argument("--model", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--outer-samples", type=int, default=100)
    sub.add_argument("--inner-samples", type=int, default=500)

    sub = command("arrow-strength", _cmd_arrow_strength, "direct strength of one edge")
    sub.add_argument("--model", required=True)
    sub.add_argument("--edge", required=True, metavar="PARENT->CHILD")
    sub.add_argument("--measure", default="auto", choices=["auto", "coupled_msd", "kl"])
    sub.add_argument("-n", type=int, default=50000)

    sub = command("discover", _cmd_discover, "learn a CPDAG from data with the PC algorithm")
    sub.add_argument("--data", required=True)
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--max-cond-set", type=int, default=3)

    sub = command("refute", _cmd_refute, "test a graph's implied independences against data")
    sub.add_argument("--graph", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--alpha", type=float, default=0.05)

    sub = command("evaluate", _cmd_evaluate, "evaluate fitted mechanisms on held-out data")
    sub.add_argument("--model", required=True)
    sub.add_argument("--data", required=True)

    sub = command("test", _cmd_test, "independence tests on CSV columns")
    sub.add_argument("--data", required=True)
    sub.add_argument("--x", required=True)
    sub.add_argument("--y", required=True)
    sub.add_argument("--given", help="comma-separated conditioning columns (fisher-z)")
    sub.add_argument("--method", default="auto", choices=["auto", "dcor", "fisherz"])
    sub.add_argument("--permutations", type=int, default=199)

    return parser


def _numeric_errors():
    """The exceptions that exit 3: ``NumericError``, and numpy's
    ``LinAlgError`` once a handler has loaded numpy (none is raised before)."""
    numpy = sys.modules.get("numpy")
    return (NumericError,) if numpy is None else (NumericError, numpy.linalg.LinAlgError)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        # A numpy RuntimeWarning would print a source line to stderr; an
        # overflow that reaches the answer exits 3 with its own message.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            payload = args.handler(args)
        if payload is not None:
            envelope = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "seed": args.seed,
                **payload,
            }
            try:
                text = json.dumps(envelope, separators=(",", ":"), allow_nan=False)
            except ValueError as exc:  # an inf or NaN, which strict JSON cannot hold
                raise NumericError(f"the result is not finite: {exc}") from exc
            if args.out and args.command != "fit":
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            else:
                sys.stdout.write(text + "\n")
    except _UsageError as exc:
        print(f"gcm {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except _numeric_errors() as exc:
        print(f"gcm {args.command}: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (GcmError, OSError) as exc:
        print(f"gcm {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        budget = " ".join(
            f"{'-n' if dest == 'n' else '--' + dest.replace('_', '-')} {getattr(args, dest)}"
            for dest in _BUDGET_OPTIONS
            if hasattr(args, dest)
        )
        cause = f" for the Monte-Carlo budget {budget}" if budget else ""
        print(f"gcm {args.command}: error: out of memory{cause}", file=sys.stderr)
        return 2
    return 0


def main():
    """The ``gcm`` script and ``python -m gcmkit``: :func:`run` on one BLAS
    thread.

    OpenBLAS, which numpy's wheels bundle, starts a worker thread per core
    when it loads, and each worker spins before it sleeps (about 0.13
    CPU-seconds per command on a 2-CPU Xeon).  gcmkit's BLAS calls are all
    too small to share, and a ``ddot`` of more than 10 000 elements is split
    across the threads, so its bits (a Fisher-z p-value's) would depend on
    the core count.  The default is set before any handler imports numpy; a
    value the user has set wins.  Only OpenBLAS reads this variable: MKL and
    Accelerate builds are left alone, since limiting them at run time would
    take threadpoolctl, a new dependency.  ``run`` and ``import gcmkit``
    never touch threading, so a host process keeps its own.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run())
