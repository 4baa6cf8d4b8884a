"""The import contract: ``import gcmkit`` loads no submodule and not numpy,
``gcm --help`` and usage errors load neither numpy, ``ctypes`` nor any gcmkit
module but ``gcmkit.cli`` and ``gcmkit.exceptions``, each subcommand loads only the
modules it runs, and no subcommand imports scipy.  No fit needs scipy, a
classifier's included; no distance or neighbour search (kNN, k-NN KL,
distance correlation) does, over one column or several; and the Fisher-z
p-values of ``discover``, ``refute`` and ``test --method fisherz`` come from
a port of the normal tail, not from ``scipy.special``.

Every check runs in a fresh interpreter, because this test process has
scipy and every gcmkit module loaded already.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import gcmkit as gk
from conftest import classifier_data, make_ground_truth_chain

CHAIN = '{"nodes":["X","Y","Z"],"edges":[["X","Y"],["Y","Z"]]}'

# Run as ``python -c BLOCKING PACKAGE ARGS...``: ``python -m gcmkit ARGS...``
# with every import of PACKAGE failing, as if it were not installed.
BLOCKING = """
import importlib.abc
import runpy
import sys

BLOCKED = sys.argv.pop(1)


class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == BLOCKED or name.startswith(BLOCKED + "."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, Block())
runpy.run_module("gcmkit", run_name="__main__", alter_sys=True)
"""

# Run as ``python -c IMPORT_ALL``: every gcmkit submodule and every public
# name, then the scipy modules that were loaded.
IMPORT_ALL = """
import importlib
import pkgutil
import sys

import gcmkit

for module in pkgutil.iter_modules(gcmkit.__path__):
    importlib.import_module(f"gcmkit.{module.name}")
for name in gcmkit.__all__:
    getattr(gcmkit, name)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# Run as ``python -c LAZY_NAMES``: the package's names before and after they
# are imported.
LAZY_NAMES = """
import sys

import gcmkit

assert "numpy" not in sys.modules
assert set(gcmkit.__all__) <= set(dir(gcmkit))
try:
    gcmkit.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("gcmkit.no_such_name resolved")
namespace = {}
exec("from gcmkit import *", namespace)
assert set(gcmkit.__all__) <= namespace.keys()
assert all(namespace[name] is getattr(gcmkit, name) for name in gcmkit.__all__)
"""


def python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


def without(package, *argv):
    """``gcm ARGV`` in a fresh interpreter where ``package`` cannot be imported."""
    return python("-c", BLOCKING, package, *map(str, argv))


def test_import_loads_no_scipy():
    result = python("-c", IMPORT_ALL)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_help_runs_without_scipy():
    result = without("scipy", "--help")
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]], ids=["gcm", "fit"])
def test_help_runs_without_numpy(argv):
    result = without("numpy", *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: ")


def test_usage_error_runs_without_numpy():
    result = without("numpy", "sample", "--model")
    assert result.returncode == 1, result.stderr
    assert "expected one argument" in result.stderr


@pytest.mark.parametrize(
    ("argv", "code", "stream"),
    [(["--help"], 0, "stdout"), (["sample", "--model"], 1, "stderr")],
    ids=["help", "usage-error"],
)
def test_help_and_usage_errors_load_no_ctypes(argv, code, stream):
    """``cli.main`` loads ``ctypes`` for its allocator policy only once the
    arguments parse."""
    result = without("ctypes", *argv)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    assert getattr(result, stream).startswith("usage: ")


def test_public_names_resolve_on_first_use():
    result = python("-c", LAZY_NAMES)
    assert result.returncode == 0, result.stderr


def linear_chain_csv(seed):
    """X -> Y -> Z with linear mechanisms and Gaussian noises."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(500)
    y = 0.8 * x + rng.standard_normal(500)
    z = -0.6 * y + rng.standard_normal(500)
    return gk.write_csv(gk.Dataset(["X", "Y", "Z"], [x, y, z]))


@pytest.fixture(scope="module")
def linear_files(tmp_path_factory):
    """A model file of linear ANMs and Gaussian roots, one observed row, and
    a continuous table of the chain with its graph."""
    root = tmp_path_factory.mktemp("imports")
    gk.save(make_ground_truth_chain(), str(root / "model.json"))
    (root / "row.csv").write_text("X,Y,Z\n0.5,1.0,4.0\n")
    (root / "chain.json").write_text(CHAIN)
    (root / "data.csv").write_text(linear_chain_csv(0))
    return root


@pytest.mark.parametrize(
    "command",
    [
        ["sample", "--model", "{model}", "-n", "20"],
        ["icc", "--model", "{model}", "--target", "Z", "--outer-samples", "5", "--inner-samples", "20"],
        ["attribute-outlier", "--model", "{model}", "--data", "{row}", "--target", "Z",
         "--num-samples", "200"],
        ["counterfactual", "--model", "{model}", "--data", "{row}", "--set", "X=1.5"],
        ["ace", "--model", "{model}", "--treatment", "X", "--value-a", "0", "--value-b", "1",
         "--target", "Z", "-n", "200"],
        ["discover", "--data", "{data}"],
        ["refute", "--graph", "{chain}", "--data", "{data}"],
        ["test", "--data", "{data}", "--x", "X", "--y", "Z", "--method", "fisherz", "--given", "Y"],
    ],
    ids=lambda command: command[0],
)
def test_linear_queries_run_without_scipy(linear_files, command):
    """Linear queries, and the Fisher-z p-values of discovery, refutation and
    the conditional test."""
    paths = {name: linear_files / f"{name}.{ext}" for name, ext in
             [("model", "json"), ("row", "csv"), ("chain", "json"), ("data", "csv")]}
    blocked, plain = blocked_and_plain(*[arg.format(**paths) for arg in command], "--seed", "3")
    assert blocked == plain


def sine_chain_csv(seed, shift=0.0):
    """X -> Y -> Z with sine mechanisms, on which ``auto`` picks kNN."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, 300)
    y = np.sin(2.0 * x) + shift + 0.2 * rng.standard_normal(300)
    z = np.sin(2.0 * y) + 0.2 * rng.standard_normal(300)
    return gk.write_csv(gk.Dataset(["X", "Y", "Z"], [x, y, z]))


def blocked_and_plain(*argv):
    """Stdout of ``gcm ARGV`` with scipy blocked and of a plain run."""
    blocked = without("scipy", *argv)
    plain = python("-m", "gcmkit", *map(str, argv))
    assert blocked.returncode == 0, blocked.stderr
    assert plain.returncode == 0, plain.stderr
    return blocked.stdout, plain.stdout


def fit_argv(root, out):
    return ["fit", "--graph", root / "chain.json", "--data", root / "old.csv", "--seed", "3", "--out", out]


@pytest.fixture(scope="module")
def sine_files(tmp_path_factory):
    """Two batches of the sine chain, and a model fitted to the first."""
    root = tmp_path_factory.mktemp("sine")
    (root / "chain.json").write_text(CHAIN)
    (root / "old.csv").write_text(sine_chain_csv(0))
    (root / "new.csv").write_text(sine_chain_csv(1, shift=0.5))
    fitted = python("-m", "gcmkit", *map(str, fit_argv(root, root / "model.json")))
    assert fitted.returncode == 0, fitted.stderr
    return root


def assert_fit_runs_without_scipy(argv_for, root):
    """A fit with scipy blocked writes ``model.json``'s bytes, and the stdout
    of a plain run."""
    argv = list(map(str, argv_for(root, root / "blocked.json")))
    blocked = without("scipy", *argv)
    assert blocked.returncode == 0, blocked.stderr
    assert (root / "blocked.json").read_text() == (root / "model.json").read_text()
    plain = python("-m", "gcmkit", *argv)
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout


def test_one_column_knn_fit_runs_without_scipy(sine_files):
    assert_fit_runs_without_scipy(fit_argv, sine_files)
    model = (sine_files / "model.json").read_text()
    mechanisms = json.loads(model)["mechanisms"]
    assert [mechanisms[node]["prediction"]["type"] for node in "YZ"] == ["knn", "knn"]


@pytest.mark.parametrize(
    "command",
    [
        ["evaluate", "--model", "{model}", "--data", "{old}"],
        ["intervene", "--model", "{model}", "--set", "X=1.5", "--target", "Z", "-n", "300"],
        ["attribute-change", "--graph", "{chain}", "--old", "{old}", "--new", "{new}", "--target", "Z",
         "--measure", "kl", "--num-samples", "300"],
        ["test", "--data", "{old}", "--x", "X", "--y", "Z", "--method", "dcor", "--permutations", "20"],
    ],
    ids=lambda command: command[0],
)
def test_one_column_neighbour_queries_run_without_scipy(sine_files, command):
    paths = {name: sine_files / f"{name}.{ext}" for name, ext in
             [("model", "json"), ("chain", "json"), ("old", "csv"), ("new", "csv")]}
    blocked, plain = blocked_and_plain(*[arg.format(**paths) for arg in command], "--seed", "3")
    assert blocked == plain


def two_parent_csv(seed):
    """A -> Y <- B with a nonlinear Y, and a categorical column C."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, 200)
    b = rng.uniform(-2.0, 2.0, 200)
    y = np.sin(a) * b + 0.1 * rng.standard_normal(200)
    c = np.where(a + 0.3 * rng.standard_normal(200) > 0, "hi", "lo").astype(object)
    return gk.write_csv(gk.Dataset(["A", "B", "Y", "C"], [a, b, y, c]))


def two_parent_fit_argv(root, out):
    return ["fit", "--graph", root / "graph.json", "--data", root / "data.csv", "--seed", "3", "--out", out]


@pytest.fixture(scope="module")
def two_parent_files(tmp_path_factory):
    """The two-parent table, its graph and a model fitted to it."""
    root = tmp_path_factory.mktemp("two-parent")
    (root / "graph.json").write_text('{"nodes":["A","B","Y"],"edges":[["A","Y"],["B","Y"]]}')
    (root / "data.csv").write_text(two_parent_csv(0))
    fitted = python("-m", "gcmkit", *map(str, two_parent_fit_argv(root, root / "model.json")))
    assert fitted.returncode == 0, fitted.stderr
    return root


def test_two_column_knn_fit_runs_without_scipy(two_parent_files):
    """``auto`` cross-validates kNN on Y's two parent columns."""
    assert_fit_runs_without_scipy(two_parent_fit_argv, two_parent_files)


@pytest.mark.parametrize(
    "command",
    [
        ["intervene", "--model", "{model}", "--set", "A=1", "--target", "Y", "-n", "300"],
        ["test", "--data", "{data}", "--x", "C", "--y", "Y", "--method", "dcor", "--permutations", "20"],
    ],
    ids=lambda command: command[0],
)
def test_multi_column_neighbour_queries_run_without_scipy(two_parent_files, command):
    """kNN regression on Y's two parent columns, and dCor of a one-hot column."""
    paths = {"model": two_parent_files / "model.json", "data": two_parent_files / "data.csv"}
    blocked, plain = blocked_and_plain(*[arg.format(**paths) for arg in command], "--seed", "3")
    assert blocked == plain


def test_classifier_fit_runs_without_scipy(tmp_path):
    """The classifier's solver is numpy: K's fit needs no scipy."""
    (tmp_path / "graph.json").write_text('{"nodes":["X","K"],"edges":[["X","K"]]}')
    (tmp_path / "data.csv").write_text(gk.write_csv(classifier_data(300, 0)))
    fitted = python("-m", "gcmkit", *map(str, two_parent_fit_argv(tmp_path, tmp_path / "model.json")))
    assert fitted.returncode == 0, fitted.stderr
    assert_fit_runs_without_scipy(two_parent_fit_argv, tmp_path)
    mechanisms = json.loads((tmp_path / "model.json").read_text())["mechanisms"]
    assert mechanisms["K"]["type"] == "classifier"


def categorical_csv(seed):
    """C -> X -> K with C -> K: a categorical root C, a continuous X and a
    "hi"/"lo" child K."""
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 3, 300)
    x = np.array([-0.5, 1.0, 2.0])[c] + rng.standard_normal(300)
    k = np.where(x + 0.5 * rng.standard_normal(300) > 1.0, "hi", "lo").astype(object)
    labels = np.array(["a", "b", "c"], dtype=object)[c]
    return gk.write_csv(gk.Dataset(["C", "X", "K"], [labels, x, k]))


# Run as ``python -c MODULES_AFTER ARGV...``: each ARGV, a JSON list, through
# the gcm CLI in this one interpreter, then the names of the loaded modules as
# a JSON list on the last line.
MODULES_AFTER = """
import json
import sys

from gcmkit.cli import run

for argv in sys.argv[1:]:
    assert run(json.loads(argv)) == 0
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(*argvs):
    result = python("-c", MODULES_AFTER, *(json.dumps(list(map(str, argv))) for argv in argvs))
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_categorical_fit_and_arrow_strength_do_not_import_numpy_ma(tmp_path):
    """Category lists are sorted sets of strings, not a bare ``np.unique``,
    which imports ``numpy.ma`` (about 17 ms) in numpy 2.4."""
    (tmp_path / "graph.json").write_text(
        '{"nodes":["C","X","K"],"edges":[["C","X"],["C","K"],["X","K"]]}'
    )
    (tmp_path / "data.csv").write_text(categorical_csv(0))
    model = tmp_path / "model.json"
    fit = ["fit", "--graph", tmp_path / "graph.json", "--data", tmp_path / "data.csv", "--out", model]
    strength = ["arrow-strength", "--model", model, "--edge", "C->K", "-n", "500"]
    assert "numpy.ma" not in modules_after(fit, strength)
    mechanisms = json.loads((tmp_path / "model.json").read_text())["mechanisms"]
    assert mechanisms["K"]["type"] == "classifier"


@pytest.fixture(scope="module")
def numpy_loads_random():
    """Whether a fresh ``import numpy`` loads ``numpy.random``, as numpy 1.24 does."""
    result = python("-c", "import sys, numpy; print('numpy.random' in sys.modules)")
    assert result.returncode == 0, result.stderr
    return result.stdout == "True\n"


@pytest.mark.parametrize(
    ("command", "unused", "draws"),
    [
        (["fit", "--graph", "{chain}", "--data", "{data}", "--out", "{out}"],
         ["sampling", "attribution", "shapley", "discovery", "validation"], True),
        (["sample", "--model", "{model}", "-n", "20"],
         ["attribution", "shapley", "discovery", "validation"], True),
        (["intervene", "--model", "{model}", "--set", "X=1.5", "-n", "20"],
         ["attribution", "shapley", "discovery", "validation"], True),
        (["icc", "--model", "{model}", "--target", "Z", "--outer-samples", "5", "--inner-samples", "20"],
         ["discovery", "validation"], True),
        (["counterfactual", "--model", "{model}", "--data", "{row}", "--set", "X=1.5"],
         ["attribution", "shapley", "discovery", "validation"], False),
        (["discover", "--data", "{data}"],
         ["mechanisms", "model", "sampling", "attribution", "shapley", "validation"], False),
        (["refute", "--graph", "{chain}", "--data", "{data}"],
         ["mechanisms", "model", "sampling", "attribution", "shapley", "discovery"], False),
        (["test", "--data", "{data}", "--x", "X", "--y", "Z", "--method", "fisherz", "--given", "Y"],
         ["graph", "mechanisms", "model", "sampling", "attribution", "shapley", "discovery", "validation"],
         False),
    ],
    ids=["fit", "sample", "intervene", "icc", "counterfactual", "discover", "refute", "test"],
)
def test_subcommand_loads_only_the_modules_it_runs(
    linear_files, tmp_path, numpy_loads_random, command, unused, draws
):
    """A command that draws no random stream does not load ``numpy.random``
    either, where numpy itself leaves it unloaded."""
    paths = {name: linear_files / f"{name}.{ext}" for name, ext in
             [("model", "json"), ("row", "csv"), ("chain", "json"), ("data", "csv")]}
    loaded = modules_after([arg.format(out=tmp_path / "model.json", **paths) for arg in command])
    assert "gcmkit.cli" in loaded
    assert not loaded & {f"gcmkit.{name}" for name in unused}
    if not (draws or numpy_loads_random):
        assert "numpy.random" not in loaded
