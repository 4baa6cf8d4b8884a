"""The import contract: importing gcmkit loads numpy and the standard library
only, and no subcommand imports scipy.  No fit needs scipy, a classifier's
included; no distance or neighbour search (kNN, k-NN KL, distance
correlation) does, over one column or several; and the Fisher-z p-values
of ``discover``, ``refute`` and ``test --method fisherz`` come from a port
of the normal tail, not from ``scipy.special``.

Every check runs in a fresh interpreter, because this test process has
scipy loaded already.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import gcmkit as gk
from conftest import classifier_data, make_ground_truth_chain

CHAIN = '{"nodes":["X","Y","Z"],"edges":[["X","Y"],["Y","Z"]]}'

# Run as ``python -c BLOCKED ARGS...``: the gcm CLI with every scipy import
# failing, as if scipy were not installed.
BLOCKED = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from gcmkit.cli import run

sys.exit(run(sys.argv[1:]))
"""


def python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


def test_import_loads_no_scipy():
    result = python(
        "-c",
        "import sys, gcmkit.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_help_runs_without_scipy():
    result = python("-c", BLOCKED, "--help")
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


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
    blocked = python("-c", BLOCKED, *map(str, argv))
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
    blocked = python("-c", BLOCKED, *argv)
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
        ["arrow-strength", "--model", "{model}", "--edge", "A->Y", "--measure", "kl", "-n", "300"],
        ["test", "--data", "{data}", "--x", "C", "--y", "Y", "--method", "dcor", "--permutations", "20"],
    ],
    ids=lambda command: command[0],
)
def test_multi_column_neighbour_queries_run_without_scipy(two_parent_files, command):
    """k-NN KL over the 3-wide (A, B, Y) joint, and dCor of a one-hot column."""
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
