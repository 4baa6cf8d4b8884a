"""The import contract: importing gcmkit loads numpy and the standard library
only, and each scipy submodule is imported by the query that needs it.

Every check runs in a fresh interpreter, because this test process has
scipy loaded already.
"""

import subprocess
import sys

import pytest

import gcmkit as gk
from conftest import make_ground_truth_chain

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


@pytest.fixture(scope="module")
def linear_files(tmp_path_factory):
    """A model file of linear ANMs and Gaussian roots, and one observed row."""
    root = tmp_path_factory.mktemp("imports")
    gk.save(make_ground_truth_chain(), str(root / "model.json"))
    (root / "row.csv").write_text("X,Y,Z\n0.5,1.0,4.0\n")
    return root


@pytest.mark.parametrize(
    "command",
    [
        ["sample", "-n", "20"],
        ["icc", "--target", "Z", "--outer-samples", "5", "--inner-samples", "20"],
        ["attribute-outlier", "--data", "{row}", "--target", "Z", "--num-samples", "200"],
    ],
    ids=lambda command: command[0],
)
def test_linear_queries_run_without_scipy(linear_files, command):
    argv = [
        arg.format(row=linear_files / "row.csv")
        for arg in [command[0], "--model", str(linear_files / "model.json"), "--seed", "3", *command[1:]]
    ]
    blocked = python("-c", BLOCKED, *argv)
    plain = python("-m", "gcmkit", *argv)
    assert blocked.returncode == 0, blocked.stderr
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout
