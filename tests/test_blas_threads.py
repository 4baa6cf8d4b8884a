"""The BLAS thread default: ``gcm`` runs OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is set, while ``cli.run`` and ``import gcmkit``
leave the host's environment alone.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import gcmkit as gk
from gcmkit import cli

VARIABLE = "OPENBLAS_NUM_THREADS"
CHAIN = '{"nodes":["X","Y","Z"],"edges":[["X","Y"],["Y","Z"]]}'

# Run as ``python -c UNTOUCHED ARGV...``: import gcmkit and every submodule,
# run ``gcm ARGV`` through ``cli.run``, and check that the environment never
# changed.
UNTOUCHED = """
import importlib
import os
import pkgutil
import sys

before = dict(os.environ)
import gcmkit

for module in pkgutil.iter_modules(gcmkit.__path__):
    importlib.import_module(f"gcmkit.{module.name}")
assert dict(os.environ) == before

from gcmkit.cli import run

assert run(sys.argv[1:]) == 0
assert dict(os.environ) == before
"""


def env_without_variable(**extra):
    env = {name: value for name, value in os.environ.items() if name != VARIABLE}
    return {**env, **extra}


def main_sees(monkeypatch, value):
    """The variable's value that ``cli.run`` sees when ``cli.main`` starts
    with the variable at ``value`` (``None``: unset)."""
    # setenv first, so the undo restores the variable even where main set it.
    monkeypatch.setenv(VARIABLE, "")
    if value is None:
        monkeypatch.delenv(VARIABLE)
    else:
        monkeypatch.setenv(VARIABLE, value)
    seen = []
    monkeypatch.setattr(cli, "run", lambda argv=None: seen.append(os.environ.get(VARIABLE)) or 0)
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 0
    return seen


def test_main_runs_blas_on_one_thread_by_default(monkeypatch):
    assert main_sees(monkeypatch, None) == ["1"]


def test_main_keeps_the_users_thread_count(monkeypatch):
    assert main_sees(monkeypatch, "4") == ["4"]


@pytest.fixture(scope="module")
def tall_chain(tmp_path_factory):
    """A linear chain X -> Y -> Z of 20 000 rows: each Fisher-z product is a
    ``ddot`` long enough for OpenBLAS to split across threads."""
    root = tmp_path_factory.mktemp("tall")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20_000)
    y = 0.8 * x + rng.standard_normal(20_000)
    z = -0.6 * y + rng.standard_normal(20_000)
    (root / "chain.json").write_text(CHAIN)
    (root / "data.csv").write_text(gk.write_csv(gk.Dataset(["X", "Y", "Z"], [x, y, z])))
    return root


def test_run_and_import_leave_the_environment_alone(tall_chain):
    argv = ["refute", "--graph", tall_chain / "chain.json", "--data", tall_chain / "data.csv"]
    result = subprocess.run(
        [sys.executable, "-c", UNTOUCHED, *map(str, argv)],
        capture_output=True, text=True, env=env_without_variable(),
    )
    assert result.returncode == 0, result.stderr


def test_fisher_z_bytes_do_not_depend_on_the_core_count(tall_chain):
    """On a machine with more than one core, OpenBLAS's default thread count
    would give these p-values other last bits than one thread does."""
    argv = ["refute", "--graph", tall_chain / "chain.json", "--data", tall_chain / "data.csv"]
    outputs = []
    for extra in ({}, {VARIABLE: "1"}):
        result = subprocess.run(
            [sys.executable, "-m", "gcmkit", *map(str, argv)],
            capture_output=True, text=True, env=env_without_variable(**extra),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
