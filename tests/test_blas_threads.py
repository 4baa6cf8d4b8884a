"""The process policy of ``cli.main``: ``gcm`` runs OpenBLAS on one thread
unless ``OPENBLAS_NUM_THREADS`` is set, runs without cycle collection, and
has glibc's ``malloc`` keep the memory a command frees, while ``cli.run`` and
``import gcmkit`` leave the host's environment, collector and allocator
alone.
"""

import contextlib
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gcmkit as gk
from conftest import make_ground_truth_chain
from gcmkit import cli

VARIABLE = "OPENBLAS_NUM_THREADS"
CHAIN = '{"nodes":["X","Y","Z"],"edges":[["X","Y"],["Y","Z"]]}'

# Run as ``python -c UNTOUCHED ARGV...``: import gcmkit and every submodule,
# run ``gcm ARGV`` through ``cli.run``, and check that the environment and the
# collector never changed and that nothing looked up ``mallopt``.
UNTOUCHED = """
import ctypes
import gc
import importlib
import os
import pkgutil
import sys


class NoMallopt(ctypes.CDLL):
    def __getattr__(self, name):
        assert name != "mallopt", "mallopt was looked up"
        return super().__getattr__(name)


ctypes.CDLL = NoMallopt
before = dict(os.environ)
import gcmkit

for module in pkgutil.iter_modules(gcmkit.__path__):
    importlib.import_module(f"gcmkit.{module.name}")
assert dict(os.environ) == before
assert gc.isenabled() and gc.get_freeze_count() == 0

from gcmkit.cli import run

assert run(sys.argv[1:]) == 0
assert dict(os.environ) == before
assert gc.isenabled() and gc.get_freeze_count() == 0
"""


# Run as ``python -c COUNTED ARGV...``: ``gcm ARGV`` through ``cli.main``,
# then the number of ``mallopt`` lookups on stderr.
COUNTED = """
import atexit
import ctypes
import sys

lookups = []


class Counting(ctypes.CDLL):
    def __getattr__(self, name):
        lookups.append(name == "mallopt")
        return super().__getattr__(name)


ctypes.CDLL = Counting
atexit.register(lambda: print(f"mallopt lookups: {sum(lookups)}", file=sys.stderr))
from gcmkit.cli import main

sys.argv[0] = "gcm"
main()
"""

# Run as ``python -c RUN ARGV...``: ``gcm ARGV`` through ``cli.run`` alone.
RUN = "import sys; from gcmkit.cli import run; sys.exit(run(sys.argv[1:]))"


def env_without_variable(**extra):
    env = {name: value for name, value in os.environ.items() if name != VARIABLE}
    return {**env, **extra}


@contextlib.contextmanager
def main_with(monkeypatch, run=None, reuse_freed_memory=lambda: None):
    """Call ``cli.main`` with ``run`` in place of ``cli.run`` (if given) and
    ``reuse_freed_memory`` in place of the allocator policy, so the test
    process keeps its own allocator, and yield its exit code; on leaving,
    give the test process its collector back, which ``main`` leaves disabled
    and frozen."""
    if run is not None:
        monkeypatch.setattr(cli, "run", run)
    monkeypatch.setattr(cli, "_reuse_freed_memory", reuse_freed_memory)
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        yield exit_info.value.code
    finally:
        gc.enable()
        gc.unfreeze()


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
    with main_with(monkeypatch, lambda prepare: seen.append(os.environ.get(VARIABLE)) or 0) as code:
        assert code == 0
    return seen


def test_main_runs_blas_on_one_thread_by_default(monkeypatch):
    assert main_sees(monkeypatch, None) == ["1"]


def test_main_keeps_the_users_thread_count(monkeypatch):
    assert main_sees(monkeypatch, "4") == ["4"]


def test_main_runs_without_cycle_collection_and_exits_frozen(monkeypatch):
    seen = []
    with main_with(monkeypatch, lambda prepare: seen.append(gc.isenabled()) or 0) as code:
        frozen = gc.get_freeze_count()
    assert (code, seen) == (0, [False])
    assert frozen > 0
    # The test process has its collector back.
    assert gc.isenabled() and gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    ("argv", "code", "applied"),
    [
        (["sample", "--model", "{model}", "-n", "3"], 0, 1),
        (["sample", "--model", "{missing}"], 2, 1),
        (["sample", "--model"], 1, 0),
        (["--help"], 0, 0),
    ],
    ids=["command", "input-error", "usage-error", "help"],
)
def test_main_applies_the_allocator_policy_once_the_arguments_parse(
    monkeypatch, capsys, tmp_path, argv, code, applied
):
    gk.save(make_ground_truth_chain(), str(tmp_path / "model.json"))
    paths = {"model": tmp_path / "model.json", "missing": tmp_path / "missing.json"}
    monkeypatch.setattr(sys, "argv", ["gcm", *(arg.format(**paths) for arg in argv)])
    # Set here, so the thread default that main would set is undone after the test.
    monkeypatch.setenv(VARIABLE, "1")
    calls = []
    with main_with(monkeypatch, reuse_freed_memory=lambda: calls.append(None)) as exit_code:
        assert exit_code == code
    assert len(calls) == applied
    capsys.readouterr()


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


def ten_player_chain(n, seed):
    """A linear chain X0 -> ... -> X9: its last node has ten players."""
    rng = np.random.default_rng(seed)
    columns = [rng.standard_normal(n)]
    for _ in range(9):
        columns.append(0.7 * columns[-1] + rng.standard_normal(n))
    return gk.Dataset([f"X{i}" for i in range(10)], columns)


def test_main_prints_the_bytes_of_run_with_the_allocator_policy(tmp_path):
    """Outlier attribution over 1 024 subsets in chunks of 32, each chunk
    allocating and freeing its stacked columns: ``python -m gcmkit`` (which
    looks ``mallopt`` up once) prints what ``cli.run`` prints without it."""
    data = ten_player_chain(300, 0)
    nodes = list(data.column_names)
    graph = gk.CausalGraph(nodes, list(zip(nodes, nodes[1:])))
    gk.save(gk.fit(gk.auto_assign(graph, data), data), str(tmp_path / "model.json"))
    (tmp_path / "row.csv").write_text(",".join(nodes) + "\n" + ",".join(["0.5"] * 9 + ["6.0"]) + "\n")
    argv = ["attribute-outlier", "--model", tmp_path / "model.json", "--data", tmp_path / "row.csv",
            "--target", "X9", "--num-samples", "2000", "--seed", "7"]
    outputs = []
    for launch in (["-m", "gcmkit"], ["-c", COUNTED], ["-c", RUN]):
        result = subprocess.run(
            [sys.executable, *launch, *map(str, argv)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
        if launch[1] == COUNTED:
            assert result.stderr == "mallopt lookups: 1\n"
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(json.loads(outputs[0])["scores"]) == 10
