"""The names the benchmark's trace shim rebinds still exist and are still called.

``perfbench/shim.py`` traces a ``gcm`` command by replacing module-level
names from outside the package, among them ``attribution.SetFunction`` and
``mechanisms.minimize``.  A rename would not fail any other test here, so this
runs the shim, unmodified, on a tiny model and checks that its spans are
recorded and that stdout is the same as a plain ``gcm`` run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gcmkit as gk

ROOT = Path(__file__).resolve().parent.parent
SHIM = ROOT / "perfbench" / "shim.py"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A C -> X -> K graph whose categorical K is fitted by a classifier."""
    root = tmp_path_factory.mktemp("trace")
    rng = np.random.default_rng(0)
    c = np.array(rng.choice(["a", "b"], 200), dtype=object)
    x = np.where(c == "a", -1.0, 1.0) + rng.standard_normal(200)
    k = np.array(np.where(x + 0.5 * rng.standard_normal(200) > 0, "hi", "lo"), dtype=object)
    (root / "graph.json").write_text('{"nodes":["C","X","K"],"edges":[["C","X"],["X","K"]]}')
    (root / "data.csv").write_text(gk.write_csv(gk.Dataset(["C", "X", "K"], [c, x, k])))
    fitted = _run(
        ["fit", "--graph", "graph.json", "--data", "data.csv", "--seed", "1", "--out", "model.json"], root
    )
    assert fitted.returncode == 0, fitted.stderr
    return root


def _run(gcm_args, cwd, shim_args=None):
    """``gcm`` with ``gcm_args``, run plainly or, given ``shim_args``, through the shim."""
    prefix = [str(SHIM), *shim_args] if shim_args else ["-m", "gcmkit"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *prefix, *gcm_args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "command, span",
    [
        (["fit", "--graph", "graph.json", "--data", "data.csv", "--seed", "1"], "mechanisms.lbfgs"),
        (["icc", "--model", "model.json", "--target", "X", "--outer-samples", "3",
          "--inner-samples", "5", "--seed", "1"], "shapley.setfn"),
    ],
    ids=["fit", "icc"],
)
def test_shim_traces_the_rebound_names(workdir, command, span):
    plain = _run(command, workdir)
    assert plain.returncode == 0, plain.stderr
    spans_out = workdir / f"{command[0]}-spans.json"
    traced = _run(command, workdir, shim_args=[str(spans_out), command[0]])
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    names = {name for name, *_ in json.loads(spans_out.read_text())["spans"]}
    assert span in names
