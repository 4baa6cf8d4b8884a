"""Every fenced ``python`` block of README.md runs to completion against the
package in ``src``, each in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# Each block keyed by the line of its opening fence.
BLOCKS = {
    README.count("\n", 0, match.start()) + 1: match.group(1)
    for match in re.finditer(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
}


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line", BLOCKS, ids=[f"README.md:{line}" for line in BLOCKS])
def test_readme_block_runs(line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", BLOCKS[line]], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
