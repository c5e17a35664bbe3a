"""Each demo runs to completion in a fresh interpreter.

A demo writes its outputs to ``out/`` beside its own file, so each runs
from a copy in a temporary directory and never writes into the source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import boundarykit as bk

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copyfile(demo, script)
    # the boundarykit that this process imported, first on the path
    package_root = str(Path(bk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert out.returncode == 0, out.stderr
