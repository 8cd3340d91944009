"""Smoke tests of the runnable scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import cablearm

ROOT = Path(__file__).resolve().parents[1]


def test_stiffness_grid_script(tmp_path):
    package_root = str(Path(cablearm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stiffness_grid.py"), "--resolution", "3",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "stiffness_grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 3
    assert lines[0] == "T_3,T_4,J_K,min_eig"
