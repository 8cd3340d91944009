"""What the package imports, and the BLAS thread pin its import sets."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cablearm

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_the_standard_library_and_numpy():
    """The runtime dependency is numpy only: every absolute import of the
    package names a standard-library module or numpy."""
    foreign = []
    for path in sorted(Path(cablearm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_import_pins_one_blas_thread_with_threadpoolctl_on_the_path(tmp_path):
    """With both thread-count variables unset and a stand-in threadpoolctl
    importable, ``import cablearm`` still sets them to one thread: the
    variables are the one pin, whatever else is installed."""
    (tmp_path / "threadpoolctl.py").write_text("def threadpool_limits(*args, **kwargs):\n"
                                                "    return None\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(tmp_path), str(Path(cablearm.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import os, cablearm; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "1"]
