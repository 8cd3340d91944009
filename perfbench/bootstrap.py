"""Process set-up shared by every benchmark entry point.

cablearm pins BLAS to one thread at import, but without threadpoolctl it
can only do so through environment variables, which take effect only if
numpy has not been imported yet.  ``pin_and_import`` therefore sets them
itself and imports cablearm from the checkout's ``src`` before anything
imports numpy.  Call it first, then import the other benchmark modules.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class MissingSourceError(RuntimeError):
    pass


def child_env() -> dict:
    """Environment of a measured child process: pinned BLAS, checkout src."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def pin_and_import():
    """Pin BLAS threads, put the checkout's src first and import cablearm."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    if not (SRC / "cablearm" / "__init__.py").is_file():
        raise MissingSourceError(f"cablearm sources not found under {SRC}")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import cablearm

    if Path(cablearm.__file__).resolve().parent != SRC / "cablearm":
        raise MissingSourceError(f"imported cablearm from {cablearm.__file__}, not {SRC}")
    return cablearm
