# cablearm before numpy: cablearm pins OpenBLAS to one thread through
# OPENBLAS_NUM_THREADS, which OpenBLAS reads only when numpy loads it.
# Imported after numpy, the suite would run at the default thread count,
# whose summation order gives other integrated2 traces than a ``cablearm``
# command's.
import cablearm  # noqa: F401
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def hcdr():
    from cablearm.model import builtin_hcdr9dof

    return builtin_hcdr9dof()


@pytest.fixture
def rng():
    """A generator of its own for each test, so no test's draws depend on
    which tests ran before it."""
    return np.random.default_rng(20240801)
