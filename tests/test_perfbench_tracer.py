"""perfbench's span tracer still sees the QP.

The tracer's ``control.qp.active_*`` metrics count the bounds active at
each QP's answer from the QP's arguments, read by position; a change of the
QP's signature that blinds them fails here instead of reading 0.
"""

import importlib.util
from pathlib import Path

from cablearm import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """The benchmark module ``perfbench/<name>.py``, left unchanged."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_active_bounds_of_each_qp(tmp_path):
    """0.1 s of the workload whose increment bounds bind: one QP span per
    period, and at least one bound active at some QP's answer."""
    tracer, workloads = _load("tracer"), _load("workloads")
    doc = workloads.scenario("cl_integrated2_coarse_tight", 1, 0.1)
    with tracer.Tracer().patched() as tr:
        cli.run_scenario(doc, tmp_path)
    assert tr.names.count("control.qp") == 10
    assert tr.layer_metrics()["control.qp.active_max"] >= 1
