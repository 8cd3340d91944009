"""Generated mutations of a scenario's ``controller`` object.

Each example replaces (or deletes) one leaf of a fully written controller
object, under one architecture, with a value from the malformed-input list:
another JSON type, NaN, +-Infinity, 0, -1, 1e300, 2**64, a list or an
object.  The document is only resolved; no simulation runs.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cablearm import sim
from cablearm.errors import ModelParseError, ScenarioError

# the README's documented defaults, which an omitted setting takes
DEFAULTS = {"Ts_s": 0.01, "Np": 50, "Nc": 50, "Q_scale": 1.0, "R_scale": 1e-4, "P_scale": 1.0}
DU_DEFAULT = [80.0, 80.0, 2.0, 2.0]
PID_DEFAULTS = {"Kp": 400.0, "Ki": 100.0, "Kd": 10.0}
INPUTS = {"independent": 2, "integrated1": 2, "integrated2": 4}

DELETE = object()   # drop the leaf, so that its default applies
VALUES = ("text", True, None, math.nan, math.inf, -math.inf, 0, -1, 1e300, 2**64,
          [1.0, 2.0, 3.0, 4.0, 5.0], {"k": 1}, {}, DELETE)


def _controller(p: int) -> dict:
    """Every leaf written, none at its default."""
    return {"Ts_s": 0.02, "Np": 20, "Nc": 10, "Q_scale": 2.5, "R_scale": 3e-4, "P_scale": 0.3,
            "du_bound": [5.0, math.inf, 0.2, 0.5][:p], "pid": {"Kp": 300.0, "Ki": 50.0, "Kd": 5.0}}


def _leaves(p: int) -> list[tuple]:
    return ([(key,) for key in _controller(p)] + [("pid", key) for key in PID_DEFAULTS]
            + [("du_bound", i) for i in range(p)])


@st.composite
def mutated(draw):
    """(architecture, controller with one leaf replaced, its path)."""
    arch = draw(st.sampled_from(sorted(INPUTS)))
    controller = _controller(INPUTS[arch])
    path = draw(st.sampled_from(_leaves(INPUTS[arch])))
    value = draw(st.sampled_from(VALUES))
    parent = controller
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return arch, controller, path


@settings(max_examples=300)
@given(mutated())
def test_controller_mutation_resolves_or_names_a_setting(case):
    """The scenario resolves or raises a parse or scenario error; a weight
    or bound that is rejected is named in the message; a resolved one
    gives MPC parameters and PID gains equal to the written values after
    defaults."""
    arch, controller, path = case
    doc = {"architecture": arch, "t_end_s": 6.0, "controller": controller}
    try:
        cfg = sim.resolve_scenario(doc)
    except (ModelParseError, ScenarioError) as exc:
        if path[0] in ("Q_scale", "R_scale", "P_scale", "du_bound"):
            assert path[0] in str(exc)
        return
    params, gains = sim.controller_params(arch, cfg["controller"])
    written = {**DEFAULTS, **controller}
    assert (params.Ts, params.Np, params.Nc) == (written["Ts_s"], written["Np"], written["Nc"])
    assert (params.Q_scale, params.R_scale, params.P_scale) == (
        written["Q_scale"], written["R_scale"], written["P_scale"])
    du = controller.get("du_bound", DU_DEFAULT[:INPUTS[arch]])
    assert np.array_equal(params.du_bound, np.asarray(du, dtype=float))
    pid = {**PID_DEFAULTS, **controller.get("pid", {})}
    assert (gains.Kp, gains.Ki, gains.Kd) == (pid["Kp"], pid["Ki"], pid["Kd"])
