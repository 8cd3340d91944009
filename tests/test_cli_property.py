"""Generated malformed inputs of every command, run through ``cli.main``.

Every example must end in the same property: exit 0, 2, 3 or 4; a
non-zero exit writes one error record to stderr and nothing to stdout;
exit 0 writes strict JSON and finite CSV cells.  The inputs:

- one numeric leaf of an ``inverse-dynamics`` or ``linearize`` state
  document, or one of the ``--px``, ``--pz``, ``--l01``, ``--l02`` and
  ``--resolution`` flags of ``optimize-stiffness --resolution 3``, replaced
  with a value from the malformed-input list: another JSON type, NaN,
  +-Infinity, 0, -1, 1e300, 2**64, a long list, a nested object, 1e-300 or
  1e200.  A flag gets a string as it is and any other value as its JSON
  text;
- one leaf of a bundled scenario, cut to 0.05 s with ``Np`` = ``Nc`` = 10,
  replaced with a value of that list or deleted, under ``simulate``.  A
  mutant that resolves to a longer run or horizon stops after
  :func:`cablearm.sim.resolve_scenario`;
- one leaf of the bundled model replaced with a value of that list or
  deleted, under each command that reads a model (``simulate`` runs the cut
  integrated2 scenario);
- one cell of a cut run's ``trace.csv`` replaced, a row deleted or
  repeated, or the text truncated, under ``evaluate``.
"""

import contextlib
import copy
import functools
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import cablearm
from cablearm import sim
from cablearm.cli import load_scenario, main, run_scenario
from cablearm.errors import CableRobotError

VALUES = ("text", True, None, math.nan, math.inf, -math.inf, 0, -1, 1e300, 2**64,
          [1.0] * 100, {"k": {"k": [1.0]}}, 1e-300, 1e200)
DELETE = object()   # drop the leaf instead of replacing it

# the state document each command reads, and each command's numeric leaves
DOCS = {
    "inverse-dynamics": {"q": [0.05, 0.0, 0.1, 0.0, 0.02, 0.0, 0.3, 0.2, 0.1],
                         "qdot": [0.1] * 9, "qddot": [-0.2] * 9, "tau_d": [0.5] * 9},
    "linearize": {"x": [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0], "u": [30.0, 30.0, 0.0, 0.0],
                  "L01": 0.85, "L02": 0.8},
}
LEAVES = {
    **{command: [(key,) for key, v in doc.items() if not isinstance(v, list)]
       + [(key, i) for key, v in doc.items() if isinstance(v, list) for i in range(len(v))]
       for command, doc in DOCS.items()},
    "optimize-stiffness": [("--px",), ("--pz",), ("--l01",), ("--l02",), ("--resolution",)],
}
# the bundled scenarios, cut to 5 periods over a 10-period horizon
SCENARIOS = {arch: {**load_scenario(f"case_study_{arch}"), "t_end_s": 0.05,
                    "controller": {"Np": 10, "Nc": 10}}
             for arch in ("independent", "integrated1", "integrated2")}
MODEL = json.loads((Path(cablearm.__file__).parent / "data" / "hcdr9dof.json").read_text())
INPUTS = ("state.json", "scenario.json", "model.json", "input.csv")   # not command outputs
CELLS = ("text", "", "nan", "-Infinity", "1e999", "0", "-1", "1e300", "1e-300", str(2**64),
         "1,2", '"1"')


def _strict(text: str):
    """JSON with no NaN or Infinity tokens."""
    def refuse(token):
        raise AssertionError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _ends_in_output_or_one_error_record(argv: list[str], tmp: Path):
    """Run ``cli.main`` on ``argv`` and check the property on its streams and
    on the files it wrote to ``tmp``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert set(_strict(err.getvalue())["error"]) == {"category", "message"}
        return
    _strict(out.getvalue())
    for written in tmp.iterdir():
        if written.name in INPUTS:
            continue
        if written.suffix == ".json":
            _strict(written.read_text())
        elif written.suffix == ".csv":
            cells = [float(c) for ln in written.read_text().splitlines()[1:]
                     for c in ln.split(",")]
            assert all(math.isfinite(c) for c in cells), written.name


def _state_argv(command: str, doc: dict, tmp: Path) -> list[str]:
    """``inverse-dynamics`` or ``linearize`` on the state document ``doc``,
    written under ``tmp`` with the outputs."""
    state = tmp / "state.json"
    state.write_text(json.dumps(doc))
    argv = [command, "--state", str(state)]
    return argv + ["--out-dir", str(tmp)] if command == "linearize" else argv


def _simulate_argv(scenario: dict, tmp: Path) -> list[str]:
    (tmp / "scenario.json").write_text(json.dumps(scenario))
    return ["simulate", "--scenario", str(tmp / "scenario.json"), "--out-dir", str(tmp)]


def _argv(command: str, path: tuple, value, tmp: Path) -> list[str]:
    """The command line of one numeric example, its state document (if any)
    and outputs under ``tmp``."""
    if command == "optimize-stiffness":
        flag = value if isinstance(value, str) else json.dumps(value)
        return [command, "--resolution", "3", "--out-dir", str(tmp), f"{path[0]}={flag}"]
    return _state_argv(command, _mutated(DOCS[command], path, value), tmp)


def _leaves(node, path: tuple = ()) -> list[tuple]:
    """Paths of the scalar leaves of a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]
    return [path]


def _mutated(doc, path: tuple, value):
    """A copy of ``doc`` with the leaf at ``path`` replaced by ``value``, or
    deleted for :data:`DELETE`."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated(draw):
    command = draw(st.sampled_from(sorted(LEAVES)))
    return command, draw(st.sampled_from(LEAVES[command])), draw(st.sampled_from(VALUES))


@settings(max_examples=300)
@given(mutated())
@example(("optimize-stiffness", ("--l01",), 1e-300))
@example(("inverse-dynamics", ("qdot", 7), 1e200))
@example(("optimize-stiffness", ("--l01",), "abc"))
@example(("optimize-stiffness", ("--resolution",), 2**64))
def test_numeric_input_ends_in_output_or_one_error_record(case):
    command, path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        _ends_in_output_or_one_error_record(_argv(command, path, value, Path(tmp)), Path(tmp))


@st.composite
def scenario_mutants(draw):
    """(bundled scenario name, leaf path, value or DELETE)."""
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    return (name, draw(st.sampled_from(_leaves(SCENARIOS[name]))),
            draw(st.sampled_from(VALUES + (DELETE,))))


@settings(max_examples=150)
@given(scenario_mutants())
def test_scenario_mutant_ends_in_output_or_one_error_record(case):
    name, path, value = case
    doc = _mutated(SCENARIOS[name], path, value)
    try:
        cfg = sim.resolve_scenario(doc)
    except CableRobotError:
        pass            # simulate stops at the same check
    else:
        params, _ = sim.controller_params(cfg["architecture"], cfg["controller"])
        if cfg["t_end_s"] > 0.05 or max(params.Np, params.Nc) > 10:
            return
    with tempfile.TemporaryDirectory() as tmp:
        _ends_in_output_or_one_error_record(_simulate_argv(doc, Path(tmp)), Path(tmp))


@st.composite
def model_mutants(draw):
    """(command, leaf path, value or DELETE)."""
    command = draw(st.sampled_from(("simulate", "optimize-stiffness", "inverse-dynamics",
                                    "linearize")))
    return (command, draw(st.sampled_from(_leaves(MODEL))),
            draw(st.sampled_from(VALUES + (DELETE,))))


@settings(max_examples=200)
@given(model_mutants())
@example(("simulate", ("arm", 2, "com_offset_m", 2), 2**64))
@example(("linearize", ("arm", 1, "joint_offset_m", 2), 2**64))
def test_model_mutant_ends_in_output_or_one_error_record(case):
    command, path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = tmp / "model.json"
        model.write_text(json.dumps(_mutated(MODEL, path, value)))
        if command == "simulate":
            argv = _simulate_argv({**SCENARIOS["integrated2"], "model": str(model)}, tmp)
        elif command == "optimize-stiffness":
            argv = [command, "--model", str(model), "--resolution", "3", "--out-dir", str(tmp)]
        else:
            argv = _state_argv(command, DOCS[command], tmp) + ["--model", str(model)]
        _ends_in_output_or_one_error_record(argv, tmp)


@functools.cache
def _trace_lines() -> tuple[str, ...]:
    """The lines of the cut integrated2 scenario's ``trace.csv``."""
    with tempfile.TemporaryDirectory() as tmp:
        text = Path(run_scenario(SCENARIOS["integrated2"], tmp)["trace"]).read_text()
    return tuple(text.splitlines(keepends=True))


@st.composite
def trace_mutants(draw):
    """The text of ``trace.csv`` with one cell replaced, a row (the header
    among them) deleted or repeated, or the text truncated."""
    lines = list(_trace_lines())
    kind = draw(st.sampled_from(("cell", "delete", "repeat", "truncate")))
    if kind == "truncate":
        text = "".join(lines)
        return text[:draw(st.integers(0, len(text) - 1))]
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        cells = lines[i].rstrip("\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
        lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


@settings(max_examples=200)
@given(trace_mutants())
def test_trace_mutant_ends_in_output_or_one_error_record(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "input.csv").write_text(text)
        _ends_in_output_or_one_error_record(["evaluate", "--trace", str(tmp / "input.csv")], tmp)
