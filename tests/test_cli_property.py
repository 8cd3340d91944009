"""Generated numeric inputs of the cheap commands, run through ``cli.main``.

Each example replaces one numeric leaf of an ``inverse-dynamics`` or
``linearize`` state document, or one of the ``--px``, ``--pz``, ``--l01``
and ``--l02`` flags of ``optimize-stiffness --resolution 3``, with a value
from the malformed-input list: another JSON type, NaN, +-Infinity, 0, -1,
1e300, 2**64, a long list, a nested object, 1e-300 or 1e200.  A flag gets
a string as it is and any other value as its JSON text.  No simulation
runs.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from cablearm.cli import main

VALUES = ("text", True, None, math.nan, math.inf, -math.inf, 0, -1, 1e300, 2**64,
          [1.0] * 100, {"k": {"k": [1.0]}}, 1e-300, 1e200)

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
    "optimize-stiffness": [("--px",), ("--pz",), ("--l01",), ("--l02",)],
}


def _strict(text: str):
    """JSON with no NaN or Infinity tokens."""
    def refuse(token):
        raise AssertionError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _argv(command: str, path: tuple, value, tmp: Path) -> list[str]:
    """The command line of one example, its state document (if any) and
    outputs under ``tmp``."""
    if command == "optimize-stiffness":
        flag = value if isinstance(value, str) else json.dumps(value)
        return [command, "--resolution", "3", "--out-dir", str(tmp), f"{path[0]}={flag}"]
    doc = copy.deepcopy(DOCS[command])
    parent, key = (doc[path[0]], path[1]) if len(path) == 2 else (doc, path[0])
    parent[key] = value
    state = tmp / "state.json"
    state.write_text(json.dumps(doc))
    argv = [command, "--state", str(state)]
    return argv + ["--out-dir", str(tmp)] if command == "linearize" else argv


@st.composite
def mutated(draw):
    command = draw(st.sampled_from(sorted(LEAVES)))
    return command, draw(st.sampled_from(LEAVES[command])), draw(st.sampled_from(VALUES))


@settings(max_examples=300)
@given(mutated())
@example(("optimize-stiffness", ("--l01",), 1e-300))
@example(("inverse-dynamics", ("qdot", 7), 1e200))
@example(("optimize-stiffness", ("--l01",), "abc"))
def test_numeric_input_ends_in_output_or_one_error_record(case):
    """Exit 0, 2, 3 or 4; a non-zero exit writes one error record to stderr
    and nothing to stdout; exit 0 writes strict JSON and finite CSV cells."""
    command, path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = _argv(command, path, value, tmp)
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
            if written.suffix == ".json" and written.name != "state.json":
                _strict(written.read_text())
            elif written.suffix == ".csv":
                cells = [float(c) for ln in written.read_text().splitlines()[1:]
                         for c in ln.split(",")]
                assert all(math.isfinite(c) for c in cells), written.name
