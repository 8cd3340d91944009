import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cablearm
from cablearm import metrics, sim
from cablearm.cli import (
    _scenario_arg,
    build_parser,
    compare_architectures,
    load_scenario,
    main,
    run_scenario,
)
from cablearm.errors import AlignmentError, CableRobotError
from cablearm.model import load_model
from cablearm.sim import resolve_scenario


SHORT = {
    "model": "hcdr9dof",
    "architecture": "integrated2",
    "trajectory": "case_study",
    "t_end_s": 0.3,
    "seed": 3,
    "noise_std": 0.002,
}
REST = [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]   # the case study's rest state
# Controller settings JSON reads as NaN or Infinity
NONFINITE_CONTROLLER = {
    "nan-Ts": {"controller": {"Ts_s": float("nan")}},
    "nan-Kp-independent": {"architecture": "independent",
                           "controller": {"pid": {"Kp": float("nan")}}},
    "inf-Kd-independent": {"architecture": "independent",
                           "controller": {"pid": {"Kd": float("inf")}}},
    "nan-Q_scale": {"controller": {"Q_scale": float("nan")}},
    "inf-R_scale": {"controller": {"R_scale": float("inf")}},
}
TRACE_HEAD = ",".join(metrics.TRACE_HEADER) + "\n"
TRACE_ROW = ",".join(["0"] * len(metrics.TRACE_HEADER)) + "\n"


def _bundled_model() -> dict:
    """The bundled model document, to edit."""
    return json.loads((Path(cablearm.__file__).parent / "data" / "hcdr9dof.json").read_text())


def _fresh_env(**extra) -> dict:
    """Environment of a fresh interpreter that imports this cablearm."""
    package_root = str(Path(cablearm.__file__).parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))


class TestRmse:
    def test_identical_paths(self):
        p = np.random.default_rng(0).normal(0, 1, (50, 2))
        rep = metrics.rmse(p, p.copy(), np.full((50, 12), 40.0))
        assert rep.rmse_x == rep.rmse_z == rep.rmse_2d == 0.0

    def test_constant_offset(self):
        p = np.zeros((40, 2))
        shifted = p + np.array([0.03, 0.0])
        rep = metrics.rmse(shifted, p, np.full((40, 12), 40.0))
        assert np.isclose(rep.rmse_2d, 0.03)
        assert np.isclose(rep.rmse_x, 0.03)
        assert rep.rmse_z == 0.0

    def test_brute_force_summation_oracle(self, rng):
        p = rng.normal(0, 1, (64, 2))
        ref = rng.normal(0, 1, (64, 2))
        rep = metrics.rmse(p, ref, rng.uniform(5, 80, (64, 12)))
        acc = 0.0
        for i in range(64):
            acc += (p[i, 0] - ref[i, 0]) ** 2 + (p[i, 1] - ref[i, 1]) ** 2
        assert np.isclose(rep.rmse_2d, np.sqrt(acc / 64), rtol=1e-12)

    def test_component_consistency(self, rng):
        p = rng.normal(0, 1, (30, 2))
        ref = rng.normal(0, 1, (30, 2))
        rep = metrics.rmse(p, ref, rng.uniform(5, 80, (30, 12)))
        assert np.isclose(rep.rmse_2d**2, rep.rmse_x**2 + rep.rmse_z**2, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            metrics.rmse(np.zeros((5, 2)), np.zeros((6, 2)), np.full((5, 12), 40.0))


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    result = run_scenario(SHORT, out)
    return result


class TestRunScenario:
    def test_artifacts_exist(self, short_run):
        assert Path(short_run["trace"]).exists()
        assert Path(short_run["summary"]).exists()

    def test_trace_header_contract(self, short_run):
        header = Path(short_run["trace"]).read_text().splitlines()[0]
        assert header == ",".join(metrics.TRACE_HEADER)
        assert header.startswith("t,p_mx,dp_mx,p_mz,dp_mz,beta_m,dbeta_m,th_a2")
        assert ",T1," in header and ",T12," in header
        assert header.endswith("ref_x_e,ref_z_e")

    def test_summary_keys(self, short_run):
        doc = json.loads(Path(short_run["summary"]).read_text())
        assert set(doc) == {
            "rmse_x_m", "rmse_z_m", "rmse_2d_m",
            "min_tension_N", "max_tension_N", "seed", "config_hash",
        }
        assert doc["seed"] == 3
        assert np.isclose(
            doc["rmse_2d_m"] ** 2, doc["rmse_x_m"] ** 2 + doc["rmse_z_m"] ** 2,
            rtol=1e-9,
        )

    def test_seed_determinism_bytes(self, tmp_path):
        r1 = run_scenario(SHORT, tmp_path / "a")
        r2 = run_scenario(SHORT, tmp_path / "b")
        assert Path(r1["trace"]).read_bytes() == Path(r2["trace"]).read_bytes()
        assert Path(r1["summary"]).read_bytes() == Path(r2["summary"]).read_bytes()

    def test_in_process_trace_equals_the_command_trace(self, tmp_path):
        """The suite runs with the BLAS threads that a ``cablearm`` command
        pins (conftest imports cablearm before numpy), so an integrated2
        run's trace.csv here equals, byte for byte, that of the command in a
        fresh interpreter.  A suite whose BLAS runs more threads sums the
        n = 200 MPC products in another order; that shows only on a host
        with 2 or more CPUs."""
        doc = {"architecture": "integrated2", "t_end_s": 0.3, "seed": 3,
               "noise_std": [1.0, 1.0, 0.02, 0.02]}
        in_process = run_scenario(doc, tmp_path / "a")
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(doc))
        subprocess.run([sys.executable, "-m", "cablearm.cli", "simulate", "--scenario",
                        str(scenario), "--out-dir", str(tmp_path / "b")],
                       capture_output=True, env=_fresh_env(), check=True, timeout=120)
        assert (Path(in_process["trace"]).read_bytes()
                == (tmp_path / "b" / "trace.csv").read_bytes())

    def test_trace_round_trip(self, short_run):
        cols = metrics.trace_from_csv(Path(short_run["trace"]).read_text())
        assert len(cols["t"]) == 31
        assert cols["t"][1] == 0.01

    def test_json_format_emits_trace_json(self, tmp_path):
        doc = dict(SHORT)
        doc["t_end_s"] = 0.1
        run_scenario(doc, tmp_path, fmt="json")
        saved = json.loads((tmp_path / "trace.json").read_text())
        assert set(saved) == set(metrics.TRACE_HEADER)
        assert len(saved["t"]) == 11

    def test_trace_json_holds_the_csv_columns(self, tmp_path):
        doc = dict(SHORT)
        doc["t_end_s"] = 0.05
        result = run_scenario(doc, tmp_path, fmt="json")
        saved = json.loads((tmp_path / "trace.json").read_text())
        cols = metrics.trace_from_csv(Path(result["trace"]).read_text())
        assert list(cols) == metrics.TRACE_HEADER
        for name in metrics.TRACE_HEADER:
            assert saved[name] == cols[name].tolist(), name


    def test_trace_columns_need_the_header_cable_count(self):
        """A trace whose tension block is not the header's T1..T12 is an
        AlignmentError, not a layout written under the wrong header."""
        rows = 2
        trace = sim.SimTrace(t=np.zeros(rows), x=np.zeros((rows, 10)), u=np.zeros((rows, 4)),
                             tensions=np.zeros((rows, 8)), L0=np.zeros((rows, 2)),
                             ke=np.zeros(rows), ve=np.zeros(rows), x_ref=np.zeros((rows, 10)),
                             p_e=np.zeros((rows, 2)), p_e_ref=np.zeros((rows, 2)))
        with pytest.raises(AlignmentError, match="columns"):
            metrics.trace_columns(trace)

class TestCliMain:
    def test_malformed_scenario_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["simulate", "--scenario", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "parse"

    def test_unknown_scenario_field(self, tmp_path, capsys):
        doc = dict(SHORT)
        doc["typo_field"] = 1
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(p), "--out-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("override, category, code", [
        ({"typo_field": 1}, "parse", 2),
        ({"controller": {"Q_scal": 2.0}}, "parse", 2),
        ({"controller": {"pid": {"Kq": 1.0}}}, "parse", 2),
        ({"controller": [1, 2]}, "parse", 2),
        ({"integrator_substeps": 0}, "scenario", 4),
        ({"architecture": "integrated3"}, "scenario", 4),
        ({"t_end_s": 0.0}, "scenario", 4),
        ({"controller": {"du_bound": [1.0, 2.0]}}, "scenario", 4),
        ({"controller": {"Ts_s": 0}}, "scenario", 4),
        ({"controller": {"Np": 0}}, "scenario", 4),
        ({"controller": {"Np": 10, "Nc": 20}}, "scenario", 4),
        ({"controller": {"R_scale": 0}}, "scenario", 4),
        ({"controller": {"du_bound": [80.0, -80.0, 2.0, 2.0]}}, "scenario", 4),
        ({"controller": {"pid": {"Kd": -1.0}}}, "scenario", 4),
        ({"noise_std": [1, 1, 0.02]}, "scenario", 4),
        ({"noise_std": [0.1, 0.1, -0.01, 0.0]}, "scenario", 4),
        ({"noise_std": [0.1, 0.1, float("nan"), 0.0]}, "scenario", 4),
        ({"noise_std": "loud"}, "scenario", 4),
        ({"tension_scan_points": 76}, "parse", 2),
        ({"trajectory": {"waypoints": 5}}, "scenario", 4),
        ({"trajectory": {"waypoints": [[0.0, [0, 0, 0]], [1.0, [0, 0, 0]]]}}, "scenario", 4),
        ({"trajectory": {"waypoints": [[0.0, [0] * 10], [1.0, [0] * 10]], "smooth": 1}},
         "parse", 2),
        ({"trajectory": {"waypoints": [[0.0, [float("nan")] + [0] * 9], [1.0, [0] * 10]]}},
         "scenario", 4),
        ({"t_end_s": "abc"}, "scenario", 4),
        ({"t_end_s": float("nan")}, "scenario", 4),
        ({"t_end_s": 0.305}, "scenario", 4),
        ({"t_end_s": 0.004}, "scenario", 4),
        ({"integrator_substeps": 2.7}, "scenario", 4),
        ({"seed": "3"}, "scenario", 4),
        ({"seed": True}, "scenario", 4),
        ({"seed": None}, "scenario", 4),
        ({"integrator_substeps": 65}, "scenario", 4),
        ({"controller": {"Np": 50.9}}, "scenario", 4),
        ({"controller": {"Nc": 5.5}}, "scenario", 4),
        ({"t_end_s": "0.3"}, "scenario", 4),
        ({"controller": {"Ts_s": "0.01"}}, "scenario", 4),
        ({"controller": {"pid": {"Kp": True}}}, "scenario", 4),
        ({"noise_std": [1, 1, "0.02", 0.02]}, "scenario", 4),
        ({"controller": {"du_bound": [5.0, 5.0, False, 0.2]}}, "scenario", 4),
        ({"seed": -1}, "scenario", 4),
        ({"t_end_s": [0.3]}, "scenario", 4),
        ({"t_end_s": []}, "scenario", 4),
        ({"seed": [3]}, "scenario", 4),
        ({"controller": {"Ts_s": [0.01]}}, "scenario", 4),
        ({"controller": {"pid": {"Kp": [1.0]}}}, "scenario", 4),
        ({"model": 5}, "parse", 2),
        ({"model": None}, "parse", 2),
        ({"model": ["hcdr9dof"]}, "parse", 2),
        pytest.param({"controller": {"du_bound": [float("nan")] * 4}}, "scenario", 4,
                     id="nan-du_bound"),
        pytest.param({"controller": {"Np": 1e300}}, "scenario", 4, id="huge-Np"),
        pytest.param({"architecture": "independent", "integrator_substeps": 1e300},
                     "scenario", 4, id="huge-substeps-independent"),
        pytest.param({"t_end_s": 1e300}, "scenario", 4, id="huge-t_end"),
        pytest.param({"trajectory": {"waypoints": [["0", REST], [1.0, REST]]}}, "scenario", 4,
                     id="text-waypoint-time"),
        pytest.param({"trajectory": {"waypoints": [[False, REST], [True, REST]]}}, "scenario", 4,
                     id="bool-waypoint-time"),
        pytest.param({"trajectory": {"waypoints": [[0.0, REST], [1.0, ["0.5"] + REST[1:]]]}},
                     "scenario", 4, id="text-waypoint-state"),
        *(pytest.param(override, "scenario", 4, id=name)
          for name, override in NONFINITE_CONTROLLER.items()),
        *(pytest.param({"integrator_substeps": n}, "scenario", 4, id=f"substeps-{n!r}")
          for n in (2.5, True, "2")),
    ])
    def test_malformed_scenario_table(self, tmp_path, capsys, monkeypatch, hcdr, override,
                                      category, code):
        """The command rejects the document with the row's exit code and
        category, and ``sim.simulate`` with the same category, both before
        the reference schedule is computed."""
        monkeypatch.setattr(sim, "reference_schedule", None)
        doc = dict(SHORT)
        doc.update(override)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(p), "--out-dir", str(tmp_path / "o")]) == code
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == category
        assert not (tmp_path / "o").exists()
        with pytest.raises(CableRobotError) as caught:
            sim.simulate(hcdr, doc)
        assert caught.value.category == category

    @pytest.mark.parametrize("override", NONFINITE_CONTROLLER.values(),
                             ids=NONFINITE_CONTROLLER.keys())
    def test_nonfinite_controller_setting_named(self, tmp_path, capsys, override):
        """A NaN or infinite controller setting is named as one, before the
        run starts (not as an asymmetric weight or a diverged run)."""
        p = tmp_path / "s.json"
        p.write_text(json.dumps(dict(SHORT, **override)))
        assert main(["simulate", "--scenario", str(p), "--out-dir", str(tmp_path / "o")]) == 4
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "must be finite" in message

    def test_infinite_du_bound_means_none(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(dict(SHORT, t_end_s=0.05,
                                     controller={"du_bound": [float("inf")] * 4})))
        assert main(["simulate", "--scenario", str(p), "--out-dir", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("where, value, category, code", [
        ("platform", 5, "parse", 2),
        ("platform.cables", 5, "parse", 2),
        ("platform.cables.0.a_m", "x", "parse", 2),
        ("platform.mass_kg", "abc", "parse", 2),
        ("platform.cables.0.EA_N", None, "parse", 2),
        ("gravity_mps2", "g", "parse", 2),
        ("arm", [5], "parse", 2),
        ("mount", [], "parse", 2),
        ("platform.inertia_kgm2", [[1, 0, 0], [0, 1], [0, 0, 1]], "parse", 2),
        ("arm.1.joint.kind", 5, "parse", 2),
        ("platform.actuator_groups", [1, 2], "parse", 2),
        ("platform.tension_controlled_groups", 3, "parse", 2),
        ("platform.tension_controlled_groups", ["3"], "parse", 2),
        ("platform.tension_controlled_groups", [3.7, 4], "parse", 2),
        ("platform.actuator_groups",
         {"1": [5, 6, 11, 12], "2": [1, 2, 7, 8], "3": [4.9, 10.2], "4": [3, 9]}, "parse", 2),
        ("platform.mass_kg", float("nan"), "validation", 3),
        ("platform.mass_kg", float("inf"), "validation", 3),
        ("arm.0.mass_kg", float("nan"), "validation", 3),
        ("arm.2.mass_kg", float("inf"), "validation", 3),
        pytest.param("platform.inertia_kgm2", np.diag([1e308] * 3).tolist(), "conditioning", 4,
                     id="inertia-overflows-its-symmetric-part"),
        pytest.param("euler_ordr", "ZXY", "parse", 2, id="unknown-root"),
        pytest.param("platform.tension_controled_groups", [3, 4], "parse", 2,
                     id="unknown-platform"),
        pytest.param("platform.cables.0.Tmax", 10.0, "parse", 2, id="unknown-cable"),
        pytest.param("arm.0.mass", 0.4, "parse", 2, id="unknown-link"),
        pytest.param("arm.1.joint.axes", "Y", "parse", 2, id="unknown-joint"),
        pytest.param("mount.R", np.eye(3).tolist(), "parse", 2, id="unknown-mount"),
        *(pytest.param("platform.actuator_groups",
                       {"1": [5, 6, 11, 12], "2": [1, 2, 7, 8], **groups, "4": [3, 9]},
                       "parse", 2, id=f"group-key-{name}")
          for name, groups in (("leading-zero", {"03": [4, 10]}), ("space", {" 3": [4, 10]}),
                               ("plus", {"+3": [4, 10]}),
                               ("shadowed", {"03": [99], "3": [4, 10]}))),
        pytest.param("platform.cables.1.a_m", [1.5, 0.0], "parse", 2, id="short-anchor"),
        pytest.param("platform.cables.1.r_m", [[0.1, 0.0, 0.0]], "parse", 2,
                     id="nested-attachment"),
    ])
    def test_malformed_model_table(self, tmp_path, capsys, where, value, category, code):
        """A copy of the bundled model with one value replaced or added: a
        value of the wrong JSON type or shape at any level, an unknown field or a
        group key that is not a plain decimal integer is a parse error
        (exit 2) naming its path (or, for an array, the element's; indices
        count from 1), a non-finite mass a validation error (exit 3), and an
        inertia whose eigenvalues cannot be computed a conditioning error
        (exit 4)."""
        doc = json.loads((Path(cablearm.__file__).parent / "data" / "hcdr9dof.json").read_text())
        *parents, key = [int(k) if k.isdigit() else k for k in where.split(".")]
        node = doc
        for k in parents:
            node = node[k]
        node[key] = value
        (tmp_path / "model.json").write_text(json.dumps(doc))
        (tmp_path / "state.json").write_text(json.dumps({"q": [0] * 9}))
        assert main(["inverse-dynamics", "--model", str(tmp_path / "model.json"),
                     "--state", str(tmp_path / "state.json")]) == code
        out = capsys.readouterr()
        err = json.loads(out.err)["error"]
        assert err["category"] == category and out.out == ""
        if category == "parse":
            path = "$" + "".join(f"[{k + 1}]" if isinstance(k, int) else f".{k}"
                                 for k in parents + [key])
            assert err["message"].startswith(path)

    @pytest.mark.parametrize("command, doc", [
        ("inverse-dynamics", None),
        ("inverse-dynamics", {"qdot": [0] * 9}),
        ("linearize", None),
        ("linearize", {"x": [0] * 10, "u": [0] * 4, "L01": 0.85}),
        ("linearize", [0] * 10),
        ("evaluate", None),
        pytest.param("inverse-dynamics", {"q": [0] * 3}, id="short-q"),
        pytest.param("inverse-dynamics", {"q": [0] * 9, "qdot": "abc"}, id="text-qdot"),
        pytest.param("inverse-dynamics", {"q": [0] * 9, "tau_d": [0, 0]}, id="short-tau_d"),
        pytest.param("linearize", {"x": [0] * 3, "u": [0] * 4, "L01": 0.85, "L02": 0.8},
                     id="short-x"),
        pytest.param("linearize", {"x": [0] * 10, "u": [0] * 4, "L01": "a", "L02": 0.8},
                     id="text-L01"),
        pytest.param("linearize", {"x": [0] * 10, "u": [0] * 2, "L01": 0.85, "L02": 0.8},
                     id="short-u"),
        pytest.param("evaluate", TRACE_HEAD + TRACE_ROW[:-1] + "x\n", id="nonnumeric-cell"),
        pytest.param("evaluate", TRACE_HEAD, id="header-only"),
        pytest.param("evaluate", TRACE_HEAD + TRACE_ROW + "0,1\n", id="ragged-row"),
        pytest.param("inverse-dynamics", {"q": [float("nan")] * 9}, id="nan-q"),
        pytest.param("inverse-dynamics", {"q": [0] * 9, "qddot": [float("inf")] + [0] * 8},
                     id="inf-qddot"),
        pytest.param("inverse-dynamics", {"q": [0] * 9, "tau_d": [float("nan")] * 9},
                     id="nan-tau_d"),
        pytest.param("evaluate", TRACE_HEAD + TRACE_ROW[:-2] + "nan\n", id="nan-cell"),
        pytest.param("evaluate", TRACE_HEAD + TRACE_ROW + "-inf" + TRACE_ROW[1:], id="inf-cell"),
        pytest.param("inverse-dynamics", {"q": [0] * 9, "qdd": [1] + [0] * 8}, id="qdd-typo"),
        pytest.param("inverse-dynamics", {"q": [0] * 9, "note": "rest"}, id="extra-field-id"),
        pytest.param("linearize", {"x": [0] * 10, "u": [30.0, 30.0, 0, 0], "L01": 0.85,
                                   "L02": 0.8, "L03": 0.8}, id="extra-field-linearize"),
    ])
    def test_malformed_input_file_table(self, tmp_path, capsys, command, doc):
        """A missing input file, a state document without its required
        fields, with an unknown field or with a field of the wrong type or
        length, a non-finite number where the document or trace needs a
        finite one, and a trace whose rows are not one number per column
        are parse errors (exit 2)."""
        path = tmp_path / "input.json"
        if isinstance(doc, str):
            path.write_text(doc)
        elif doc is not None:
            path.write_text(json.dumps(doc))
        flag = "--trace" if command == "evaluate" else "--state"
        assert main([command, flag, str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "parse"

    @pytest.mark.parametrize("flag, text", [
        pytest.param("--scenario", '{"t_end_s": 0.05, "seed": 1, "seed": 7}', id="scenario"),
        pytest.param("--scenario", '{"t_end_s": 0.05, "controller": {"pid": {"Kp": 1, "Kp": 2}}}',
                     id="scenario-pid"),
        pytest.param("--model", None, id="model"),
        pytest.param("--state", '{"q": [0, 0, 0, 0, 0, 0, 0, 0, 0], "q": [1, 0, 0, 0, 0, 0, 0, '
                                '0, 0]}', id="state"),
    ])
    def test_duplicate_key_table(self, tmp_path, capsys, flag, text):
        """A key written twice in one object, at any level, is a parse error
        (exit 2) naming the key, not a silent choice of one value.  The
        documents are raw text, since ``json.dumps`` writes each key once;
        the model is the bundled one with its first link's mass repeated."""
        if text is None:
            bundled = (Path(cablearm.__file__).parent / "data" / "hcdr9dof.json").read_text()
            text = bundled.replace('"mass_kg": ', '"mass_kg": 9.0, "mass_kg": ', 1)
        path = tmp_path / "doc.json"
        path.write_text(text)
        state = tmp_path / "q.json"
        state.write_text(json.dumps({"q": [0] * 9}))
        argv = {"--scenario": ["simulate", "--out-dir", str(tmp_path / "o")],
                "--model": ["inverse-dynamics", "--state", str(state)],
                "--state": ["inverse-dynamics"]}[flag]
        assert main(argv + [flag, str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "parse" and err["message"].startswith("duplicate key")

    @pytest.mark.parametrize("argv, code, category", [
        pytest.param(["simulate", "--scenario", "{dir}"], 2, "parse", id="scenario-dir"),
        pytest.param(["inverse-dynamics", "--model", "{dir}", "--state", "{state}"], 2, "parse",
                     id="model-dir"),
        pytest.param(["simulate", "--scenario", "{scenario}", "--out-dir", "{file}"], 4, "output",
                     id="out-dir-is-file"),
        pytest.param(["simulate", "--scenario", "{scenario}", "--out-dir", "{file}/sub"], 4,
                     "output", id="out-dir-under-file"),
        pytest.param(["optimize-stiffness", "--resolution", "2", "--out-dir", "{file}"], 4,
                     "output", id="grid-out-dir-is-file"),
        pytest.param(["linearize", "--state", "{point}", "--out-dir", "{file}"], 4, "output",
                     id="ltv-out-dir-is-file"),
    ])
    def test_unusable_path_table(self, tmp_path, capsys, argv, code, category):
        """A directory given where a file is read is a parse error (exit 2);
        an output directory that cannot be made is an output error (exit 4)."""
        paths = {name: tmp_path / f"{name}.json" for name in ("scenario", "state", "point")}
        paths["scenario"].write_text(json.dumps(dict(SHORT, t_end_s=0.05)))
        paths["state"].write_text(json.dumps({"q": [0] * 9}))
        paths["point"].write_text(json.dumps({"x": [0] * 10, "u": [30.0, 30.0, 0, 0],
                                              "L01": 0.85, "L02": 0.8}))
        paths.update(dir=tmp_path, file=tmp_path / "file.txt")
        paths["file"].write_text("")
        assert main([a.format(**paths) for a in argv]) == code
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == category

    @pytest.mark.parametrize("flag, value", [
        ("--px", "nan"), ("--pz", "inf"), ("--l01", "nan"), ("--l02", "-inf"),
        ("--resolution", "1152921504606846912"),
    ])
    def test_optimize_stiffness_rejects_nonfinite_bounds(self, tmp_path, capsys, flag, value):
        code = main(["optimize-stiffness", "--out-dir", str(tmp_path), "--resolution", "3",
                     f"{flag}={value}"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "validation"

    def test_grid_beyond_memory_fails_before_its_axes(self, tmp_path, capsys, monkeypatch):
        """A resolution within the index bound whose K stack no host holds
        (178956970 points per axis: 8 EiB) ends in the memory record
        (exit 4) before any array that grows with the resolution is
        filled: a grid axis, made to raise here, is never asked for."""
        linspace = np.linspace

        def small_linspace(start, stop, num=50, **kwargs):
            if num > 10**6:
                raise AssertionError(f"np.linspace asked for {num} points")
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", small_linspace)
        code = main(["optimize-stiffness", "--out-dir", str(tmp_path),
                     "--resolution", "178956970"])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "memory"

    def test_infeasible_tension_bounds(self, tmp_path, capsys, hcdr):
        """A model whose bounds leave no feasible tension at the reference
        ends in the error record (exit 4), naming the first infeasible row
        of the schedule's first block."""
        from dataclasses import replace

        from cablearm.model import serialize_model

        narrow = replace(hcdr, platform=replace(
            hcdr.platform, tension_min=np.full(12, 30.0), tension_max=np.full(12, 80.0)
        ))
        model = tmp_path / "narrow.json"
        model.write_text(serialize_model(narrow))
        doc = dict(SHORT, model=str(model))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(p), "--out-dir", str(tmp_path / "o")]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "infeasible"
        assert err["error"]["message"].endswith("at row 0")

    @pytest.mark.parametrize("command", ["simulate", "linearize"])
    @pytest.mark.parametrize("link, field", [(2, "com_offset_m"), (1, "joint_offset_m")])
    def test_singular_mass_matrix_ends_in_the_error_record(self, tmp_path, capsys, command,
                                                          link, field):
        """An arm offset of 2**64 m passes the model checks, but the planar
        mass matrix is then singular in floating point: the plant's solve
        ends in one conditioning error record (exit 4), not a LinAlgError
        traceback."""
        doc = _bundled_model()
        doc["arm"][link][field][2] = 2**64
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        if command == "simulate":
            scenario = tmp_path / "s.json"
            scenario.write_text(json.dumps({"model": str(model), "t_end_s": 0.01}))
            argv = ["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "o")]
        else:
            point = tmp_path / "pt.json"
            point.write_text(json.dumps({"x": REST, "u": [30.0, 30.0, 0, 0], "L01": 0.85,
                                         "L02": 0.8}))
            argv = ["linearize", "--model", str(model), "--state", str(point)]
        assert main(argv) == 4
        out = capsys.readouterr()
        assert out.err.count("\n") == 1 and out.out == ""
        assert json.loads(out.err)["error"] == {"category": "conditioning",
                                                "message": "planar mass matrix is singular"}

    def test_model_the_trace_cannot_hold(self, tmp_path, capsys):
        """The bundled model without cables 2, 5, 8 and 11, with bounds of 1
        and 2000 N, passes every model and plant check, but a trace records
        12 tensions: a validation error (exit 3) before the run, with
        nothing written."""
        doc = _bundled_model()
        keep = [1, 3, 4, 6, 7, 9, 10, 12]
        platform = doc["platform"]
        platform["cables"] = [dict(platform["cables"][i - 1], Tmin_N=1.0, Tmax_N=2000.0)
                              for i in keep]
        platform["actuator_groups"] = {g: [keep.index(i) + 1 for i in cables if i in keep]
                                       for g, cables in platform["actuator_groups"].items()}
        model = tmp_path / "model8.json"
        model.write_text(json.dumps(doc))
        sim.PlanarPlant(load_model(model.read_text()))
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"model": str(model), "t_end_s": 0.3}))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out-dir", str(tmp_path / "o")]) == 3
        out = capsys.readouterr()
        err = json.loads(out.err)["error"]
        assert err["category"] == "validation" and "12 cable tensions" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--scenario", "{scenario}"], id="simulate-t_end-1e7"),
        pytest.param(["optimize-stiffness", "--resolution", "3000"], id="stiffness-grid-3000"),
    ])
    def test_out_of_memory_ends_in_the_error_record(self, tmp_path, argv):
        """An allocation refused under a 2 GB address-space limit (set in the
        child process only) ends in the error record with category memory
        (exit 4), not a traceback: a 1e7 s scenario (1e9 controller periods)
        and a 3000 x 3000 stiffness grid."""
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"t_end_s": 1e7}))
        limit = 2 * 1024**3

        def limit_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        env = _fresh_env(OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-m", "cablearm.cli", *(a.format(scenario=scenario) for a in argv),
             "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, preexec_fn=limit_address_space, timeout=120,
        )
        assert out.returncode == 4, out.stderr
        assert json.loads(out.stderr)["error"]["category"] == "memory"

    @pytest.mark.parametrize("override", [
        pytest.param({"architecture": "independent", "controller": {"pid": {"Kp": 1e300}}},
                     id="huge-Kp"),
        pytest.param({"noise_std": 1e200}, id="huge-noise"),
    ])
    def test_diverging_run_prints_only_the_error_record(self, tmp_path, override):
        """A run that diverges writes its divergence record and nothing else
        on stderr, no numpy warning ahead of it.  It runs in a fresh
        interpreter, as pytest captures warnings in its own."""
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"t_end_s": 0.05, **override}))
        out = subprocess.run(
            [sys.executable, "-m", "cablearm.cli", "simulate", "--scenario", str(scenario),
             "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, env=_fresh_env(), timeout=120,
        )
        assert out.returncode == 4
        assert out.stderr.count("\n") == 1, out.stderr
        assert json.loads(out.stderr)["error"]["category"] == "divergence"

    def test_seed_flag_is_the_document_seed(self, tmp_path, capsys):
        """``--seed 7`` runs what a document with ``"seed": 7`` runs."""
        for name, doc in (("flag", dict(SHORT, t_end_s=0.05)), ("doc", dict(SHORT, t_end_s=0.05,
                                                                           seed=7))):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = ["simulate", "--scenario", str(tmp_path / "flag.json"), "--seed", "7"]
        assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--scenario", str(tmp_path / "doc.json"),
                     "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("trace.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert json.loads((tmp_path / "a" / "summary.json").read_text())["seed"] == 7

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        """A ``--seed`` passes the checks of a written seed: -1 is a scenario
        error (exit 4) raised before anything is written."""
        p = tmp_path / "s.json"
        p.write_text(json.dumps(dict(SHORT, t_end_s=0.05)))
        assert main([command, "--scenario", str(p), "--seed", "-1",
                     "--out-dir", str(tmp_path / "o")]) == 4
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "scenario"
        assert not (tmp_path / "o").exists()

    def test_linearize_nonfinite_state(self, tmp_path, capsys):
        """A NaN in the state makes the plant output non-finite: a
        divergence error (exit 4), not a traceback."""
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({
            "x": [0.05, 0, float("nan"), 0, 0, 0, 0, 0, 0, 0],
            "u": [30.0, 30.0, 0.0, 0.0],
            "L01": 0.85, "L02": 0.80,
        }))
        assert main(["linearize", "--state", str(point)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "divergence"

    @pytest.mark.parametrize("key", ["L01", "L02"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, float("inf"), float("nan")])
    def test_linearize_rejects_unstretched_lengths_outside_zero_infinity(self, tmp_path, capsys,
                                                                         key, value):
        """An unstretched length must lie in (0, inf), as ``optimize-stiffness
        --l01`` requires: at -1 the cables of that group would push (k =
        EA / L0 < 0), at Infinity pull with a constant -EA, and at 0 the
        plant diverges.  Each is a validation error (exit 3) naming the
        field, with nothing on stdout."""
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({"x": REST, "u": [30.0, 30.0, 0.0, 0.0],
                                     "L01": 0.85, "L02": 0.80, key: value}))
        assert main(["linearize", "--state", str(point)]) == 3
        out = capsys.readouterr()
        err = json.loads(out.err)["error"]
        assert err["category"] == "validation" and out.out == ""
        assert err["message"].startswith(f"$.{key}:")

    @pytest.mark.parametrize("command", ["optimize-stiffness", "inverse-dynamics", "evaluate"])
    def test_overflow_ends_in_the_error_record(self, tmp_path, capsys, short_run, command):
        """Finite inputs whose result overflows: the squared eigenvalues of
        the grid at L01 = 1e-300, tau at a joint rate of 1e200 rad/s, and
        the RMSE of a trace whose x_e cells are 1e200.  Each is a divergence
        error (exit 4) naming the quantity, and no grid is written."""
        if command == "optimize-stiffness":
            argv = ["optimize-stiffness", "--l01", "1e-300", "--out-dir", str(tmp_path)]
            quantity = "J_K"
        elif command == "inverse-dynamics":
            state = tmp_path / "state.json"
            state.write_text(json.dumps({"q": [0] * 9, "qdot": [0] * 7 + [1e200, 0]}))
            argv, quantity = ["inverse-dynamics", "--state", str(state)], "tau"
        else:
            lines = Path(short_run["trace"]).read_text().splitlines()
            j = metrics.TRACE_HEADER.index("x_e")
            rows = [ln.split(",") for ln in lines[1:]]
            for row in rows:
                row[j] = "1e200"
            trace = tmp_path / "trace.csv"
            trace.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
            argv, quantity = ["evaluate", "--trace", str(trace)], "RMSE"
        assert main(argv) == 4
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)["error"]
        assert err["category"] == "divergence" and quantity in err["message"]
        assert not (tmp_path / "stiffness_grid.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["optimize-stiffness", "--l01", "abc"],
         "cablearm optimize-stiffness: argument --l01: invalid float value: 'abc'"),
        (["optimize-stiffness", "--bogus"], "cablearm: unrecognized arguments: --bogus"),
        ([], "cablearm: the following arguments are required: command"),
    ], ids=["wrong-type", "unknown-flag", "no-subcommand"])
    def test_malformed_command_line_is_a_parse_error(self, capsys, argv, message):
        """argparse's errors end in the parse record (exit 2), not in usage
        text."""
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {"error": {"category": "parse", "message": message}}

    def test_help_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cablearm")

    def test_import_leaves_scipy_optimize_unloaded(self):
        """Importing the CLI must not pull in scipy.optimize, whose import
        alone is a large share of a run's set-up time."""
        probe = "import sys, cablearm.cli; print('scipy.optimize' in sys.modules)"
        env = _fresh_env()
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("block", [False, True], ids=["unloaded", "unimportable"])
    def test_simulate_runs_without_scipy(self, tmp_path, block):
        """A short integrated2 run through the CLI loads no scipy module,
        and runs when scipy cannot be imported at all."""
        probe = (
            "import json, sys\n"
            "if sys.argv[1] == '1':\n"
            "    sys.modules['scipy'] = None\n"
            "from cablearm.cli import main\n"
            "code = main(['simulate', '--scenario', sys.argv[2], '--out-dir', sys.argv[3]])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([code, loaded]))\n"
        )
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(dict(SHORT, t_end_s=0.05)))
        env = _fresh_env()
        out = subprocess.run([sys.executable, "-c", probe, str(int(block)), str(scenario),
                              str(tmp_path / "o")], capture_output=True, text=True, env=env,
                             check=True, timeout=120)
        code, scipy_modules = json.loads(out.stdout.strip().splitlines()[-1])
        assert code == 0
        assert scipy_modules == (["scipy"] if block else [])

    def test_evaluate_command(self, short_run, capsys):
        code = main(["evaluate", "--trace", short_run["trace"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rmse_2d_m"] == short_run["report"]["rmse_2d_m"]

    def test_inverse_dynamics_command(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"q": [0] * 9, "qdot": [0] * 9, "qddot": [0] * 9}))
        code = main(["inverse-dynamics", "--model", "hcdr9dof", "--state", str(state)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.isclose(doc["tau_platform"][2], 11.2 * 9.81)

    def test_linearize_command(self, tmp_path, capsys):
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({
            "x": [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0],
            "u": [30.0, 30.0, 0.0, 0.0],
            "L01": 0.85, "L02": 0.80,
        }))
        code = main(["linearize", "--model", "hcdr9dof", "--state", str(point),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["A_shape"] == [10, 10]
        assert doc["B_shape"] == [10, 4]
        saved = json.loads((tmp_path / "ltv.json").read_text())
        assert np.shape(saved["A"]) == (10, 10)

    def test_optimize_stiffness_command(self, tmp_path, capsys):
        code = main(["optimize-stiffness", "--out-dir", str(tmp_path), "--resolution", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["argmax"] == [80.0, 80.0]
        grid = (tmp_path / "stiffness_grid.csv").read_text().splitlines()
        assert grid[0] == "T_3,T_4,J_K,min_eig"
        assert len(grid) == 1 + 8 * 8


class TestCompare:
    def test_three_architectures(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(dict(SHORT, noise_std=0.0)))
        table = compare_architectures(str(p), tmp_path / "cmp")
        assert set(table["order"]) == {"independent", "integrated1", "integrated2"}
        r2 = [r["rmse_2d_m"] for r in table["results"]]
        assert r2 == sorted(r2)
        csv_lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        assert csv_lines[0].startswith("architecture,rmse_x_m")
        assert len(csv_lines) == 4

    def test_runs_are_the_scenario_under_each_architecture(self, tmp_path):
        """Each architecture's artifacts are, byte for byte, those of the
        scenario run with its ``architecture`` replaced."""
        doc = dict(SHORT, t_end_s=0.05)
        compare_architectures(doc, tmp_path / "cmp")
        for arch in ("independent", "integrated1", "integrated2"):
            single = run_scenario({**doc, "architecture": arch}, tmp_path / arch)
            for key, name in (("trace", "trace.csv"), ("summary", "summary.json")):
                assert ((tmp_path / "cmp" / arch / name).read_bytes()
                        == Path(single[key]).read_bytes()), (arch, name)

    @pytest.mark.parametrize("override", [
        pytest.param({"controller": {"du_bound": [5.0, 5.0, 0.2, 0.2]}}, id="4-entry-du_bound"),
        pytest.param({"architecture": "integrated3"}, id="bogus-architecture"),
    ])
    def test_unrunnable_scenario_rejected_before_any_run(self, tmp_path, capsys, override):
        """A scenario that one architecture cannot run (a 4-entry du_bound
        under the 2-input ones), or with an unknown architecture, is a
        scenario error (exit 4) and no output directory is made."""
        p = tmp_path / "s.json"
        p.write_text(json.dumps(dict(SHORT, **override)))
        assert main(["compare", "--scenario", str(p), "--out-dir", str(tmp_path / "cmp")]) == 4
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "scenario"
        assert not (tmp_path / "cmp").exists()


class TestScenarioResolution:
    def test_bundled_scenarios_load(self):
        for arch in ("independent", "integrated1", "integrated2"):
            doc = load_scenario(f"case_study_{arch}")
            cfg = resolve_scenario(doc)
            assert cfg["architecture"] == arch
            assert cfg["t_end_s"] == 6.0

    def test_integral_floats_are_whole_numbers(self):
        doc = dict(SHORT, seed=3.0, integrator_substeps=2.0, controller={"Np": 10.0, "Nc": 5.0})
        cfg = resolve_scenario(doc)
        assert (cfg["seed"], cfg["integrator_substeps"]) == (3, 2)
        assert cfg["controller"] == {"Np": 10.0, "Nc": 5.0}

    def test_substeps_default_depends_on_architecture(self):
        """Omitted, integrator_substeps resolves to 10 where the arm is on
        PID and to null (error-controlled) for integrated2; a resolved
        scenario resolves to itself, so null reads as omitted."""
        for arch, default in (("independent", 10), ("integrated1", 10), ("integrated2", None)):
            cfg = resolve_scenario(dict(SHORT, architecture=arch))
            assert cfg["integrator_substeps"] == default
            assert resolve_scenario(cfg) == cfg

    @pytest.mark.parametrize("override, path", [
        pytest.param({"controller": {"Np": 50.9}}, "$.controller.Np: expected a whole number",
                     id="Np"),
        pytest.param({"controller": {"pid": {"Kp": "1"}}}, "$.controller.pid.Kp: expected a number",
                     id="Kp"),
        pytest.param({"noise_std": "loud"}, "$.noise_std: expected a number or an array",
                     id="noise_std"),
        pytest.param({"controller": {"Q_scal": 2.0}}, "$.controller.Q_scal: unknown field",
                     id="Q_scal"),
        pytest.param({"trajectory": {"waypoints": [[0.0, REST], [1.0, ["0.5"] + REST[1:]]]}},
                     "$.trajectory.waypoints[2]: expected", id="waypoint-state"),
    ])
    def test_errors_name_their_path(self, override, path):
        with pytest.raises(CableRobotError) as caught:
            resolve_scenario(dict(SHORT, **override))
        assert str(caught.value).startswith(path)

    def test_seed_override(self, tmp_path):
        """``--seed`` is written into the scenario document as its seed."""
        p = tmp_path / "s.json"
        p.write_text(json.dumps(SHORT))
        args = build_parser().parse_args(["simulate", "--scenario", str(p), "--seed", "99"])
        doc = _scenario_arg(args)
        assert doc == dict(SHORT, seed=99)
        assert resolve_scenario(doc)["seed"] == 99
