import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cablearm
from cablearm.cli import load_scenario
from cablearm.errors import ModelParseError, ValidationError
from cablearm.model import (
    builtin_hcdr9dof,
    builtin_quadrotor_arm,
    load_model,
    model_from_dict,
    model_to_dict,
    serialize_model,
)
from cablearm.sim import resolve_scenario

# Cable mount table of the builtin instance, transcribed independently.
MOUNT_TABLE = [
    (1.500, 0.000, 0.500, 0.153, -0.065, 0.048),
    (1.580, -0.065, 0.404, 0.233, 0.000, -0.048),
    (1.500, 0.000, -0.500, 0.223, -0.088, -0.017),
    (-1.500, 0.000, -0.500, -0.223, -0.088, -0.017),
    (-1.580, -0.065, 0.404, -0.233, 0.000, -0.048),
    (-1.500, 0.000, 0.500, -0.153, -0.065, 0.048),
    (1.500, 0.000, 0.500, 0.153, 0.065, 0.048),
    (1.580, 0.065, 0.404, 0.233, 0.000, -0.048),
    (1.500, 0.000, -0.500, 0.223, 0.088, -0.017),
    (-1.500, 0.000, -0.500, -0.223, 0.088, -0.017),
    (-1.580, 0.065, 0.404, -0.233, 0.000, -0.048),
    (-1.500, 0.000, 0.500, -0.153, 0.065, 0.048),
]


class TestBuiltinHcdr:
    def test_first_cable_mount(self, hcdr):
        assert np.array_equal(hcdr.platform.a_world[0], [1.5, 0.0, 0.5])
        assert np.array_equal(hcdr.platform.r_body[0], [0.153, -0.065, 0.048])

    def test_all_mount_rows(self, hcdr):
        for i, row in enumerate(MOUNT_TABLE):
            assert np.array_equal(hcdr.platform.a_world[i], row[0:3]), i
            assert np.array_equal(hcdr.platform.r_body[i], row[3:6]), i

    def test_scalar_parameters(self, hcdr):
        p = hcdr.platform
        assert p.n_cables == 12
        assert p.mass == 10.0
        assert np.array_equal(p.inertia, np.diag([0.0218, 0.1187, 0.1251]))
        assert np.all(p.axial_stiffness == 100.0)
        assert np.all(p.tension_min == 5.0)
        assert np.all(p.tension_max == 80.0)
        assert hcdr.gravity == 9.81
        assert np.array_equal(hcdr.mount_offset, [0, 0, 0.048])

    def test_arm_links(self, hcdr):
        assert len(hcdr.arm) == 3
        assert [l.joint_axis for l in hcdr.arm] == ["Z", "Y", "Y"]
        for link in hcdr.arm:
            assert link.mass == 0.4
            assert np.array_equal(link.inertia, 0.1 * np.eye(3))
            assert np.array_equal(link.joint_offset, [0, 0, 0.1])
            assert np.array_equal(link.com_offset, [0, 0, 0.05])

    def test_actuator_groups(self, hcdr):
        assert hcdr.platform.actuator_groups == {
            1: (5, 6, 11, 12),
            2: (1, 2, 7, 8),
            3: (4, 10),
            4: (3, 9),
        }
        assert hcdr.platform.tension_controlled_groups == (3, 4)


class TestRoundTrip:
    def test_serialize_reload_identity(self, hcdr):
        reloaded = load_model(serialize_model(hcdr))
        assert model_to_dict(reloaded) == model_to_dict(hcdr)

    @given(
        mass=st.floats(0.5, 50.0),
        n_links=st.integers(0, 3),
        ea=st.floats(10.0, 500.0),
        off=st.floats(-0.4, 0.4),
    )
    def test_random_models_round_trip(self, mass, n_links, ea, off):
        doc = {
            "platform": {
                "mass_kg": mass,
                "inertia_kgm2": [0.1, 0.2, 0.3],
                "cables": [
                    {"a_m": [1.0, off, 0.5], "r_m": [0.1, 0.0, 0.0],
                     "EA_N": ea, "Tmin_N": 1.0, "Tmax_N": 50.0},
                    {"a_m": [-1.0, 0.0, 0.5], "r_m": [-0.1, off, 0.0],
                     "EA_N": ea, "Tmin_N": 0.0, "Tmax_N": 60.0},
                ],
                "actuator_groups": {"1": [1], "2": [2]},
            },
            "arm": [
                {"mass_kg": 0.2 + 0.1 * j, "inertia_kgm2": [0.01, 0.01, 0.02],
                 "joint": {"kind": "revolute", "axis": "YZX"[j]},
                 "joint_offset_m": [0, 0, 0.1], "com_offset_m": [0, 0, 0.05]}
                for j in range(n_links)
            ],
            "mount": {"l_m_m": [off, 0.0, 0.05], "R_m_a0": np.eye(3).tolist()},
            "gravity_mps2": 9.81,
            "euler_order": "XYZ",
        }
        model = model_from_dict(doc)
        assert model_to_dict(load_model(serialize_model(model))) == model_to_dict(model)


    def test_shipped_and_written_documents_pass_the_strict_reader(self):
        """The bundled model and scenarios and a serialized quadrotor model
        load through the reader that rejects unknown fields and duplicate
        keys."""
        text = (Path(cablearm.__file__).parent / "data" / "hcdr9dof.json").read_text()
        assert model_to_dict(load_model(text)) == model_to_dict(builtin_hcdr9dof())
        for arch in ("independent", "integrated1", "integrated2"):
            assert resolve_scenario(load_scenario(f"case_study_{arch}"))["architecture"] == arch
        _, quad = builtin_quadrotor_arm()
        assert model_to_dict(load_model(serialize_model(quad))) == model_to_dict(quad)


class TestValidation:
    def _doc(self, **overrides):
        doc = json.loads(serialize_model(builtin_hcdr9dof()))
        for path, value in overrides.items():
            parts = path.split(".")
            node = doc
            for p in parts[:-1]:
                node = node[p]
            node[parts[-1]] = value
        return doc

    def test_tension_bounds_reversed(self):
        doc = self._doc()
        doc["platform"]["cables"][3]["Tmin_N"] = 90.0
        with pytest.raises(ValidationError, match="Tmin > Tmax"):
            model_from_dict(doc)

    def test_cable_table_needs_three_columns(self, hcdr):
        with pytest.raises(ValidationError, match=r"a_world: expected shape \(12, 3\)"):
            replace(hcdr.platform, a_world=hcdr.platform.a_world[:, 0:2])

    def test_nonsymmetric_inertia(self):
        doc = self._doc()
        inertia = np.diag([0.1, 0.1, 0.1])
        inertia[0, 1] = 0.02
        doc["platform"]["inertia_kgm2"] = inertia.tolist()
        with pytest.raises(ValidationError, match="symmetric"):
            model_from_dict(doc)

    def test_missing_field_named(self):
        doc = self._doc()
        del doc["platform"]["cables"][4]["EA_N"]
        with pytest.raises(ModelParseError, match=r"cables\[5\].*EA_N"):
            model_from_dict(doc)

    def test_bad_json_names_line(self):
        with pytest.raises(ModelParseError, match="line"):
            load_model("{\n  broken")

    def test_groups_must_cover(self):
        doc = self._doc()
        doc["platform"]["actuator_groups"] = {"1": list(range(1, 12))}
        with pytest.raises(ValidationError, match="disjoint cover"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("tension_controlled_groups", (3.7, 4)),
        ("actuator_groups", {1: (5, 6, 11, 12), 2: (1, 2, 7, 8), 3: (4.9, 10.2), 4: (3, 9)}),
        ("actuator_groups", {1: (5, 6, 11, 12), 2: (1, 2, 7, 8), 3.5: (4, 10), 4: (3, 9)}),
    ])
    def test_fractional_group_ids_rejected(self, hcdr, field, value):
        """Built directly, a fractional group id or cable index is an error,
        not truncated; integral floats stay accepted."""
        with pytest.raises(ValidationError, match="not a whole number"):
            replace(hcdr.platform, **{field: value})
        assert replace(hcdr.platform, tension_controlled_groups=(3.0, 4)) \
            .tension_controlled_groups == (3, 4)

    def test_bad_mount_rotation(self):
        doc = self._doc()
        doc["mount"]["R_m_a0"] = (2 * np.eye(3)).tolist()
        with pytest.raises(ValidationError, match="orthonormal"):
            model_from_dict(doc)

    def test_missing_mount_defaults_to_identity(self):
        doc = self._doc()
        del doc["mount"]["R_m_a0"]
        model = model_from_dict(doc)
        assert np.array_equal(model.mount_rotation, np.eye(3))

    def test_diagonal_inertia_expanded(self):
        doc = self._doc()
        doc["platform"]["inertia_kgm2"] = [0.1, 0.2, 0.3]
        model = model_from_dict(doc)
        assert np.array_equal(model.platform.inertia, np.diag([0.1, 0.2, 0.3]))

    def test_bad_euler_order(self):
        doc = self._doc()
        doc["euler_order"] = "XXZ"
        with pytest.raises(ValidationError, match="convention"):
            model_from_dict(doc)


class TestQuadrotorBuiltin:
    def test_convention_and_arm(self):
        quad, body = builtin_quadrotor_arm()
        assert body.euler_convention == "ZXY"
        assert len(body.arm) == 2
        assert [l.joint_axis for l in body.arm] == ["Z", "Y"]
        assert all(l.joint_kind == "revolute" for l in body.arm)

    def test_rotor_positions(self):
        quad, _ = builtin_quadrotor_arm()
        d = quad.arm_length
        assert np.array_equal(quad.rotor_positions[2], [-d, 0, 0])
        assert np.array_equal(quad.rotor_positions[0], [d, 0, 0])

    def test_no_cables(self):
        _, body = builtin_quadrotor_arm()
        assert body.n_cables == 0
