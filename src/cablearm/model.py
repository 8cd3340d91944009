"""Robot description types, JSON loading/serialization, and builtin instances.

Units are SI throughout and encoded in the file-schema field names
(``mass_kg``, ``a_m``, ``EA_N``, ...).  Models are immutable after
construction: all arrays are made read-only, so instances are safe to
share across threads.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from importlib import resources
from typing import Any

import numpy as np

from .errors import ConditioningError, ModelParseError, ValidationError

_PROPER_EULER_ORDERS = ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX")
_AXES = ("X", "Y", "Z")
_JOINT_KINDS = ("revolute", "prismatic")


def _arr(x, shape, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise ValidationError(f"{name}: expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name}: non-finite entries")
    a = a.copy()
    a.flags.writeable = False
    return a


def _whole(v, name: str) -> int:
    """``v`` as an int; ValidationError unless it is a whole number."""
    try:
        return _whole_number(v)
    except (ValueError, OverflowError):
        raise ValidationError(f"{name}: {v!r} is not a whole number") from None


def _check_inertia(I: np.ndarray, name: str, positive_definite: bool) -> None:
    if not np.allclose(I, I.T, rtol=0.0, atol=1e-12):
        raise ValidationError(f"{name}: inertia matrix must be symmetric")
    try:
        eig = np.linalg.eigvalsh(0.5 * (I + I.T))
    except np.linalg.LinAlgError:   # entries near the float limit overflow to inf
        raise ConditioningError(f"{name}: inertia eigenvalues did not converge") from None
    if positive_definite and eig.min() <= 0.0:
        raise ValidationError(f"{name}: inertia matrix must be positive definite")
    if not positive_definite and eig.min() < -1e-12:
        raise ValidationError(f"{name}: inertia matrix must be positive semidefinite")


@dataclass(frozen=True)
class PlatformParams:
    """Mobile-platform rigid body plus its cable suspension.

    Row i of ``a_world`` and ``r_body`` is cable i's attachment pair: its
    anchor on the static frame and its hook point on the platform.
    ``actuator_groups`` partitions the 1-based cable indices into sets
    sharing one winch.  ``tension_controlled_groups`` names the groups whose
    cables are force-commanded (the rest are length-commanded).
    """

    mass: float
    inertia: np.ndarray
    a_world: np.ndarray               # (N, 3) anchors, world coordinates [m]
    r_body: np.ndarray                # (N, 3) attachments, body coordinates [m]
    axial_stiffness: np.ndarray       # EA per cable [N]
    tension_min: np.ndarray           # [N]
    tension_max: np.ndarray           # [N]
    actuator_groups: dict[int, tuple[int, ...]] = field(default_factory=dict)
    tension_controlled_groups: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 < self.mass < np.inf:
            raise ValidationError("platform mass must be positive and finite")
        object.__setattr__(self, "inertia", _arr(self.inertia, (3, 3), "platform inertia"))
        _check_inertia(self.inertia, "platform", positive_definite=True)
        rows = np.shape(self.a_world)[:1]     # (N,); () for a scalar, which fails the check
        object.__setattr__(self, "a_world", _arr(self.a_world, rows + (3,), "a_world"))
        n = len(self.a_world)
        object.__setattr__(self, "r_body", _arr(self.r_body, (n, 3), "r_body"))
        object.__setattr__(self, "axial_stiffness", _arr(self.axial_stiffness, (n,), "EA"))
        object.__setattr__(self, "tension_min", _arr(self.tension_min, (n,), "Tmin"))
        object.__setattr__(self, "tension_max", _arr(self.tension_max, (n,), "Tmax"))
        if n and np.any(self.axial_stiffness <= 0):
            raise ValidationError("cable axial stiffness EA must be positive")
        if np.any(self.tension_min < 0):
            raise ValidationError("tension bounds: Tmin must be >= 0")
        if np.any(self.tension_min > self.tension_max):
            bad = int(np.argmax(self.tension_min > self.tension_max)) + 1
            raise ValidationError(f"tension bounds: Tmin > Tmax for cable {bad}")
        groups = {_whole(k, "actuator_groups"):
                  tuple(_whole(i, f"actuator_groups[{k}]") for i in v)
                  for k, v in self.actuator_groups.items()}
        object.__setattr__(self, "actuator_groups", groups)
        if groups:
            flat = [i for ids in groups.values() for i in ids]
            if sorted(flat) != list(range(1, n + 1)):
                raise ValidationError("actuator_groups must be a disjoint cover of 1..N")
        object.__setattr__(self, "tension_controlled_groups", tuple(
            _whole(g, "tension_controlled_groups") for g in self.tension_controlled_groups))
        for g in self.tension_controlled_groups:
            if g not in groups:
                raise ValidationError(f"tension_controlled_groups: unknown group {g}")

    @property
    def n_cables(self) -> int:
        return len(self.a_world)

    def group_indices(self, group: int) -> np.ndarray:
        """0-based cable indices of one actuator group."""
        return np.array(self.actuator_groups[group], dtype=int) - 1

    def actuation_layout(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Sorted ids of the force-commanded and the length-commanded groups."""
        force = tuple(sorted(self.tension_controlled_groups))
        return force, tuple(sorted(set(self.actuator_groups) - set(force)))


@dataclass(frozen=True)
class ArmLink:
    """One serial-arm link: inertial parameters plus its parent joint.

    ``joint_offset`` locates the next joint in this link's frame;
    ``com_offset`` locates the link COM in this link's frame.  For a
    prismatic joint the declared axis offset grows with the joint variable
    and the link frame does not rotate.
    """

    mass: float
    inertia: np.ndarray
    joint_kind: str                   # "revolute" | "prismatic"
    joint_axis: str                   # "X" | "Y" | "Z"
    joint_offset: np.ndarray
    com_offset: np.ndarray

    def __post_init__(self):
        if not 0 < self.mass < np.inf:
            raise ValidationError("arm link mass must be positive and finite")
        object.__setattr__(self, "inertia", _arr(self.inertia, (3, 3), "link inertia"))
        _check_inertia(self.inertia, "arm link", positive_definite=False)
        if self.joint_kind not in _JOINT_KINDS:
            raise ValidationError(f"joint kind must be one of {_JOINT_KINDS}")
        if self.joint_axis not in _AXES:
            raise ValidationError(f"joint axis must be one of {_AXES}")
        object.__setattr__(self, "joint_offset", _arr(self.joint_offset, (3,), "joint_offset"))
        object.__setattr__(self, "com_offset", _arr(self.com_offset, (3,), "com_offset"))

    @property
    def axis_index(self) -> int:
        return _AXES.index(self.joint_axis)


@dataclass(frozen=True)
class BodyArrays:
    """Constants of the platform + arm tree, stacked for the batched chain pass.

    Bodies are the platform (0) and the arm links (1..m).  Axes are the
    coordinates 3.. of ``q``: the three Euler angles, then the arm joints.
    ``frame[b]`` holds, as columns in body b's frame, the lever from its
    inboard joint (the platform origin for body 0) to its outboard joint,
    the lever to its COM and its joint axis; ``slide[b]`` is the change of
    those columns per unit of prismatic travel.  ``turns[b, k]`` is 1 when
    revolute axis k rotates body b, ``slides[b, k]`` when prismatic axis k
    translates it.  ``order`` lists the axes from base to tip (Euler axes in
    convention order) and ``origin`` indexes each axis's point in the
    chain's joint positions.
    """

    mass: np.ndarray        # (m+1,)
    inertia: np.ndarray     # (m+1, 3, 3)
    axis: np.ndarray        # (3+m,) coordinate axis (0=X) each axis turns or slides along
    revolute: np.ndarray    # (3+m,) 1.0 for revolute axes, 0.0 for prismatic
    frame: np.ndarray       # (m+1, 3, 3)
    slide: np.ndarray       # (m+1, 3, 3)
    turns: np.ndarray       # (m+1, 3+m)
    slides: np.ndarray      # (m+1, 3+m)
    order: np.ndarray       # (3+m,)
    origin: np.ndarray      # (3+m,)

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @classmethod
    def stack(cls, model: "RobotModel") -> "BodyArrays":
        arm = model.arm
        m = len(arm)
        axis = np.array([0, 1, 2] + [link.axis_index for link in arm], dtype=int)
        revolute = np.array([1.0, 1.0, 1.0] + [l.joint_kind == "revolute" for l in arm])
        unit = np.eye(3)[axis[3:]].reshape(m, 3)
        frame = np.zeros((m + 1, 3, 3))
        frame[0, :, 0] = model.mount_offset
        frame[1:] = np.stack([np.array([l.joint_offset for l in arm]).reshape(m, 3),
                              np.array([l.com_offset for l in arm]).reshape(m, 3), unit], axis=-1)
        slide = np.zeros((m + 1, 3, 3))
        slide[1:, :, 0:2] = ((1.0 - revolute[3:])[:, None] * unit)[:, :, None]
        reach = np.hstack([np.ones((m + 1, 3)), np.tril(np.ones((m + 1, m)), k=-1)])
        p = model.platform
        return cls(
            mass=np.array([p.mass] + [l.mass for l in arm]),
            inertia=np.array([p.inertia] + [l.inertia for l in arm]),
            axis=axis,
            revolute=revolute,
            frame=frame,
            slide=slide,
            turns=reach * revolute,
            slides=reach * (1.0 - revolute),
            order=np.array([_AXES.index(c) for c in model.euler_convention] + list(range(3, 3 + m))),
            origin=np.array([0, 0, 0] + list(range(1, m + 1))),
        )


@dataclass(frozen=True)
class RobotModel:
    """Immutable description of the coupled platform + arm system."""

    platform: PlatformParams
    arm: tuple[ArmLink, ...]
    mount_offset: np.ndarray          # platform frame -> arm base [m]
    mount_rotation: np.ndarray        # platform frame -> arm base frame
    gravity: float = 9.81
    euler_convention: str = "XYZ"

    def __post_init__(self):
        object.__setattr__(self, "arm", tuple(self.arm))
        object.__setattr__(self, "mount_offset", _arr(self.mount_offset, (3,), "mount offset"))
        R = _arr(self.mount_rotation, (3, 3), "mount rotation")
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-10):
            raise ValidationError("mount rotation must be orthonormal")
        if not np.isclose(np.linalg.det(R), 1.0, atol=1e-10):   # cannot raise: R is 3x3
            raise ValidationError("mount rotation must have determinant +1")
        object.__setattr__(self, "mount_rotation", R)
        if self.euler_convention not in _PROPER_EULER_ORDERS:
            raise ValidationError(
                f"euler convention must be one of {_PROPER_EULER_ORDERS}"
            )
        if not np.isfinite(self.gravity):
            raise ValidationError("gravity must be finite")

    @property
    def n_cables(self) -> int:
        return self.platform.n_cables

    @property
    def n_arm(self) -> int:
        return len(self.arm)

    @property
    def nq(self) -> int:
        """Generalized-coordinate count: platform pose (6) + joint angles."""
        return 6 + len(self.arm)

    @cached_property
    def bodies(self) -> BodyArrays:
        """Stacked per-body constants, built on first use."""
        return BodyArrays.stack(self)

    def platform_only(self) -> "RobotModel":
        """Copy of this model with the arm removed (decoupled CDPR)."""
        return replace(self, arm=())


@dataclass(frozen=True)
class QuadrotorParams:
    """Four-rotor platform: thrusts along body +Z at the four rotor arms."""

    mass: float
    inertia: np.ndarray
    arm_length: float                 # d [m]
    moment_ratio: float               # k_M / k_F [m]
    rotor_positions: np.ndarray = field(init=False)  # (4,3) body frame, derived from d

    def __post_init__(self):
        if self.arm_length <= 0:
            raise ValidationError("quadrotor arm length d must be positive")
        object.__setattr__(self, "inertia", _arr(self.inertia, (3, 3), "quadrotor inertia"))
        _check_inertia(self.inertia, "quadrotor", positive_definite=True)
        d = self.arm_length
        object.__setattr__(self, "rotor_positions", _arr(
            [[d, 0, 0], [0, d, 0], [-d, 0, 0], [0, -d, 0]], (4, 3), "rotor positions"))


# ---------------------------------------------------------------------------
# JSON documents: the one reader of model, scenario and state files


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ModelParseError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def _json_object(text: str) -> dict:
    """The object a JSON document holds.  ModelParseError for a syntax error
    (naming its line and column), a key repeated within one object, or a
    root that is not an object."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ModelParseError("$: expected an object")
    return doc


def _object(doc, where: str, fields: tuple) -> dict:
    """``doc`` if it is an object with no field outside ``fields``;
    ModelParseError naming the path of the first unknown field otherwise."""
    if not isinstance(doc, dict):
        raise ModelParseError(f"{where}: expected an object")
    for key in doc:
        if key not in fields:
            raise ModelParseError(f"{where}.{key}: unknown field (known: {', '.join(fields)})")
    return doc


def _check(ok, v):
    if not ok:
        raise ValueError(v)
    return v


def _number(v) -> float:
    return float(_check(isinstance(v, numbers.Real) and not isinstance(v, bool), v))


def _whole_number(v) -> int:
    return int(_check(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                      or _number(v).is_integer(), v))


def _number_array(v) -> np.ndarray:
    """A rectangular nest of arrays of numbers, as a float array."""
    for x in _check(isinstance(v, (list, tuple)), v):
        (_number_array if isinstance(x, (list, tuple)) else _number)(x)
    return np.asarray(v, dtype=float)


def _wholes(v) -> tuple:
    return tuple(_whole_number(x) for x in _check(isinstance(v, (list, tuple)), v))


def _groups(v) -> dict:
    """Actuator groups: plain decimal ids ("3", not "03", " 3" or "+3") to
    arrays of cable indices."""
    return {int(_check(str(int(k)) == k, k)): _wholes(ids)
            for k, ids in _check(isinstance(v, dict), v).items()}


# kind -> (parser, description in errors); a parser returns the value read
# as its kind and raises ValueError or OverflowError for any other value
_KINDS = {
    "object": (lambda v: _check(isinstance(v, dict), v), "an object"),
    "array": (lambda v: _check(isinstance(v, (list, tuple)), v), "an array"),
    "string": (lambda v: _check(isinstance(v, str), v), "a string"),
    "number": (_number, "a number"),
    "whole": (_whole_number, "a whole number"),
    # kept as written; wrapped in a list, one number or a flat array is at most 2-D
    "numeric": (lambda v: _check(_number_array([v]).ndim <= 2, v),
                "a number or an array of numbers"),
    "numbers": (_number_array, "an array of numbers"),
    "finite numbers": (lambda v: _check(np.isfinite(_number_array(v)).all(), _number_array(v)),
                       "an array of finite numbers"),
    "wholes": (_wholes, "an array of whole numbers"),
    "groups": (_groups, 'an object of plain decimal group ids ("3", not "03") to arrays of '
                        "whole numbers"),
}
_REQUIRED = object()


def _field(doc: dict, key: str, where: str, kind, default=_REQUIRED, error=ModelParseError,
           shape: tuple | None = None):
    """Field ``key`` of the object ``doc`` at JSON path ``where``, read as
    ``kind``: a name in ``_KINDS``, or a tuple of field names for an object
    holding only those (:func:`_object`, whose errors are ModelParseErrors).

    An omitted field takes ``default`` and is required when there is none;
    a null reads as omitted where the default is None.  A missing value or
    one of another kind or ``shape`` raises ``error`` naming its path."""
    if key not in doc or (doc[key] is None and default is None):
        if default is _REQUIRED:
            raise error(f"{where}: missing required field '{key}'")
        return default
    if isinstance(kind, tuple):
        return _object(doc[key], f"{where}.{key}", kind)
    parse, description = _KINDS[kind]
    try:
        value = parse(doc[key])
        if shape is None or np.shape(value) == shape:
            return value
    except (ValueError, OverflowError):
        pass
    raise error(f"{where}.{key}: expected {description}" + (f" of shape {shape}" if shape else ""))


def _inertia_from_doc(doc: dict, where: str) -> np.ndarray:
    arr = _field(doc, "inertia_kgm2", where, "numbers")
    if arr.shape == (3,):
        return np.diag(arr)          # diagonal shorthand, expanded on load
    if arr.shape == (3, 3):
        return arr
    raise ModelParseError(f"{where}: inertia_kgm2 must be a 3-vector diagonal or 3x3 matrix")


def model_from_dict(doc: dict) -> RobotModel:
    """Build and validate a RobotModel from a schema-conforming dictionary.

    A missing field, an unknown field or a value of the wrong JSON type at
    any level raises ModelParseError naming its path; values of the right
    type that break an invariant raise ValidationError."""
    doc = _object(doc, "$", ("platform", "arm", "mount", "gravity_mps2", "euler_order"))
    pdoc = _field(doc, "platform", "$", ("mass_kg", "inertia_kgm2", "cables", "actuator_groups",
                                         "tension_controlled_groups"))
    a, r, ea, tmin, tmax = [], [], [], [], []
    for i, c in enumerate(_field(pdoc, "cables", "$.platform", "array"), start=1):
        where = f"$.platform.cables[{i}]"
        c = _object(c, where, ("a_m", "r_m", "EA_N", "Tmin_N", "Tmax_N"))
        a.append(_field(c, "a_m", where, "numbers", shape=(3,)))
        r.append(_field(c, "r_m", where, "numbers", shape=(3,)))
        ea.append(_field(c, "EA_N", where, "number"))
        tmin.append(_field(c, "Tmin_N", where, "number"))
        tmax.append(_field(c, "Tmax_N", where, "number"))
    platform = PlatformParams(
        mass=_field(pdoc, "mass_kg", "$.platform", "number"),
        inertia=_inertia_from_doc(pdoc, "$.platform"),
        a_world=np.reshape(a, (-1, 3)),
        r_body=np.reshape(r, (-1, 3)),
        axial_stiffness=np.array(ea),
        tension_min=np.array(tmin),
        tension_max=np.array(tmax),
        actuator_groups=_field(pdoc, "actuator_groups", "$.platform", "groups", {}),
        tension_controlled_groups=_field(pdoc, "tension_controlled_groups", "$.platform",
                                         "wholes", ()),
    )
    links = []
    for j, ldoc in enumerate(_field(doc, "arm", "$", "array", []), start=1):
        where = f"$.arm[{j}]"
        ldoc = _object(ldoc, where, ("mass_kg", "inertia_kgm2", "joint", "joint_offset_m",
                                     "com_offset_m"))
        joint = _field(ldoc, "joint", where, ("kind", "axis"))
        links.append(
            ArmLink(
                mass=_field(ldoc, "mass_kg", where, "number"),
                inertia=_inertia_from_doc(ldoc, where),
                joint_kind=_field(joint, "kind", where + ".joint", "string"),
                joint_axis=_field(joint, "axis", where + ".joint", "string"),
                joint_offset=_field(ldoc, "joint_offset_m", where, "numbers"),
                com_offset=_field(ldoc, "com_offset_m", where, "numbers"),
            )
        )
    mount = _field(doc, "mount", "$", ("l_m_m", "R_m_a0"), {})
    return RobotModel(
        platform=platform,
        arm=tuple(links),
        mount_offset=_field(mount, "l_m_m", "$.mount", "numbers", np.zeros(3)),
        mount_rotation=_field(mount, "R_m_a0", "$.mount", "numbers", np.eye(3)),
        gravity=_field(doc, "gravity_mps2", "$", "number", 9.81),
        euler_convention=_field(doc, "euler_order", "$", "string", "XYZ"),
    )


def load_model(text: str) -> RobotModel:
    """Parse a JSON robot description and return a validated model.

    Raises ModelParseError naming the offending field (and line for syntax
    errors); raises ValidationError naming the violated invariant.
    """
    return model_from_dict(_json_object(text))


def model_to_dict(model: RobotModel) -> dict:
    """Inverse of :func:`model_from_dict` (field-for-field round trip)."""
    p = model.platform
    doc: dict[str, Any] = {
        "platform": {
            "mass_kg": p.mass,
            "inertia_kgm2": p.inertia.tolist(),
            "cables": [
                {"a_m": a.tolist(), "r_m": r.tolist(), "EA_N": float(ea),
                 "Tmin_N": float(lo), "Tmax_N": float(hi)}
                for a, r, ea, lo, hi in zip(p.a_world, p.r_body, p.axial_stiffness,
                                            p.tension_min, p.tension_max)
            ],
            "actuator_groups": {str(k): list(v) for k, v in p.actuator_groups.items()},
        },
        "arm": [
            {
                "mass_kg": link.mass,
                "inertia_kgm2": link.inertia.tolist(),
                "joint": {"kind": link.joint_kind, "axis": link.joint_axis},
                "joint_offset_m": link.joint_offset.tolist(),
                "com_offset_m": link.com_offset.tolist(),
            }
            for link in model.arm
        ],
        "mount": {
            "l_m_m": model.mount_offset.tolist(),
            "R_m_a0": model.mount_rotation.tolist(),
        },
        "gravity_mps2": model.gravity,
        "euler_order": model.euler_convention,
    }
    if p.tension_controlled_groups:
        doc["platform"]["tension_controlled_groups"] = list(p.tension_controlled_groups)
    return doc


def serialize_model(model: RobotModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Builtin instances

def builtin_hcdr9dof() -> RobotModel:
    """The bundled 9-DOF instance (``data/hcdr9dof.json``): a 12-cable
    platform carrying a 3-link arm.

    Upper cable groups 1 (cables 5,6,11,12) and 2 (cables 1,2,7,8) are
    length-commanded; lower groups 3 (cables 4,10) and 4 (cables 3,9) are
    tension-commanded.
    """
    return builtin_model("hcdr9dof")


def builtin_quadrotor_arm() -> tuple[QuadrotorParams, RobotModel]:
    """Quadrotor with a 2-link (revolute Z then Y) arm mounted upside down.

    All numeric values here are package defaults chosen for a small
    hover-capable vehicle; they are not measured parameters of any
    particular aircraft.
    """
    mass, inertia = 0.5, np.diag([2.3e-3, 2.3e-3, 4.0e-3])
    quad = QuadrotorParams(mass=mass, inertia=inertia, arm_length=0.17, moment_ratio=0.016)
    link_length = 0.06
    link = dict(
        mass=0.05,
        inertia=np.diag([1e-4, 1e-4, 1e-4]),
        joint_kind="revolute",
        joint_offset=np.array([0.0, 0.0, link_length]),
        com_offset=np.array([0.0, 0.0, link_length / 2]),
    )
    arm = (ArmLink(joint_axis="Z", **link), ArmLink(joint_axis="Y", **link))
    # Upside-down mount: arm base frame rotated pi about X so its +Z points
    # down in the platform frame, links extend below the vehicle.
    R_flip = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    body = RobotModel(
        platform=PlatformParams(
            mass=mass,
            inertia=inertia,
            a_world=np.zeros((0, 3)),
            r_body=np.zeros((0, 3)),
            axial_stiffness=np.zeros(0),
            tension_min=np.zeros(0),
            tension_max=np.zeros(0),
        ),
        arm=arm,
        mount_offset=np.array([0.0, 0.0, -0.02]),
        mount_rotation=R_flip,
        gravity=9.81,
        euler_convention="ZXY",
    )
    return quad, body


def builtin_model(name: str) -> RobotModel:
    """The model bundled as ``data/<name>.json`` (currently only ``hcdr9dof``)."""
    ref = resources.files("cablearm").joinpath(f"data/{name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ModelParseError(f"unknown builtin model '{name}'") from None
    return load_model(text)
