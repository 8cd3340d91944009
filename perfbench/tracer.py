"""Span tracer that wraps cablearm entry points from outside the package.

Each entry point is patched where its caller looks it up, so the wrapper
is what actually runs: ``sim`` binds ``linearize``, ``optimize_tensions``
and ``pid_step`` by name, ``dynamics`` and ``kinematics`` each bind
``velocity_jacobians``, and ``PlanarPlant.f`` is patched on the class and
named ``sim.f_single`` or ``sim.f_batch`` by ``x.ndim``.  Only cablearm
functions are wrapped, never numpy, so traced runs stay bit-identical to
untraced ones.

Spans (name, start, end, parent, one number of extra data) are kept in
memory, with self time = duration minus the durations of direct children.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager

import numpy as np

from cablearm import control, dynamics, kinematics, metrics, sim

ACTIVE_TOL = 1e-7

def _active_rows(z, H, g, A_ineq=None, b_ineq=None, **_) -> float:
    if A_ineq is None or len(A_ineq) == 0:
        return 0.0
    return float(np.sum(np.asarray(A_ineq) @ z >= np.asarray(b_ineq) - ACTIVE_TOL))


# (namespace, attribute, span name, extra(result, *args, **kwargs) or None)
_PATCHES = [
    (sim, "simulate", "sim.simulate", None),
    (sim, "reference_schedule", "sim.reference_schedule",
     lambda out, model, plant, traj, times, *a, **k: float(len(times))),
    (sim, "optimize_tensions", "stiffness.optimize_tensions", None),
    (sim, "linearize", "control.linearize", None),
    (sim, "pid_step", "control.pid_step", None),
    (sim, "rk4_step", "sim.rk4_step", None),
    (dynamics, "_dynamics_core", "dynamics._dynamics_core",
     lambda out, model, q, qdot: float(np.prod(np.shape(q)[:-1]))),
    (dynamics, "velocity_jacobians", "kinematics.velocity_jacobians", None),
    (kinematics, "velocity_jacobians", "kinematics.velocity_jacobians", None),
    (control, "mpc_step", "control.mpc_step", None),
    (control, "zoh_discretize", "control.zoh", None),
    (control, "solve_qp_active_set", "control.qp", _active_rows),
    (metrics, "trace_to_csv", "metrics.trace_to_csv", None),
    (metrics, "trace_from_csv", "metrics.trace_from_csv", None),
]


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.extra: list[float] = []
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.extra.append(0.0)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name, extra):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if extra is not None:
                self.extra[idx] = extra(out, *args, **kwargs)
            return out

        return traced

    def _wrap_f(self, fn):
        single = self._wrap(fn, "sim.f_single", None)
        batch = self._wrap(fn, "sim.f_batch", None)

        def f(plant, x, *args, **kwargs):
            return (batch if np.ndim(x) > 1 else single)(plant, x, *args, **kwargs)

        return f

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _, _ in _PATCHES]
        saved.append((sim.PlanarPlant, "f", sim.PlanarPlant.f))
        try:
            for ns, attr, name, extra in _PATCHES:
                setattr(ns, attr, self._wrap(getattr(ns, attr), name, extra))
            sim.PlanarPlant.f = self._wrap_f(sim.PlanarPlant.f)
            yield self
        finally:
            for ns, attr, fn in reversed(saved):
                setattr(ns, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded run (all but the overhead)."""
        names = np.array(self.names)
        dur = np.array(self.ends) - np.array(self.starts)
        parent = np.array(self.parents, dtype=int)
        extra = np.array(self.extra)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        def sel(name):
            return names == name

        def calls(name):
            return float(np.count_nonzero(sel(name)))

        def ms(name, values=dur, q=50):
            v = values[sel(name)]
            return float(np.percentile(v, q)) * 1e3 if v.size else 0.0

        def total(name, values=dur):
            return float(values[sel(name)].sum())

        def ratio(num, den):
            return 1.0 - num / den if den else 0.0

        return {
            "sim.f_single.calls": calls("sim.f_single"),
            "sim.f_single.ms": ms("sim.f_single"),
            "sim.rk4_step.s": total("sim.rk4_step"),
            "sim.f_batch.calls": calls("sim.f_batch"),
            "sim.f_batch.ms": ms("sim.f_batch"),
            "control.linearize.ms": ms("control.linearize"),
            "control.linearize.hit_ratio": ratio(
                calls("control.linearize"), calls("control.mpc_step")),
            "dynamics._dynamics_core.calls": calls("dynamics._dynamics_core"),
            "dynamics._dynamics_core.rows": total("dynamics._dynamics_core", extra),
            "dynamics._dynamics_core.self_s": total("dynamics._dynamics_core", self_t),
            "kinematics.velocity_jacobians.calls": calls("kinematics.velocity_jacobians"),
            "kinematics.velocity_jacobians.self_s": total(
                "kinematics.velocity_jacobians", self_t),
            "control.mpc_step.ms": ms("control.mpc_step"),
            "control.mpc_step.p95_ms": ms("control.mpc_step", q=95),
            "control.mpc_build.ms": ms("control.mpc_step", self_t),
            "control.qp.ms": ms("control.qp"),
            "control.qp.active_mean": float(extra[sel("control.qp")].mean())
            if calls("control.qp") else 0.0,
            "control.qp.active_max": float(extra[sel("control.qp")].max(initial=0.0)),
            "control.zoh.ms": ms("control.zoh"),
            "sim.reference_schedule.s": total("sim.reference_schedule"),
            "sim.reference_schedule.hit_ratio": ratio(
                calls("stiffness.optimize_tensions"), total("sim.reference_schedule", extra)),
            "stiffness.optimize_tensions.calls": calls("stiffness.optimize_tensions"),
            "stiffness.optimize_tensions.ms": ms("stiffness.optimize_tensions"),
            "control.pid_step.calls": calls("control.pid_step"),
            "metrics.trace_to_csv.ms": ms("metrics.trace_to_csv"),
            "metrics.trace_from_csv.ms": ms("metrics.trace_from_csv"),
        }

    def shares(self, root: str) -> dict[str, float]:
        """Inclusive time of each span name as a share of the root spans."""
        names = np.array(self.names)
        dur = np.array(self.ends) - np.array(self.starts)
        whole = dur[names == root].sum()
        return {n: float(dur[names == n].sum() / whole) for n in dict.fromkeys(self.names)}

    def write(self, path):
        """Write the spans as CSV: id, parent, name, start_s, end_s, extra."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_s", "end_s", "extra"])
            for i, row in enumerate(zip(self.parents, self.names, self.starts,
                                        self.ends, self.extra)):
                out.writerow([i, *row])
