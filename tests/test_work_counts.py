"""Work per closed-loop run, as exact call counts.

Timings are noisy; the number of times each layer runs is not.  Spies
count, per run:

* ``PlanarPlant.f`` calls and state rows (integration and linearization);
* ``run_period`` calls, one per controller period (0.01 s);
* ``mpc_design`` calls, one per change of the period's linearization;
* ``linearize`` and ``optimize_tensions`` block calls and rows;
* QP calls (``solve_qp_active_set``), one per period;
* ``pid_step`` calls, one per substep where the arm is on PID;
* ``TrajectorySpec.sample`` calls, one for the reference and, where the arm
  is on PID, one for the joint reference at every substep time;
* ``PlanarPlant.record`` blocks, each of which runs one ``arm_chain`` and
  one ``_cable_frames`` pass.

Noise-free integrated2 accepts every held period at 2 substeps (8 ``f``
calls of 12 rows): its largest error estimate on these runs is about 4e-10,
20 times below ``HELD_TOL``, so the count is exact on any host.  A change
that alters a count updates ``EXPECTED`` and says why.
"""

import numpy as np
import pytest

from cablearm import control, dynamics, kinematics, sim
from cablearm.sim import PlanarPlant, TrajectorySpec

# (architecture, t_end_s): {counter: (calls, rows)}
EXPECTED = {
    # 30 periods x 10 substeps x 4 RK4 stages, plus one linearization
    # stencil (1 point, 17 rows on the platform-only design model)
    ("independent", 0.3): {
        "f": (1201, 1217), "mpc_design": (1, 0), "linearize": (1, 1),
        "optimize_tensions": (1, 1), "qp": (30, 0), "sample": (2, 0), "record": (1, 31),
        "pid": (300, 0),
    },
    # as independent, on the coupled design model: 29-row stencil
    ("integrated1", 0.3): {
        "f": (1201, 1229), "mpc_design": (1, 0), "linearize": (1, 1),
        "optimize_tensions": (1, 1), "qp": (30, 0), "sample": (2, 0), "record": (1, 31),
        "pid": (300, 0),
    },
    # 30 held periods x 8 calls (12 rows), plus one 29-row stencil
    ("integrated2", 0.3): {
        "f": (241, 389), "mpc_design": (1, 0), "linearize": (1, 1),
        "optimize_tensions": (1, 1), "qp": (30, 0), "sample": (1, 0), "record": (1, 31),
        "pid": (0, 0),
    },
    # the hold and 0.2 s of the joint-3 ramp: 20 distinct design points
    # (the hold's and 19 ramp points) in 5 linearize blocks and 20 designs;
    # 71 distinct schedule rows up to t_end + Np periods, in 2 blocks
    ("integrated2", 1.2): {
        "f": (965, 2020), "mpc_design": (20, 0), "linearize": (5, 20),
        "optimize_tensions": (2, 71), "qp": (120, 0), "sample": (1, 0), "record": (2, 121),
        "pid": (0, 0),
    },
}


def _spy(monkeypatch, counts, owner, name, key, rows=None):
    """Replace ``owner.name`` by a wrapper adding one call, and ``rows(*args)``
    rows, to ``counts[key]``."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls, n = counts.get(key, (0, 0))
        counts[key] = (calls + 1, n + (rows(*args) if rows else 0))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("arch, t_end", list(EXPECTED))
def test_work_per_run(hcdr, monkeypatch, arch, t_end):
    counts = {}
    _spy(monkeypatch, counts, PlanarPlant, "f", "f",
         lambda self, x, law: int(np.prod(np.shape(x)[:-1])))
    _spy(monkeypatch, counts, sim, "run_period", "period")
    _spy(monkeypatch, counts, control, "mpc_design", "mpc_design")
    _spy(monkeypatch, counts, sim, "linearize", "linearize", lambda plant, x, u, ex: len(x))
    _spy(monkeypatch, counts, sim, "optimize_tensions", "optimize_tensions",
         lambda model, q, qd, qdd: len(q))
    _spy(monkeypatch, counts, control, "solve_qp_active_set", "qp")
    _spy(monkeypatch, counts, sim, "pid_step", "pid")
    _spy(monkeypatch, counts, TrajectorySpec, "sample", "sample")
    _spy(monkeypatch, counts, PlanarPlant, "record", "record", lambda self, x, *rest: len(x))
    # the chain and cable passes of each record block
    for owner in (kinematics, sim):
        _spy(monkeypatch, counts, owner, "arm_chain", "arm_chain")
    for owner in (kinematics, dynamics):
        _spy(monkeypatch, counts, owner, "_cable_frames", "_cable_frames")
    per_block = []
    record = PlanarPlant.record

    def record_block(self, *args):
        before = (counts.get("arm_chain", (0, 0))[0], counts.get("_cable_frames", (0, 0))[0])
        out = record(self, *args)
        per_block.append((counts["arm_chain"][0] - before[0],
                          counts["_cable_frames"][0] - before[1]))
        return out

    monkeypatch.setattr(PlanarPlant, "record", record_block)

    sim.simulate(hcdr, {"architecture": arch, "t_end_s": t_end})
    got = {key: counts.get(key, (0, 0)) for key in EXPECTED[arch, t_end]}
    assert got == EXPECTED[arch, t_end]
    assert counts["period"] == (round(t_end / 0.01), 0)
    assert per_block == [(1, 1)] * EXPECTED[arch, t_end]["record"][0]
