#!/usr/bin/env python3
"""Print one sha256 per artifact of a fixed set of runs, to check that a
change keeps ``trace.csv``, ``summary.json``, ``trace.json``,
``comparison.csv``, ``comparison.json``, the stiffness grid CSV and the
6 s reference schedule byte for byte.

Every run goes through ``cablearm.cli.run_scenario`` and the grid through
the ``optimize-stiffness`` command, with the cablearm package that
``PYTHONPATH`` selects, so the output of two checkouts compares directly::

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python3 scripts/trace_digests.py > parent.txt
    PYTHONPATH=src python3 scripts/trace_digests.py > change.txt
    diff parent.txt change.txt

Compare two checkouts on one host, as above, rather than with digests
recorded elsewhere.  The integrated2 digests depend on the BLAS thread
count, which changes the summation order of the n = 200 MPC products:
under numpy 2.4.6 with OpenBLAS 0.3.31, two threads gave other digests
than one.  cablearm pins one thread through ``OPENBLAS_NUM_THREADS``,
which takes effect only when it is imported before numpy, so this script
imports it first.

The runs (``RUNS``): each architecture at 0.3 s with seed 3 and noise
``[1, 1, 0.02, 0.02]``; integrated1 at 1.2 s with that noise and seed 3,
past the 1 s hold, so that it builds more than one design; integrated2
at 2 s with one integrator substep, ``du_bound [5, 5, 0.2, 0.2]``, that
noise and seed 1; independent at 2 s with that noise and seed 3;
integrated2 at 2 s as bundled (noise-free, error-controlled substeps),
which reaches past the 1 s hold into the
joint-3 ramp; integrated2 at 0.6 s with that noise, seed 3, weights
unlike the defaults (``Q_scale`` 2.5, ``R_scale`` 3e-4, ``P_scale`` 0.3),
``Nc`` 20 and ``du_bound [5, Infinity, 0.2, 0.5]``, so that a change to how
the weights and the bound enter the MPC shows.  Then ``compare`` on the
0.3 s noisy integrated2 run (``comparison.csv`` and ``comparison.json``)
and that run's ``trace.json`` (written with ``fmt="json"``), the default
``optimize-stiffness`` grid, and the ``u`` and ``L0`` bytes of
``sim.reference_schedule`` along the whole 6 s case-study reference (the runs above reach its first 2.5 s only) on
both design models.  The artifacts are written to a temporary directory
and removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from cablearm import cli, sim   # before numpy: pins the BLAS threads
from cablearm.model import builtin_hcdr9dof

import numpy as np

NOISE = [1.0, 1.0, 0.02, 0.02]

# name -> (bundled scenario, overrides)
RUNS = {
    **{f"{arch}_0.3s": (f"case_study_{arch}", {"t_end_s": 0.3, "seed": 3, "noise_std": NOISE})
       for arch in ("independent", "integrated1", "integrated2")},
    "integrated1_1.2s": ("case_study_integrated1",
                         {"t_end_s": 1.2, "seed": 3, "noise_std": NOISE}),
    "integrated2_coarse_tight_2s": ("case_study_integrated2", {
        "t_end_s": 2.0, "seed": 1, "noise_std": NOISE, "integrator_substeps": 1,
        "controller": {"du_bound": [5.0, 5.0, 0.2, 0.2]},
    }),
    "independent_noisy_2s": ("case_study_independent",
                             {"t_end_s": 2.0, "seed": 3, "noise_std": NOISE}),
    "integrated2_2s": ("case_study_integrated2", {"t_end_s": 2.0}),
    "integrated2_weights_0.6s": ("case_study_integrated2", {
        "t_end_s": 0.6, "seed": 3, "noise_std": NOISE,
        "controller": {"Q_scale": 2.5, "R_scale": 3e-4, "P_scale": 0.3, "Nc": 20,
                       "du_bound": [5.0, float("inf"), 0.2, 0.5]},
    }),
}


def _line(path: Path, name: str) -> str:
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}"


def run_digests(runs: dict, out: Path) -> list[str]:
    """Digest lines of the trace and summary of each run, written under ``out``."""
    lines = []
    for name, (bundled, overrides) in runs.items():
        result = cli.run_scenario({**cli.load_scenario(bundled), **overrides}, out / name)
        lines += [_line(Path(result[key]), name) for key in ("trace", "summary")]
    return lines


def compare_digests(run: tuple, out: Path) -> list[str]:
    """Digest lines of ``compare``'s CSV and JSON table on one (bundled,
    overrides) run, and of that run's ``trace.json``, written under ``out``."""
    bundled, overrides = run
    doc = {**cli.load_scenario(bundled), **overrides}
    cli.compare_architectures(doc, out / "compare")
    lines = [_line(out / "compare" / name, "compare")
             for name in ("comparison.csv", "comparison.json")]
    cli.run_scenario(doc, out / "json", fmt="json")
    return lines + [_line(out / "json" / "trace.json", "json")]


def grid_digest(out: Path) -> str:
    """Digest line of the default ``optimize-stiffness`` grid, written under ``out``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["optimize-stiffness", "--out-dir", str(out / "grid")])
    if code:
        raise SystemExit(f"optimize-stiffness exited with {code}")
    return _line(out / "grid" / "stiffness_grid.csv", "grid")


def schedule_digest() -> str:
    """Digest line of the case study's reference schedule: the times a 6 s
    ``simulate`` run asks for, on the full model and on the platform-only
    one (the two design models)."""
    cfg = sim.resolve_scenario(cli.load_scenario("case_study_integrated2"))
    params, _ = sim.controller_params(cfg["architecture"], cfg["controller"])
    times = np.arange(round(cfg["t_end_s"] / params.Ts) + 1 + params.Np) * params.Ts
    digest = hashlib.sha256()
    for model in (builtin_hcdr9dof(), builtin_hcdr9dof().platform_only()):
        sched = sim.reference_schedule(model, sim.PlanarPlant(model), sim.case_study_trajectory(),
                                       times)
        digest.update(sched["u"].tobytes() + sched["L0"].tobytes())
    return f"{digest.hexdigest()}  schedule_6s/u+L0"


def main():
    print(f"cablearm from {Path(cli.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        print("\n".join(run_digests(RUNS, out) + compare_digests(RUNS["integrated2_0.3s"], out)
                        + [grid_digest(out), schedule_digest()]))


if __name__ == "__main__":
    main()
