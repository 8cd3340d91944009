"""The benchmark's scenario workloads and the check of their outputs.

Each workload is a scenario document built from a bundled case-study
scenario plus overrides, cut to ``T_END_S`` simulated seconds: the 1 s
hold of the case-study reference and the first second of the joint-3
ramp.  See NOTES.md for why each workload exists and what it loads.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from cablearm import cli, metrics

T_END_S = 2.0
SMOKE_T_END_S = 0.05   # the smoke test's run length; committed for SMOKE_SEED only
SMOKE_SEED = 1
NOISE_STD = [1.0, 1.0, 0.02, 0.02]

# name -> (bundled scenario, overrides)
WORKLOADS = {
    "cl_integrated2": ("case_study_integrated2", {}),
    "cl_independent_noisy": ("case_study_independent", {"noise_std": NOISE_STD}),
    # The noise seed is fixed: across noise seeds this workload's RMSE
    # spreads by 20-40% (quartile distance over median), more than any
    # bound the tracking metric could carry.
    "cl_integrated2_coarse_tight": ("case_study_integrated2", {
        "noise_std": NOISE_STD,
        "seed": 1,
        "integrator_substeps": 1,
        "controller": {"du_bound": [5.0, 5.0, 0.2, 0.2]},
    }),
}

CHECKED_KEYS = ("rmse_2d_m", "min_tension_N", "max_tension_N")
REFERENCE_RTOL = 1e-6      # reference values vs this run
REFERENCE_ATOL = 1e-12     # for values that are round-off, e.g. RMSE during a hold
SELF_RTOL = 1e-12          # trace.csv vs summary.json, and run vs run
REFERENCES = Path(__file__).resolve().parent / "references.json"


def scenario(workload: str, seed: int, t_end_s: float = T_END_S) -> dict:
    """Scenario document of one workload; ``seed`` drives the input noise."""
    bundled, overrides = WORKLOADS[workload]
    doc = cli.load_scenario(bundled)
    doc["seed"] = int(seed)
    doc.update(copy.deepcopy(overrides))
    doc["t_end_s"] = float(t_end_s)
    return doc


def seed_matters(workload: str) -> bool:
    """Whether the benchmark seed reaches the simulation's noise."""
    overrides = WORKLOADS[workload][1]
    return "seed" not in overrides and np.any(np.asarray(overrides.get("noise_std", 0.0)) != 0)


def load_references() -> list[dict]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["entries"]


def run_lengths(entries: list[dict]) -> list[float]:
    """Run lengths (``t_end_s``) that have committed references."""
    return sorted({e["t_end_s"] for e in entries})


def reference_for(workload: str, seed: int, t_end_s: float, entries: list[dict]):
    """The committed reference for this run, or the band of committed values.

    Returns ``("exact", {key: value})`` when a reference exists for this
    (workload, seed, t_end), and ``("band", {key: (lo, hi)})`` when only
    other seeds of the workload are committed (each band is the committed
    range widened by its own width on both sides).  Raises ``KeyError``
    when the run length has no references for the workload.
    """
    same = [e for e in entries if e["workload"] == workload and e["t_end_s"] == t_end_s]
    if not same:
        raise KeyError(f"no committed references for {workload} at t_end_s={t_end_s}")
    want = int(seed) if seed_matters(workload) else None
    for e in same:
        if e["seed"] == want:
            return "exact", {k: e[k] for k in CHECKED_KEYS}
    band = {}
    for k in CHECKED_KEYS:
        vals = [e[k] for e in same]
        width = max(vals) - min(vals)
        band[k] = (min(vals) - width, max(vals) + width)
    return "band", band


def recomputed_report(trace_path) -> dict:
    """RMSE report recomputed from a written trace.csv."""
    cols = metrics.trace_from_csv(Path(trace_path).read_text(encoding="utf-8"))
    p_e = np.column_stack([cols["x_e"], cols["z_e"]])
    p_ref = np.column_stack([cols["ref_x_e"], cols["ref_z_e"]])
    tensions = np.column_stack([cols[f"T{i}"] for i in range(1, 13)])
    return metrics.rmse(p_e, p_ref, tensions).as_dict()


def check_run(result: dict, reference, first_summary: dict | None) -> list[str]:
    """Problems with one run's artifacts; an empty list means it passed.

    ``result`` is what ``cli.run_scenario`` returned, ``reference`` what
    ``reference_for`` gave, ``first_summary`` the summary of the
    invocation's first run (all runs of one invocation are identical).
    """
    summary = json.loads(Path(result["summary"]).read_text(encoding="utf-8"))
    problems = []
    recomputed = recomputed_report(result["trace"])
    for k in ("rmse_x_m", "rmse_z_m") + CHECKED_KEYS:
        if not math.isclose(recomputed[k], summary[k], rel_tol=SELF_RTOL):
            problems.append(f"{k}: trace.csv gives {recomputed[k]!r}, summary {summary[k]!r}")
    kind, ref = reference
    for k in CHECKED_KEYS:
        v = summary[k]
        if kind == "exact" and not math.isclose(
            v, ref[k], rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL
        ):
            problems.append(f"{k}: {v!r} differs from the reference {ref[k]!r}")
        if kind == "band" and not ref[k][0] <= v <= ref[k][1]:
            problems.append(f"{k}: {v!r} outside the committed range {ref[k]}")
        if first_summary is not None and not math.isclose(
            v, first_summary[k], rel_tol=SELF_RTOL
        ):
            problems.append(f"{k}: {v!r} differs from the first run's {first_summary[k]!r}")
    return problems
