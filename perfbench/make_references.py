"""Regenerate references.json, the expected outputs the benchmark checks.

Usage (from the root of a checkout)::

    python3 perfbench/make_references.py

Runs every workload once per seed 0..N_SEEDS-1 at the benchmark's run
length, and at the smoke test's run length for seed 1, and records
``rmse_2d_m``, ``min_tension_N`` and ``max_tension_N`` from each summary.  Workloads whose
output does not depend on the seed get one entry with ``"seed": null``.
Only rerun this when a change is meant to alter the simulation's output.
"""

import json
import sys

import bootstrap

N_SEEDS = 64   # the band check for other seeds assumes these are committed


def main() -> int:
    bootstrap.pin_and_import()
    from cablearm import cli

    import workloads

    entries = []
    out = bootstrap.ROOT / ".perfbench" / "references"
    for name in workloads.WORKLOADS:
        matters = workloads.seed_matters(name)
        plan = [(workloads.T_END_S, s) for s in (range(N_SEEDS) if matters else [0])]
        plan.append((workloads.SMOKE_T_END_S, workloads.SMOKE_SEED))
        for t_end, seed in plan:
            report = cli.run_scenario(workloads.scenario(name, seed, t_end), out)["report"]
            entry = {"workload": name, "t_end_s": t_end, "seed": seed if matters else None}
            entry.update({k: report[k] for k in workloads.CHECKED_KEYS})
            entries.append(entry)
            print(json.dumps(entry), flush=True)
    doc = {
        "about": "Expected run outputs per (workload, t_end_s, seed); "
                 "regenerate with perfbench/make_references.py",
        "entries": entries,
    }
    workloads.REFERENCES.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
