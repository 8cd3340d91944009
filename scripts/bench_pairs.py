"""Paired benchmark runs of a parent revision and a change, written as one
``BENCH_<name>.json``.

Usage (from anywhere in a checkout)::

    python3 scripts/bench_pairs.py --name plant_dispatch --parent HEAD~1 \\
        --pairs cl_integrated2=8 --pairs cl_independent_noisy=4 \\
        --pairs cl_integrated2_coarse_tight=4 --traced cl_integrated2 \\
        --claim cl_integrated2:host_s_per_sim_s

The parent revision is exported with ``git archive`` into a temporary
directory, which leaves the repository's git metadata untouched; the change
is the checkout itself, its working tree.  Pair ``i`` of a workload runs
``perfbench/run.py --workload W --seed 900+i --seconds S --trace 0`` once
in each tree, with ``S`` the ``run_seconds`` of ``BENCHMARK.json``, one
invocation at a time, the parent first in even pairs and the change first
in odd ones, so that a drift of the host's speed falls on both sides
alike.  ``--traced`` adds one ``--trace 1 --seed 1`` invocation per side
for the per-layer metrics.

The output records the environment the harness prints, both revisions,
the seeds, every run's end-to-end metrics and, per workload and metric,
the quartiles of each side, the pairs the change won and the median
relative change.  It is rewritten after every pair, so an interrupted
run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED0 = 900   # pair i runs with seed SEED0 + i


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The files of revision ``rev`` under ``dest``, without git metadata."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def invoke(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One harness invocation: its result line and the environment it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": done.stderr.strip()[-2000:]}
    return {"env": env, "exit_code": done.returncode, **result}


def _quartiles(values) -> list[float]:
    return [round(float(v), 6) for v in np.percentile(values, [25, 50, 75])]


def summarize(runs: list[dict], better: dict[str, str]) -> list[dict]:
    """Per workload and metric: each side's quartiles, the pairs the change
    won, the ties and the median relative change over complete pairs.

    ``runs`` holds one record per invocation with the keys ``workload``,
    ``pair``, ``side`` ("parent" or "change"), ``seed``, ``attempted``,
    ``failed`` and ``metrics`` ({name: value}); ``better`` maps each
    metric to "lower" or "higher".  A pair is complete when both sides
    report the metric."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r for r in mine}
        entry = {"workload": workload, "pairs": len(pairs), "metrics": {},
                 "failed_runs": {s: sum(r["failed"] for r in mine if r["side"] == s)
                                 for s in ("parent", "change")},
                 "attempted_runs": {s: sum(r["attempted"] for r in mine if r["side"] == s)
                                    for s in ("parent", "change")},
                 "seeds": sorted({r["seed"] for r in mine})}
        for name, direction in better.items():
            both = [(side[p, "parent"]["metrics"][name], side[p, "change"]["metrics"][name])
                    for p in pairs
                    if name in side.get((p, "parent"), {}).get("metrics", {})
                    and name in side.get((p, "change"), {}).get("metrics", {})]
            if not both:
                continue
            old, new = np.array(both).T
            won = new < old if direction == "lower" else new > old
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(old != 0, (new - old) / old, 0.0)
            q_old = _quartiles(old)
            entry["metrics"][name] = {
                "parent_q25_median_q75": q_old,
                "change_q25_median_q75": _quartiles(new),
                "change_better_in_pairs": int(np.count_nonzero(won)),
                "ties": int(np.count_nonzero(new == old)),
                "complete_pairs": len(both),
                "median_change_rel": round(float(np.median(rel)), 4),
                "parent_iqr": round(q_old[2] - q_old[0], 6),
                "parent_runs": [round(float(v), 6) for v in old],
                "change_runs": [round(float(v), 6) for v in new],
            }
        out.append(entry)
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="scripts/bench_pairs.py", description=__doc__.split("\n")[0])
    ap.add_argument("--name", required=True, help="output file BENCH_<name>.json at the root")
    ap.add_argument("--parent", required=True, help="revision of the parent")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the gain the change claims")
    args = ap.parse_args(argv)
    try:
        args.pairs = [(w, int(n)) for w, n in (p.split("=") for p in args.pairs)]
    except ValueError:
        ap.error("--pairs takes WORKLOAD=N")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    doc = {"command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                      "--trace 0, one invocation per run, parent and change alternating which "
                      "runs first in each pair; traced: --seed 1 --trace 1",
           "environment": None,
           "revisions": {"parent": git("rev-parse", args.parent),
                         "change": git("rev-parse", "HEAD")
                         + (" plus uncommitted changes" if dirty else "")}}
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = {"metric": metric, "workload": workload}
    runs, traced = [], {}

    def write():
        doc.update(untraced=summarize(runs, better), traced_per_layer=traced, runs=runs)
        (ROOT / f"BENCH_{args.name}.json").write_text(json.dumps(doc, indent=1) + "\n",
                                                      encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"), "change": ROOT}
        for workload, n in args.pairs:
            for pair in range(n):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    res = invoke(trees[side], workload, SEED0 + pair, seconds, 0)
                    doc["environment"] = doc["environment"] or res["env"]
                    runs.append({"workload": workload, "pair": pair, "side": side,
                                 "seed": SEED0 + pair, "first": side == order[0],
                                 "exit_code": res["exit_code"], "correct": res["correct"],
                                 "attempted": res["attempted"], "failed": res["failed"],
                                 "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                                 **({"error": res["error"]} if "error" in res else {})})
                    print(f"{workload} pair {pair} {side}: {runs[-1]['metrics']}", flush=True)
                write()
        for workload in args.traced:
            for side in ("parent", "change"):
                res = invoke(trees[side], workload, 1, seconds, 1)
                traced.setdefault(workload, {})[side] = {k: v["value"]
                                                         for k, v in res["metrics"].items()}
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
