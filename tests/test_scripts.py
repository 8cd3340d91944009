"""Smoke tests of the runnable scripts under ``scripts/`` and of the
``optimize-stiffness`` command run in a fresh interpreter."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import cablearm

ROOT = Path(__file__).resolve().parents[1]


def test_stiffness_grid_script(tmp_path):
    """``cablearm optimize-stiffness`` in a fresh interpreter writes the grid CSV."""
    package_root = str(Path(cablearm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-m", "cablearm.cli", "optimize-stiffness", "--resolution", "3",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "stiffness_grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 3
    assert lines[0] == "T_3,T_4,J_K,min_eig"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    """Quartiles, pairs won and ties of synthetic parent/change records; a
    pair that lacks one side's metric is left out of that metric only."""
    def run(pair, side, host, rss=None, failed=0):
        metrics = {"host_s_per_sim_s": host, **({} if rss is None else {"peak_rss_mb": rss})}
        return {"workload": "w", "pair": pair, "side": side, "seed": 900 + pair,
                "attempted": 5, "failed": failed, "metrics": metrics}

    runs = [run(0, "parent", 4.0, 60.0), run(0, "change", 3.0, 61.0),
            run(1, "change", 2.0, 60.0), run(1, "parent", 2.0, 60.0),
            run(2, "parent", 6.0), run(2, "change", 3.0, 59.0, failed=1)]
    entry, = _bench_pairs().summarize(runs, {"host_s_per_sim_s": "lower",
                                             "peak_rss_mb": "lower", "setup_s": "lower"})
    assert entry["pairs"] == 3 and entry["seeds"] == [900, 901, 902]
    assert entry["failed_runs"] == {"parent": 0, "change": 1}
    assert entry["attempted_runs"] == {"parent": 15, "change": 15}
    host = entry["metrics"]["host_s_per_sim_s"]
    assert host["parent_runs"] == [4.0, 2.0, 6.0] and host["change_runs"] == [3.0, 2.0, 3.0]
    assert host["parent_q25_median_q75"] == [3.0, 4.0, 5.0]
    assert host["parent_iqr"] == 2.0
    assert (host["change_better_in_pairs"], host["ties"], host["complete_pairs"]) == (2, 1, 3)
    assert host["median_change_rel"] == -0.25
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["complete_pairs"] == 2 and rss["change_better_in_pairs"] == 0
    assert "setup_s" not in entry["metrics"]


def test_trace_digests_repeat(tmp_path):
    """Two runs of one 0.05 s scenario, with its ``compare`` and JSON trace,
    and two of the 6 s schedule, give equal digests, one line per artifact."""
    spec = importlib.util.spec_from_file_location("trace_digests",
                                                  ROOT / "scripts" / "trace_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = {"short": ("case_study_integrated2",
                      {"t_end_s": 0.05, "seed": 3, "noise_std": module.NOISE})}
    first, second = (module.run_digests(runs, tmp_path / side) for side in ("a", "b"))
    assert first == second
    assert [line.split("  ")[1] for line in first] == ["short/trace.csv", "short/summary.json"]
    first, second = (module.compare_digests(runs["short"], tmp_path / side) for side in ("c", "d"))
    assert first == second
    assert [line.split("  ")[1] for line in first] == ["compare/comparison.csv",
                                                       "compare/comparison.json", "json/trace.json"]
    schedule = module.schedule_digest()
    assert schedule == module.schedule_digest()
    assert schedule.split("  ")[1] == "schedule_6s/u+L0"
