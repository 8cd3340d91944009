"""Measurement loop of the benchmark; ``run.py`` imports it after the BLAS pin."""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy

import bootstrap
import tracer
import workloads
from cablearm import cli
from cablearm.errors import CableRobotError

WARMUP_T_END_S = 0.05
# Set-up probes per invocation, at least.  One probe's time varies by
# about 20% from the next on a shared host, so the median needs several.
SETUP_PROBES = 8
SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t-end", type=float, default=workloads.T_END_S,
                    choices=workloads.run_lengths(workloads.load_references()),
                    help="simulated seconds per run, one with committed references "
                         "(default: %(default)s)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def blas_threads() -> dict:
    """Thread count each OpenBLAS bundled with numpy and scipy reports."""
    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in bootstrap.BLAS_ENV},
    }


def setup_probe(scenario_path: Path, out_dir: Path) -> float:
    """Set-up seconds of one fresh process (see setup_probe.py)."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), str(scenario_path), str(out_dir)],
        env=bootstrap.child_env(), capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def one_run(doc, reference, out: Path, first_summary, tr: tracer.Tracer | None) -> dict:
    """Run the scenario once, timed, and check its output."""
    run = {"traced": tr is not None}
    try:
        with tr.patched() if tr else nullcontext():
            t0 = time.perf_counter()
            with tr.span("cli.run_scenario") if tr else nullcontext():
                result = cli.run_scenario(doc, out)
            run["host_s"] = time.perf_counter() - t0
            run["problems"] = workloads.check_run(result, reference, first_summary)
    except CableRobotError as exc:
        run["problems"] = [f"{type(exc).__name__}: {exc}"]
        return run
    run["summary"] = result["report"]
    if tr:
        run["tracer"] = tr
    return run


def run_window(doc, reference, out: Path, seconds: float, traced_too: bool, probe=None):
    """Closed loop: run back to back while the next run is expected to end
    within ``seconds``.  With ``traced_too`` runs alternate untraced and
    traced, and at least one of each is made.

    With ``probe``, set-up probes are spread over the window, in step with
    the time spent, at least ``SETUP_PROBES`` of them.  Returns the runs
    and the probes' results."""
    runs, laps, setup, first_summary = [], [], [], None
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        tr = tracer.Tracer() if traced_too and len(runs) % 2 == 1 else None
        run = one_run(doc, reference, out, first_summary, tr)
        first_summary = first_summary or run.get("summary")
        runs.append(run)
        print("# run " + json.dumps({k: v for k, v in run.items()
                                      if k in ("traced", "host_s", "problems")}))
        while probe and len(setup) < SETUP_PROBES * min(
                1.0, (time.perf_counter() - start) / seconds):
            setup.append(probe())
        laps.append(time.perf_counter() - lap)
        elapsed = time.perf_counter() - start
        if len(runs) >= (2 if traced_too else 1) and elapsed + statistics.median(laps) > seconds:
            break
    # Probes also fill the rest of the window, which a run would overrun.
    while probe and (len(setup) < SETUP_PROBES or time.perf_counter() - start < seconds):
        setup.append(probe())
    return runs, setup


def overhead_frac(runs) -> float | None:
    """Median over traced runs of traced time / time of the untraced run
    just before it, minus 1.  Pairing neighbours keeps host drift over the
    window out of the ratio."""
    ratios = [b["host_s"] / a["host_s"] for a, b in zip(runs, runs[1:])
              if b["traced"] and not a["traced"] and not a["problems"] and not b["problems"]]
    return statistics.median(ratios) - 1.0 if ratios else None


def main(argv=None) -> int:
    args = parse_args(argv)
    doc = workloads.scenario(args.workload, args.seed, args.t_end)
    reference = workloads.reference_for(
        args.workload, args.seed, args.t_end, workloads.load_references())
    out = bootstrap.ROOT / ".perfbench" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    print("# env " + json.dumps(environment(), sort_keys=True))

    probe = None
    if args.trace == 0:
        scenario_path = out / "scenario.json"
        scenario_path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")

        def probe():
            return setup_probe(scenario_path, out / "setup")

        probe()  # discarded: it also fills the bytecode and file caches

    # First calls into scipy and numpy set up lazily; users pay that once
    # per process, not per simulated second.
    cli.run_scenario(workloads.scenario(args.workload, args.seed, WARMUP_T_END_S),
                     out / "warmup")
    runs, setup = run_window(doc, reference, out / "run", args.seconds, args.trace == 1, probe)

    failed = sum(1 for r in runs if r["problems"])
    good = [r for r in runs if not r["problems"]]
    print(f"# error_rate {failed / len(runs)!r} ratio ({failed} of {len(runs)} runs failed)")
    if args.trace == 0:
        if not good:
            print("perfbench: every run failed", file=sys.stderr)
            return 1
        print(f"# setup_probes {len(setup)}")
        values = {
            "host_s_per_sim_s": statistics.median(r["host_s"] for r in good) / args.t_end,
            "setup_s": statistics.median(setup),
            "rmse_2d_m": statistics.median(r["summary"]["rmse_2d_m"] for r in good),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        spec = SPEC["end_to_end"]
    else:
        layered = [r for r in good if r["traced"]]
        overhead = overhead_frac(runs)
        if overhead is None:
            print("perfbench: no traced/untraced pair succeeded", file=sys.stderr)
            return 1
        per_run = [r["tracer"].layer_metrics() for r in layered]
        values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        values["trace.overhead_frac"] = overhead
        spec = SPEC["per_layer"]
        for old in out.glob("spans_*.csv"):
            old.unlink()
        for i, r in enumerate(layered):
            r["tracer"].write(out / f"spans_{i}.csv")
        shares = layered[-1]["tracer"].shares("cli.run_scenario")
        print("# shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}")
    for name, unit in units.items():
        print(f"# {name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0
