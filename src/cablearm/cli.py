"""Scenario runner and command-line interface.

Subcommands map one-to-one onto package capabilities::

    cablearm simulate           --scenario s.json --out-dir out/
    cablearm optimize-stiffness --model hcdr9dof --l01 1.005 --l02 1.005 --out-dir out/
    cablearm inverse-dynamics   --model hcdr9dof --state state.json
    cablearm linearize          --model hcdr9dof --state point.json
    cablearm evaluate           --trace out/trace.csv
    cablearm compare            --scenario s.json --out-dir out/

A run's one input is its scenario document, whose defaults and checks are
:func:`sim.resolve_scenario`'s; this module loads it from a file or a
bundled name, resolves its model and writes the artifacts.  ``--seed`` is
written into it as its ``seed`` field, and ``compare`` runs the one
scenario under each architecture.  Errors print a machine-readable
``{"error": {"category", "message"}}`` object on stderr; exit codes are 2
for parse errors (a malformed command line among them), 3 for validation
errors, and 4 for any other package error or for running out of memory
(category ``memory``).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import dynamics, metrics, sim
from .errors import CableRobotError, ModelParseError, OutputError, ScenarioError
from .model import RobotModel, _field, _json_object, _object, builtin_model, load_model
from .stiffness import stiffness_landscape


def _resolve_model(ref: str) -> RobotModel:
    if ref == "hcdr9dof":
        return builtin_model(ref)
    path = Path(ref)
    if not path.exists():
        raise ModelParseError(f"model reference '{ref}' is neither a builtin nor a file")
    return load_model(_read_text(path))


def load_scenario(path_or_name) -> dict:
    """Load a scenario JSON document (path, bundled name, or dict)."""
    if isinstance(path_or_name, dict):
        return dict(path_or_name)
    p = Path(str(path_or_name))
    if p.exists():
        return _json_object(_read_text(p))
    ref = resources.files("cablearm").joinpath(f"data/scenarios/{path_or_name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"no bundled scenario '{path_or_name}'") from None
    return _json_object(text)


def run_scenario(path_or_doc, out_dir, fmt: str = "csv") -> dict:
    """Execute one scenario and write trace + summary artifacts.

    Returns {"trace": path, "summary": path, "report": dict}.
    """
    cfg = sim.resolve_scenario(load_scenario(path_or_doc))
    trace = sim.simulate(_resolve_model(cfg["model"]), cfg)
    out = Path(out_dir)
    summary = {**metrics.rmse(trace.p_e, trace.p_e_ref, trace.tensions).as_dict(),
               "seed": cfg["seed"], "config_hash": sim.config_digest(cfg)}
    trace_path = out / "trace.csv"
    summary_path = out / "summary.json"
    _write_text(trace_path, metrics.trace_to_csv(trace))
    _write_json(summary_path, summary)
    if fmt == "json":
        cols = metrics.trace_columns(trace)
        _write_json(out / "trace.json",
                    {name: cols[:, j].tolist() for j, name in enumerate(metrics.TRACE_HEADER)})
    return {"trace": str(trace_path), "summary": str(summary_path), "report": summary}


def compare_architectures(path_or_doc, out_dir) -> dict:
    """Run one scenario under each architecture, replacing its own
    ``architecture``, and tabulate the RMSEs, best first.

    The scenario and its three copies are resolved before the first run,
    so one that an architecture cannot run (a 4-entry ``du_bound`` under a
    2-input architecture) is rejected before anything is written.
    """
    doc = load_scenario(path_or_doc)
    docs = {a.value: {**doc, "architecture": a.value} for a in sim.Architecture}
    for d in (doc, *docs.values()):
        sim.resolve_scenario(d)
    out = Path(out_dir)
    rows = [{"architecture": arch, **run_scenario(d, out / arch)["report"]}
            for arch, d in docs.items()]
    rows.sort(key=lambda r: r["rmse_2d_m"])
    table = {
        "order": [r["architecture"] for r in rows],
        "results": rows,
    }
    _write_json(out / "comparison.json", table)
    header = ["architecture", "rmse_x_m", "rmse_z_m", "rmse_2d_m", "min_tension_N",
              "max_tension_N"]
    _write_text(out / "comparison.csv",
                metrics.to_csv(header, [[r[k] for k in header] for r in rows]))
    return table


def _scenario_arg(args) -> dict:
    """The ``--scenario`` document, its ``seed`` set to ``--seed`` when given."""
    doc = load_scenario(args.scenario)
    if args.seed is not None:
        doc["seed"] = args.seed
    return doc


def _cmd_simulate(args) -> int:
    result = run_scenario(_scenario_arg(args), args.out_dir, args.format)
    print(json.dumps(result["report"], indent=2, sort_keys=True))
    return 0


def _cmd_optimize_stiffness(args) -> int:
    model = _resolve_model(args.model)
    q = np.zeros(model.nq)
    q[0], q[2] = args.px, args.pz
    _, pos_groups = model.platform.actuation_layout()
    land = stiffness_landscape(
        model, q, dict(zip(pos_groups, (args.l01, args.l02))), resolution=args.resolution
    )
    ga, gb = land["groups"]
    TA, TB = np.meshgrid(land["axis_a"], land["axis_b"], indexing="ij")
    rows = np.column_stack([TA.ravel(), TB.ravel(), land["J_K"].ravel(), land["min_eig"].ravel()])
    path = Path(args.out_dir) / "stiffness_grid.csv"
    _write_text(path, metrics.to_csv([f"T_{ga}", f"T_{gb}", "J_K", "min_eig"], rows.tolist()))
    best = np.unravel_index(np.argmax(land["J_K"]), land["J_K"].shape)
    print(json.dumps({
        "grid": str(path),
        "J_K_max": float(land["J_K"][best]),
        "argmax": [float(land["axis_a"][best[0]]), float(land["axis_b"][best[1]])],
        "min_eig_min": float(land["min_eig"].min()),
    }, indent=2, sort_keys=True))
    return 0


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelParseError(f"cannot read {path}: {exc.strerror}") from None


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory; OutputError (exit 4)
    when either fails."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_inverse_dynamics(args) -> int:
    model = _resolve_model(args.model)
    doc = _object(_json_object(_read_text(args.state)), "$", ("q", "qdot", "qddot", "tau_d"))
    nq = (model.nq,)
    q = _field(doc, "q", "$", "finite numbers", shape=nq)
    qd, qdd = (_field(doc, key, "$", "finite numbers", np.zeros(nq), shape=nq)
               for key in ("qdot", "qddot"))
    tau_d = _field(doc, "tau_d", "$", "finite numbers", None, shape=nq)
    tau = dynamics.inverse_dynamics(model, q, qd, qdd, tau_d)
    print(json.dumps({
        "tau": tau.tolist(),
        "tau_platform": tau[:6].tolist(),
        "tau_arm": tau[6:].tolist(),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_linearize(args) -> int:
    model = _resolve_model(args.model)
    doc = _object(_json_object(_read_text(args.state)), "$", ("x", "u", "L01", "L02"))
    plant = sim.PlanarPlant(model)
    # a non-finite point reaches the plant, whose non-finite output is a divergence
    x = _field(doc, "x", "$", "numbers", shape=(plant.n_states,))
    u = _field(doc, "u", "$", "numbers", shape=(plant.n_inputs,))
    L0 = (_field(doc, "L01", "$", "number"), _field(doc, "L02", "$", "number"))
    from .control import linearize

    ltv = linearize(plant.f_inputs, x, u, L0)
    out = {"A": ltv.A.tolist(), "B": ltv.B.tolist(), "f_r": ltv.f_r.tolist()}
    if args.out_dir:
        _write_json(Path(args.out_dir) / "ltv.json", out)
    print(json.dumps({"A_shape": list(np.shape(out["A"])),
                      "B_shape": list(np.shape(out["B"]))}, sort_keys=True))
    return 0


def _cmd_evaluate(args) -> int:
    cols = metrics.trace_from_csv(_read_text(args.trace))
    p_e = np.column_stack([cols["x_e"], cols["z_e"]])
    p_ref = np.column_stack([cols["ref_x_e"], cols["ref_z_e"]])
    tensions = np.column_stack([cols[name] for name in metrics.TENSION_COLS])
    report = metrics.rmse(p_e, p_ref, tensions)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    table = compare_architectures(_scenario_arg(args), args.out_dir)
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line (its subcommands' too) as a parse
    error instead of printing usage text and exiting."""

    def error(self, message):
        raise ModelParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cablearm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate", help="run one closed-loop scenario")
    sim_p.add_argument("--scenario", required=True)
    sim_p.add_argument("--out-dir", default="out")
    sim_p.add_argument("--seed", type=int, default=None)
    sim_p.add_argument("--format", choices=("csv", "json"), default="csv")
    sim_p.set_defaults(func=_cmd_simulate)

    st_p = sub.add_parser("optimize-stiffness", help="emit the tension-stiffness grid")
    st_p.add_argument("--model", default="hcdr9dof")
    st_p.add_argument("--px", type=float, default=0.0)
    st_p.add_argument("--pz", type=float, default=0.0)
    st_p.add_argument("--l01", type=float, default=1.005)
    st_p.add_argument("--l02", type=float, default=1.005)
    st_p.add_argument("--resolution", type=int, default=76)
    st_p.add_argument("--out-dir", default="out")
    st_p.set_defaults(func=_cmd_optimize_stiffness)

    id_p = sub.add_parser("inverse-dynamics", help="generalized forces at a state")
    id_p.add_argument("--model", default="hcdr9dof")
    id_p.add_argument("--state", required=True, help="JSON file with q, qdot, qddot")
    id_p.set_defaults(func=_cmd_inverse_dynamics)

    lin_p = sub.add_parser("linearize", help="LTV matrices of the planar plant")
    lin_p.add_argument("--model", default="hcdr9dof")
    lin_p.add_argument("--state", required=True, help="JSON file with x, u, L01, L02")
    lin_p.add_argument("--out-dir", default=None)
    lin_p.set_defaults(func=_cmd_linearize)

    ev_p = sub.add_parser("evaluate", help="RMSE report from a trace CSV")
    ev_p.add_argument("--trace", required=True)
    ev_p.set_defaults(func=_cmd_evaluate)

    cmp_p = sub.add_parser("compare", help="run and rank the three architectures")
    cmp_p.add_argument("--scenario", required=True)
    cmp_p.add_argument("--out-dir", default="out")
    cmp_p.add_argument("--seed", type=int, default=None)
    cmp_p.set_defaults(func=_cmd_compare)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a diverging run is reported by the finiteness checks, not by
        # numpy warnings ahead of the error record
        with np.errstate(all="ignore"):
            return args.func(args)
    except CableRobotError as exc:
        category, message = exc.category, str(exc)
    except MemoryError as exc:
        category, message = "memory", str(exc) or "out of memory"
    print(json.dumps({"error": {"category": category, "message": message}}, sort_keys=True),
          file=sys.stderr)
    return {"parse": 2, "validation": 3}.get(category, 4)


if __name__ == "__main__":
    sys.exit(main())
