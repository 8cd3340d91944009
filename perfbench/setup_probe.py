"""Time a fresh process's set-up of one scenario run.

Usage: python3 setup_probe.py SCENARIO_JSON OUT_DIR

Prints the seconds from before ``import cablearm`` to the moment
``cablearm.cli.run_scenario`` enters ``sim.simulate``: the package import,
model resolution and scenario resolution a ``cablearm simulate`` call pays
before simulating.  The caller sets PYTHONPATH and the BLAS variables.
"""

import sys
import time


class _Entered(Exception):
    pass


def main(scenario_path: str, out_dir: str) -> float:
    t0 = time.perf_counter()
    from cablearm import cli, sim

    def stop(*args, **kwargs):
        raise _Entered(time.perf_counter() - t0)

    sim.simulate = stop
    try:
        cli.run_scenario(scenario_path, out_dir)
    except _Entered as entered:
        return entered.args[0]
    raise RuntimeError("run_scenario returned without entering sim.simulate")


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2])))
