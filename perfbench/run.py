"""Closed-loop case-study benchmark of cablearm.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cl_integrated2 --seed 1 --seconds 40 --trace 0

Runs one workload's scenario through ``cablearm.cli.run_scenario`` (the
path ``cablearm simulate`` takes) back to back, each run starting when the
previous one ends, for ``--seconds``, and checks every run's output.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it start with
``#`` and record the environment, every run and every metric with its unit.

All runs happen one after another in this process, with one BLAS thread.
Artifacts and spans go to ``.perfbench/<workload>/`` in the checkout.
See NOTES.md for the workloads and metrics.
"""

import sys

import bootstrap


def main(argv=None) -> int:
    try:
        bootstrap.pin_and_import()
    except bootstrap.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness  # imports numpy, so only after the BLAS pin

    return harness.main(argv)


if __name__ == "__main__":
    sys.exit(main())
