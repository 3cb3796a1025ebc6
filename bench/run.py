"""canonkit benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload square-report --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports canonkit from ``src/``.
BLAS is pinned to one thread before numpy loads.  The timed loop runs passes
over the workload's items until ``--seconds`` of pass time have elapsed.
``setup_s`` is the median of several cold set-ups (imports, input
generation, warm-up), each timed in a fresh process by ``setup_probe.py``
and spread evenly between the passes.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run spends half its time untraced and half with span recorders installed,
and reports the per-layer metrics.  The line before it records the
environment, the error counts by type and any output mismatches.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import bootstrap

SETUP_PROBES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("square-report", "square-chain", "designed-scan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (N = 2, a handful of instances) for the smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str:
    try:
        # --git-dir, so that a checkout without .git inside another repository
        # does not report that repository's commit
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            dep = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError):  # the config layout differs between releases
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": bootstrap.BLAS_THREADS,
        "git_commit": git_commit(bootstrap.ROOT),
        "seed": seed,
    }


def setup_prober(args):
    """A function that times one cold set-up in a fresh process."""
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "setup_probe.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")

    def probe() -> float:
        proc = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    return probe


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.require_sources()

    import canonkit
    import workloads
    from timing import END_TO_END, PER_LAYER, run_workload

    if not Path(canonkit.__file__).resolve().is_relative_to(bootstrap.SRC):
        sys.exit(f"canonkit imported from {canonkit.__file__}, not {bootstrap.SRC}")

    result, record = run_workload(
        workloads, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        bootstrap.WORKDIR, probe_setup=setup_prober(args), n_probes=SETUP_PROBES,
    )
    record["env"] = environment(args.seed)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
