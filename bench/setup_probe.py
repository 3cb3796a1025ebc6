"""Time one cold set-up of a workload in a fresh process.

    python3 bench/setup_probe.py --workload square-report --seed 1 [--smoke]

Times the imports (numpy, scipy, canonkit) plus one set-up of the workload
(input generation, move file, warm-up) and prints the seconds as the last
line.  run.py starts it several times per run and reports the median as
``setup_s``.
"""

import time

_start = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    bootstrap.require_sources()
    import workloads

    # a directory of its own: the run that started the probe is using WORKDIR
    workdir = bootstrap.WORKDIR / "probe"
    workdir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](workdir, args.seed, args.smoke, {})
    try:
        wl.setup()
        print(time.perf_counter() - _start)
    finally:
        wl.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
